"""The measured process: one fresh, single-threaded interpreter per call.

Usage (started by run.py, never by hand):

    python3 perfbench/child.py PLAN.json MODE SECONDS RESULT.json

MODE is one of:

- ``setup``: time ``import ncmlab`` plus the workload's warm-up op, then
  exit.
- ``run``: set up as above, then run the plan's op cycle in a closed loop,
  one op at a time and in order, cycle after cycle, until SECONDS of loop
  time have passed. Before each op it times one fixed calibration unit,
  so run.py can tell how fast the machine was around every op.
- ``trace``: set up, then run the plan's cycle in passes; each op runs
  once untraced and once traced, so both sides do the same work. Passes
  repeat while another one fits in SECONDS; at least one always runs.

Only the standard library is imported before the set-up clock starts.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
import traceback

import ops

MAX_REPORTED_FAILURES = 5


def main(argv: list[str]) -> int:
    plan_path, mode, seconds, result_path = argv
    seconds = float(seconds)
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    with open(plan["reference"], encoding="utf-8") as fh:
        reference = json.load(fh)["workloads"][plan["workload"]]
    workdir, cycle = plan["workdir"], plan["ops"]
    ops.write_inputs(cycle + [plan["warmup"]], workdir)

    start = time.perf_counter()
    import ncmlab  # noqa: F401  (the timed import)
    import ncmlab.cli  # noqa: F401
    warm = Loop(cycle + [plan["warmup"]], workdir, reference)
    warm.step(len(cycle))
    setup_s = time.perf_counter() - start
    src = os.path.realpath(plan["src"])
    if not os.path.realpath(ncmlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported ncmlab from {ncmlab.__file__}, "
                         f"not from {src}")

    # the harness's own objects (plan, reference, imported modules) are not
    # the program's working set: keep them out of the ops' GC passes
    gc.collect()
    gc.freeze()
    result = {"setup_s": setup_s, "warmup_failures": warm.failures}
    if mode == "run":
        loop = Loop(cycle, workdir, reference)
        calibration = []
        began = time.perf_counter()
        i = 0
        while time.perf_counter() - began < seconds:
            unit_began = time.perf_counter()
            calibration_unit()
            calibration.append(time.perf_counter() - unit_began)
            loop.step(i % len(cycle))
            i += 1
        result.update(loop.summary())
        result["calibration_seconds"] = calibration
    elif mode == "trace":
        result.update(trace(cycle, workdir, reference, seconds))
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


class Loop:
    """Closed-loop op runner: times each op, then checks it untimed."""

    def __init__(self, cycle, workdir, reference):
        self.cycle, self.workdir, self.reference = cycle, workdir, reference
        self.seconds: list[float] = []
        self.passed: list[bool] = []
        self.failures: list[str] = []

    def step(self, i: int, tracer=None) -> None:
        spec = self.cycle[i]
        began = time.perf_counter()
        try:
            if tracer is not None:
                tracer.install()
            try:
                elapsed, raw = ops.execute(spec, i, self.workdir)
            finally:
                if tracer is not None:
                    tracer.remove()
                    tracer.end_op()
            ops.compare(spec, ops.check(spec, raw), self.reference)
            ok = True
        except Exception:  # a raising op counts as failed; the loop goes on
            elapsed = time.perf_counter() - began
            ok = False
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append(f"{spec['id']}: "
                                     f"{traceback.format_exc(limit=3)}")
        self.seconds.append(elapsed)
        self.passed.append(ok)

    def summary(self) -> dict:
        return {"op_seconds": self.seconds, "op_passed": self.passed,
                "failures": self.failures}


def calibration_unit() -> float:
    """A fixed unit of interpreter and numpy work in the program's style:
    small dicts keyed by bit strings, sorting, string joins, small arrays.
    It never changes, so its time measures the machine, not the program."""
    np = sys.modules["numpy"]
    acc = 0.0
    for _ in range(8):
        table = {format(i, "010b"): i * 0.25 for i in range(128)}
        keys = sorted(table, reverse=True)
        weights = np.fromiter((table[k] for k in keys), float, len(keys))
        acc += float(np.cumsum(weights)[-1]) + len("".join(k[:2] for k in keys))
    return acc


def trace(cycle, workdir, reference, seconds: float) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    plain = Loop(cycle, workdir, reference)
    traced = Loop(cycle, workdir, reference)
    report_bytes = 0
    passes = 0
    began = time.perf_counter()
    while True:
        pass_began = time.perf_counter()
        for i in range(len(cycle)):
            plain.step(i)
            traced.step(i, tracer)
            report_bytes += sum(
                os.path.getsize(ops.out_path(workdir, k))
                for k in ops.report_indices(cycle[i]))
        passes += 1
        now = time.perf_counter()
        if now - began + (now - pass_began) > seconds:
            break
    return {"passes": passes,
            "untraced": plain.summary(), "traced": traced.summary(),
            "layers": tracer.layer_totals(), "counters": tracer.counters,
            "functions": tracer.stats, "report_bytes": report_bytes}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
