"""ncmlab benchmark: seeded workloads, verified ops, end-to-end and per-layer
metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload oracle-sample --seed 1 --seconds 26 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of one closed-loop run;
with ``--trace 1`` it prints the per-layer metrics of a traced run. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
run environment. Every op runs in a fresh child interpreter with its BLAS
pinned to one thread (see child.py); ``ops.py`` says what an op is and how
it is checked.

    python3 perfbench/run.py --make-reference

regenerates ``reference.json``: it admits pool candidates and records their
exact values with the program as it stands. Do that only on a commit whose
exact values are trusted, because every later run is compared against it.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import pool  # noqa: E402
from tracer import LAYERS  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
WORK_ROOT = ".perfbench_work"
SETUP_SAMPLES = 7  # six set-up-only children plus the measured one
CHILD_SLACK_S = 100.0
MIN_OPS = 100
MIN_REPEATS = 3
# reference speed: the machine on which child.calibration_unit takes 1 ms
CAL_REF_S = 1e-3
CAL_WINDOW = 4  # calibration units on each side of an op

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


# -- environment ------------------------------------------------------------------

def _loadavg() -> str | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _git_rev(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest(src: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(src, "ncmlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _environment(root: str, src: str) -> dict:
    import numpy
    return {"git_rev": _git_rev(root), "source_digest": _source_digest(src),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "thread_pins": THREAD_PINS}


# -- children --------------------------------------------------------------------

def _child(plan_path: str, mode: str, seconds: float, workdir: str,
           src: str) -> dict:
    result_path = os.path.join(workdir, f"result-{mode}.json")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0", **THREAD_PINS)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), plan_path, mode,
         repr(seconds), result_path],
        env=env, capture_output=True, text=True,
        timeout=seconds + CHILD_SLACK_S)
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- metrics -----------------------------------------------------------------------

def _best_of_repeats(seconds: list[float], k: int) -> list[float]:
    """Each cycle op's best time over the complete cycles (over its one
    run, if not even one cycle completed)."""
    cycles = max(len(seconds) // k, 1)
    return [min(seconds[i:cycles * k:k]) for i in range(min(k, len(seconds)))]


def _at_reference_speed(seconds: list[float],
                        calibration: list[float]) -> list[float]:
    """Each op's time scaled to the reference machine: divided by the
    median calibration unit around it, times the unit's reference time."""
    scaled = []
    for j, t in enumerate(seconds):
        around = calibration[max(0, j - CAL_WINDOW):j + CAL_WINDOW + 1]
        scaled.append(t * CAL_REF_S / statistics.median(around))
    return scaled


def _end_to_end(setups: list[float], run: dict,
                cycle_len: int) -> tuple[dict, int, int, list]:
    """Throughput and percentiles over the cycle's distinct ops, each timed
    by its best repeat at reference speed; an op passes only if every
    repeat passed. The same figures in plain wall time go to stdout."""
    passed = run["op_passed"]
    best_raw = _best_of_repeats(run["op_seconds"], cycle_len)
    best = _best_of_repeats(
        _at_reference_speed(run["op_seconds"], run["calibration_seconds"]),
        cycle_len)
    ok = sum(all(passed[i::cycle_len]) for i in range(len(best)))
    cycles = len(passed) // cycle_len
    if len(best) < MIN_OPS or cycles < MIN_REPEATS:
        print(f"warning: {len(best)} distinct ops over {cycles} complete "
              f"cycles; the p90 wants {MIN_OPS} ops and the best-of "
              f"{MIN_REPEATS} repeats", file=sys.stderr)

    def timings(times: list[float]) -> tuple[float, float, float]:
        ms = [t * 1e3 for t in times]
        return ok / sum(times), statistics.median(ms), _percentile(ms, 90)

    ops_per_s, p50, p90 = timings(best)
    raw = dict(zip(("ops_per_s", "op_ms_p50", "op_ms_p90"), timings(best_raw)))
    raw["calibration_ms_median"] = statistics.median(
        run["calibration_seconds"]) * 1e3
    print("# wall-clock " + json.dumps(raw, sort_keys=True))
    metrics = {
        "ops_per_s": (ops_per_s, "ops/ref-s"),
        "op_ms_p50": (p50, "ref-ms"),
        "op_ms_p90": (p90, "ref-ms"),
        "peak_rss_mb": (run["maxrss_kb"] / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return metrics, len(passed), len(passed) - sum(passed), run["failures"]


def _per_layer(trace: dict) -> tuple[dict, int, int, list]:
    passes = trace["passes"]
    plain, traced = trace["untraced"], trace["traced"]
    metrics = {}
    self_total = 0.0
    for layer in LAYERS:
        row = trace["layers"][layer]
        self_total += row["self_s"]
        metrics[f"{layer}.self_s"] = (row["self_s"] / passes, "s")
        metrics[f"{layer}.calls"] = (row["calls"] / passes, "count")
        metrics[f"{layer}.raised"] = (row["raised"] / passes, "count")
    c = trace["counters"]
    wall = sum(traced["op_seconds"])
    ops_traced = len(traced["op_seconds"])
    metrics.update({
        "ncmo.shots": (c["ncmo.shots"] / passes, "count"),
        "dist.samples_counted": (c["dist.samples_counted"] / passes, "count"),
        "cli.report_bytes": (trace["report_bytes"] / passes, "bytes"),
        "dist.atoms_out": (c["dist.atoms_out"] / passes, "count"),
        "puzzles.law_atoms": (c["puzzles.law_atoms"] / passes, "count"),
        "qsim.trees_per_circuit": (
            c["qsim.trees"] / c["qsim.circuits"] if c["qsim.circuits"] else 0.0,
            "trees/circuit"),
        "primitives.ver_calls": (c["primitives.ver_calls"] / passes, "count"),
        "primitives.exact_evals_per_op": (
            c["primitives.exact_evals"] / ops_traced, "evals/op"),
        "dcrpuzz.col_atoms": (c["dcrpuzz.col_atoms"] / passes, "count"),
        "qsim.branch_paths": (c["qsim.branch_paths"] / passes, "count"),
        "qsim.node_state_mb": (
            c["qsim.node_state_bytes"] / passes / 2.0 ** 20, "MB-computed"),
        "trace_overhead_frac": (
            1.0 - sum(plain["op_seconds"]) / wall, "ratio"),
        "trace.wall_s": (wall / passes, "s"),
        "trace.remainder_s": ((wall - self_total) / passes, "s"),
    })
    attempted = len(plain["op_seconds"]) + ops_traced
    failed = (attempted - sum(plain["op_passed"]) - sum(traced["op_passed"]))
    return metrics, attempted, failed, plain["failures"] + traced["failures"]


# -- entry points ---------------------------------------------------------------

def _program_src(root: str) -> str:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ncmlab", "__init__.py")):
        raise BenchError(f"no ncmlab sources under {src}: run from the root "
                         f"of a source checkout")
    return src


def _load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    if ref["pool_seed"] != pool.POOL_SEED:
        raise BenchError("reference.json was made from another pool seed")
    return ref["workloads"]


def bench(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    root = os.getcwd()
    src = _program_src(root)
    # the build step: byte-compile the package so no run pays for it
    if not compileall.compile_dir(os.path.join(src, "ncmlab"), quiet=1):
        raise BenchError("ncmlab does not compile")
    reference = _load_reference()
    cycle = pool.plan(workload, seed, reference[workload])
    warmup = pool.warmup(workload, reference[workload])
    for spec in cycle + [warmup]:
        spec["fp"] = pool.fingerprint(spec)
    workdir = os.path.abspath(os.path.join(
        root, WORK_ROOT, f"{workload}-{seed}-{os.getpid()}"))
    os.makedirs(workdir, exist_ok=True)
    env = _environment(root, src)
    env["loadavg_before"] = _loadavg()
    try:
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "workdir": workdir, "src": src,
                       "reference": REFERENCE, "ops": cycle,
                       "warmup": warmup}, fh)
        if traced:
            trace = _child(plan_path, "trace", seconds, workdir, src)
            metrics, attempted, failed, failures = _per_layer(trace)
            _write_function_table(root, workload, seed, trace)
            warm = trace["warmup_failures"]
        else:
            setups = [_child(plan_path, "setup", 0.0, workdir, src)
                      for _ in range(SETUP_SAMPLES - 1)]
            run = _child(plan_path, "run", seconds, workdir, src)
            metrics, attempted, failed, failures = _end_to_end(
                [s["setup_s"] for s in setups] + [run["setup_s"]], run,
                len(cycle))
            warm = [f for s in setups + [run] for f in s["warmup_failures"]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_after"] = _loadavg()
    env.update(workload=workload, seed=seed, cycle_ops=len(cycle))
    for message in warm + failures:
        print(f"failed op: {message}", file=sys.stderr)
    attempted += len(warm)
    failed += len(warm)
    print("# env " + json.dumps(env, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def _write_function_table(root: str, workload: str, seed: int,
                          trace: dict) -> None:
    rows = sorted(trace["functions"].items(), key=lambda kv: -kv[1][1])
    table = [{"span": name, "calls": calls // trace["passes"],
              "self_s": self_s / trace["passes"], "raised": raised}
             for name, (calls, self_s, raised) in rows if calls]
    path = os.path.join(root, WORK_ROOT, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "passes": trace["passes"], "spans": table}, fh, indent=1)


def make_reference() -> dict:
    """Run every pool candidate once in this process; admit those that pass
    their checks (and, for oracle-sample, criterion 1's law-size filter)."""
    root = os.getcwd()
    src = _program_src(root)
    sys.path.insert(0, src)
    import ncmlab.cli  # noqa: F401
    import ops

    workdir = os.path.abspath(os.path.join(root, WORK_ROOT, "reference"))
    out = {}
    try:
        for workload in pool.WORKLOADS:
            admitted = out[workload] = {}
            for spec in pool.all_candidates(workload):
                spec["fp"] = pool.fingerprint(spec)
                ops.write_inputs([spec], workdir)
                try:
                    exact = ops.check(spec, ops.execute(spec, 0, workdir)[1])
                except ops.OpFailed as e:
                    print(f"not admitted: {e}", file=sys.stderr)
                    continue
                if (workload == "oracle-sample"
                        and exact[0] > pool.EXACT_LAW_ATOMS_MAX):
                    continue
                admitted[spec["id"]] = {"fp": spec["fp"], "exact": exact}
            print(f"{workload}: {len(admitted)} admitted", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"pool_seed": pool.POOL_SEED, "workloads": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=pool.WORKLOADS)
    parser.add_argument("--seed", type=int, default=pool.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.make_reference:
            ref = make_reference()
            with open(REFERENCE, "w", encoding="utf-8") as fh:
                json.dump(ref, fh, sort_keys=True, separators=(",", ":"))
                fh.write("\n")
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = bench(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
