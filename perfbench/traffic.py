"""Ungated reference: what the configurations users actually run cost.

    python3 perfbench/traffic.py            # writes perfbench/TRAFFIC.json

Each configuration runs once, in a fresh interpreter with BLAS pinned to
one thread, from the root of a source checkout. Wall time covers the
configuration's own work, not the interpreter start or ``import ncmlab``;
``maxrss_mb`` is the child's peak resident set, import included. Nothing
compares against these numbers: they size a later gain against real
traffic, and they are not part of the benchmark's gated metrics.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "TRAFFIC.json")
sys.path.insert(0, HERE)

from run import THREAD_PINS  # noqa: E402

BELL = {"qubits": 2, "steps": [
    {"gates": [{"name": "h", "targets": [0]},
               {"name": "cnot", "targets": [0, 1]}], "measure": 1},
    {"gates": [], "measure": 0}]}

# name -> what the configuration runs
CONFIGS = {
    "criterion-1": "acceptance criterion 1: 50 circuits x 1e5 shots",
    "bell-1e6-shots": "run-oracle --mode sample --shots 1000000, Bell circuit",
    "mac-n4": "run-reduction --primitive mac --params n=4,lm=4 --trials 10000",
    "mac-n6": "run-reduction --primitive mac --params n=6,lm=6 --trials 10000",
    "suite-preimage-pairs": "suite preimage-pairs",
    "tree-10q-4096-paths": "enumerate_branches, 10 qubits, 2 steps "
                           "measuring 6+6 (4096 paths)",
}


def _one(name: str, tmp: str) -> dict:
    """Runs inside the child: one configuration, timed after import."""
    import ncmlab.cli
    from ncmlab import acceptance, qsim

    out = os.path.join(tmp, "report.json")
    bell = os.path.join(tmp, "bell.json")
    with open(bell, "w", encoding="utf-8") as fh:
        json.dump(BELL, fh)
    argv = {
        "bell-1e6-shots": ["run-oracle", "--circuit", bell, "--mode",
                           "sample", "--shots", "1000000", "--seed", "7"],
        "mac-n4": ["run-reduction", "--primitive", "mac", "--params",
                   "n=4,lm=4", "--trials", "10000", "--seed", "3"],
        "mac-n6": ["run-reduction", "--primitive", "mac", "--params",
                   "n=6,lm=6", "--trials", "10000", "--seed", "3"],
        "suite-preimage-pairs": ["suite", "preimage-pairs"],
    }.get(name)
    extra = {}
    start = time.perf_counter()
    if argv is not None:
        code = ncmlab.cli.main(argv + ["--out", out])
        ok = code == 0
    elif name == "criterion-1":
        ok = all(c.passed for c in acceptance.run_criterion(1))
    else:
        n = 10
        gates = [{"name": "h", "targets": [q]} for q in range(n)]
        gates += [{"name": "cnot", "targets": [q, q + 1]} for q in range(n - 1)]
        circuit = qsim.circuit_from_json({"qubits": n, "steps": [
            {"gates": gates, "measure": 6}, {"gates": gates, "measure": 6}]})
        tree = qsim.enumerate_branches(circuit)
        leaves = tree.leaves()
        ok = abs(sum(leaf.prob for leaf in leaves) - 1.0) <= 1e-9
        extra["paths"] = len(leaves)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "passed": ok, **extra,
            "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0}


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--one":
        with tempfile.TemporaryDirectory(dir=".") as tmp:
            print(json.dumps(_one(sys.argv[2], tmp)))
        return 0
    src = os.path.join(os.getcwd(), "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0", **THREAD_PINS)
    import numpy
    rows = {}
    for name, what in CONFIGS.items():
        proc = subprocess.run([sys.executable, __file__, "--one", name],
                              env=env, capture_output=True, text=True,
                              check=True, timeout=600)
        rows[name] = {"config": what, **json.loads(proc.stdout)}
        print(name, rows[name], file=sys.stderr)
    with open("/proc/loadavg", encoding="ascii") as fh:
        load = fh.read().strip()
    doc = {"gated": False, "python": sys.version.split()[0],
           "numpy": numpy.__version__, "nproc": os.cpu_count(),
           "loadavg_after": load, "configs": rows}
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
