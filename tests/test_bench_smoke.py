"""Each benchmark workload's warm-up op, run and checked as the benchmark
does: a change that breaks the calls a workload makes, or moves its exact
values off ``perfbench/reference.json``, fails here before any timing.

The ``wide-tree`` and ``exact-chain`` ops also run once under
``perfbench/tracer.py``, which wraps every public function and classmethod
of the program, calls ``len()`` on law results, and walks ``node.state``
and ``node.children`` of every tree an op looked up.

``perfbench/pool.py``, ``perfbench/ops.py`` and ``perfbench/tracer.py`` are
loaded as they are and never modified.
"""

import importlib.util
import json
from pathlib import Path

import numpy  # noqa: F401  (ops.py reads the imported modules by name)
import pytest

import ncmlab.cli  # noqa: F401
import ncmlab.ncmo  # noqa: F401
import ncmlab.qsim  # noqa: F401

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pool = _load("pool")
ops = _load("ops")
REFERENCE = json.loads((BENCH / "reference.json").read_text())["workloads"]


@pytest.mark.parametrize("workload", pool.WORKLOADS)
def test_warmup_op_passes_against_the_reference(workload, tmp_path):
    spec = pool.warmup(workload, REFERENCE[workload])
    spec["fp"] = pool.fingerprint(spec)
    ops.write_inputs([spec], str(tmp_path))
    _, raw = ops.execute(spec, 0, str(tmp_path))
    ops.compare(spec, ops.check(spec, raw), REFERENCE[workload])


def _traced_warmup_op(workload: str, tmp_path):
    tracer = _load("tracer").Tracer()
    spec = pool.warmup(workload, REFERENCE[workload])
    spec["fp"] = pool.fingerprint(spec)
    ops.write_inputs([spec], str(tmp_path))
    tracer.install()
    try:
        _, raw = ops.execute(spec, 0, str(tmp_path))
        tracer.end_op()
    finally:
        tracer.remove()
    ops.compare(spec, ops.check(spec, raw), REFERENCE[workload])
    return tracer


def test_wide_tree_op_passes_under_the_tracer(tmp_path):
    tracer = _traced_warmup_op("wide-tree", tmp_path)
    assert tracer.counters["qsim.branch_paths"] > 0
    assert tracer.counters["qsim.node_state_bytes"] > 0


def test_exact_chain_op_passes_under_the_tracer(tmp_path):
    tracer = _traced_warmup_op("exact-chain", tmp_path)
    # the hybrid and step-pair laws are folded on level arrays, with no
    # law-algebra call that dist.atoms_out counts; the puzzles layer's
    # law results are what the tracer sees
    assert tracer.counters["puzzles.law_atoms"] > 0
