"""One branch tree per circuit: built once, guarded on every call, freed
with its circuit."""

import gc
import json
import weakref

import numpy as np
import pytest

import ncmlab.cli as cli
import ncmlab.qsim as qsim
from ncmlab.errors import InstanceTooLargeError
from ncmlab.ncmo import oracle_exact, q1, q2
from ncmlab.qsim import (
    bell_circuit,
    circuit_from_json,
    circuit_to_json,
    enumerate_branches,
)


@pytest.fixture()
def builds(monkeypatch):
    """Circuits whose tree was expanded while the fixture is active."""
    built = []
    build = qsim._build_tree

    def counting(circuit):
        built.append(circuit)
        return build(circuit)

    monkeypatch.setattr(qsim, "_build_tree", counting)
    return built


def test_repeat_calls_return_the_same_nodes(builds):
    c = bell_circuit(1, 1)
    first = enumerate_branches(c)
    second = enumerate_branches(c)
    assert second.root is first.root
    assert second.circuit is c
    assert builds == [c]
    # an equal but distinct circuit has its own tree
    twin = circuit_from_json(circuit_to_json(c))
    assert enumerate_branches(twin).root is not first.root
    assert len(builds) == 2


def test_cached_tree_dies_with_its_circuit():
    gc.disable()
    try:
        c = bell_circuit(1, 1)
        root = weakref.ref(enumerate_branches(c).root)
        assert root() is not None
        del c
        assert root() is None
    finally:
        gc.enable()


def test_guard_is_checked_after_the_tree_is_cached(monkeypatch):
    c = bell_circuit(1, 1)   # two paths
    enumerate_branches(c)
    monkeypatch.setenv("NCMO_MAX_BRANCHES", "1")
    with pytest.raises(InstanceTooLargeError):
        enumerate_branches(c)
    with pytest.raises(InstanceTooLargeError):
        oracle_exact(c)
    monkeypatch.delenv("NCMO_MAX_BRANCHES")
    assert len(enumerate_branches(c).leaves()) == 2


@pytest.mark.parametrize("adversary", ["perfect", "oblivious", "constant:0"])
def test_check_hybrid_builds_one_tree(adversary, builds, tmp_path):
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps({"circuit": circuit_to_json(bell_circuit(1, 1)),
                                "x": "01"}))
    out = tmp_path / "report.json"
    assert cli.main(["check-hybrid", "--instance", str(inst),
                     "--adversary", adversary, "--out", str(out)]) == 0
    assert len(builds) == 1


def test_run_oracle_exact_builds_one_tree(builds, tmp_path):
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(circuit_to_json(bell_circuit(1, 1))))
    assert cli.main(["run-oracle", "--circuit", str(path),
                     "--out", str(tmp_path / "report.json")]) == 0
    assert len(builds) == 1


def test_exact_conditional_draws_build_one_tree(builds):
    c = bell_circuit(1, 1)
    rng = np.random.default_rng(5)
    draws = {q1(c, ("1",), rng) for _ in range(100)}
    reads = {q2(c, ("0", ""), rng) for _ in range(100)}
    assert draws == {("",)}
    assert reads == {("0", "00")}
    assert builds == [c]
