import ast
import json
import math
import pathlib

import numpy as np
import pytest

import ncmlab
from ncmlab.dist import FiniteDist, sd
from ncmlab.errors import (
    ImpossibleConditionError,
    InstanceTooLargeError,
    ParseError,
    StructureError,
)
from ncmlab.qsim import (
    FIXED_1Q,
    Circuit,
    Gate,
    Step,
    _apply_1q,
    apply_step_unitary,
    bell_circuit,
    branch_count_bound,
    branch_guard,
    circuit_from_json,
    circuit_to_json,
    enumerate_branches,
    initial_state,
    random_circuit,
    random_unitary_2x2,
    readout_dist,
    run_prefix,
    state_prep_unitary,
    step_unitary,
    walk,
)

ATOL = 1e-9


def test_hadamard_readout():
    c = Circuit(qubits=1, steps=(Step(gates=(Gate("h", (0,)),)),))
    state = apply_step_unitary(initial_state(1), c.steps[0], 1)
    d = readout_dist(state, 1)
    assert abs(d.prob("0") - 0.5) <= ATOL
    assert abs(d.prob("1") - 0.5) <= ATOL


def test_bell_state_readout():
    c = bell_circuit()
    state = apply_step_unitary(initial_state(2), c.steps[0], 2)
    d = readout_dist(state, 2)
    assert abs(d.prob("00") - 0.5) <= ATOL
    assert abs(d.prob("11") - 0.5) <= ATOL
    assert d.prob("01") == 0.0 and d.prob("10") == 0.0


def test_bit_order_is_most_significant_first():
    # X on qubit 0 of two qubits must flip the leading character.
    c = Circuit(qubits=2, steps=(Step(gates=(Gate("x", (0,)),)),))
    state = apply_step_unitary(initial_state(2), c.steps[0], 2)
    assert readout_dist(state, 2).prob("10") == 1.0


def test_measure_other_subsets_via_swap():
    # Put |1> on qubit 1, swap it to the front, measure one qubit.
    c = Circuit(qubits=2, steps=(
        Step(gates=(Gate("x", (1,)), Gate("swap", (0, 1))), measure=1),))
    tree = enumerate_branches(c)
    (node,) = tree.nodes_at(1)
    assert node.outcomes == ("1",)
    assert abs(node.prob - 1.0) <= ATOL


def test_non_unitary_rejected_at_load():
    bad = np.array([[1.0, 0.0], [0.0, 1.2]])
    with pytest.raises(StructureError):
        Circuit(qubits=1, steps=(Step(gates=(Gate("u1q", (0,), matrix=bad),)),))
    with pytest.raises(StructureError):
        Circuit(qubits=1, steps=(
            Step(gates=(Gate("prep", (), matrix=np.array([1.0, 1.0])),)),))


BAD_U1Q = Gate("u1q", (0,), matrix=np.array([[1.0, 0.0], [0.0, 0.0]]))
# a fault in step 1 and the message it gives
FAULTS = {
    "u1q": (BAD_U1Q, "step 1 u1q matrix is not unitary (defect 1)"),
    "target": (Gate("x", (5,)), "step 1: target 5 out of range"),
    "shape": (Gate("u1q", (0,), matrix=np.eye(3)),
              "step 1: u1q matrix must be 2x2"),
}


@pytest.mark.parametrize("first, second", [
    ("u1q", "target"), ("target", "u1q"), ("u1q", "shape"),
    ("shape", "u1q")])
@pytest.mark.parametrize("same_step", [False, True])
def test_the_first_fault_in_circuit_order_is_reported(first, second,
                                                      same_step):
    # the u1q matrices are checked in one stack, but a bad one still comes
    # before a fault in a later gate, and after a fault in an earlier one
    (a, message), (b, _) = FAULTS[first], FAULTS[second]
    ok = Gate("h", (0,))
    steps = ((Step(gates=(ok, a, b)),) if same_step else
             (Step(gates=(ok, a)), Step(gates=(b, ok))))
    with pytest.raises(StructureError) as info:
        Circuit(qubits=2, steps=steps)
    assert str(info.value) == message
    # a step that measures too many qubits is a fault of that step
    with pytest.raises(StructureError) as info:
        Circuit(qubits=2, steps=(Step(gates=(a,)), Step((), measure=3)))
    assert str(info.value) == message


def test_qubit_cap_enforced():
    with pytest.raises(InstanceTooLargeError):
        Circuit(qubits=13, steps=(Step(gates=()),))


def test_bell_branches_m1():
    tree = enumerate_branches(bell_circuit(measure_first_step=1))
    nodes = tree.nodes_at(1)
    assert sorted(n.outcomes[-1] for n in nodes) == ["0", "1"]
    for n in nodes:
        assert abs(n.prob - 0.5) <= ATOL
        # post state is |uu>, so the readout is a point mass on u+u
        u = n.outcomes[-1]
        assert abs(n.readout.prob(u + u) - 1.0) <= ATOL


def test_branch_children_sum_and_prefix():
    rng = np.random.default_rng(42)
    for _ in range(15):
        c = random_circuit(rng)
        tree = enumerate_branches(c)
        total = sum(leaf.prob for leaf in tree.leaves())
        assert abs(total - 1.0) <= 1e-9
        for t in range(1, c.depth + 1):
            for node in tree.nodes_at(t):
                kids = sum(ch.prob for ch in node.children)
                if t < c.depth:
                    assert abs(kids - node.prob) <= 1e-9
                # readout keys start with the step's collapsing outcome
                m = c.steps[t - 1].measure
                for k in node.readout.support:
                    assert k[:m] == node.outcomes[-1]


def test_branch_guard_env_override(monkeypatch):
    c = Circuit(qubits=4, steps=tuple(
        Step(gates=(Gate("h", (q,)),), measure=4) for q in range(3)))
    assert branch_count_bound(c) == 4096
    monkeypatch.setenv("NCMO_MAX_BRANCHES", "100")
    assert branch_guard() == 100
    with pytest.raises(InstanceTooLargeError):
        enumerate_branches(c)
    monkeypatch.setenv("NCMO_MAX_BRANCHES", "notanint")
    with pytest.raises(StructureError):
        branch_guard()


def test_tree_node_lookup():
    tree = enumerate_branches(bell_circuit(measure_first_step=1))
    node = tree.node(("0",))
    assert node.outcomes == ("0",)
    with pytest.raises(ImpossibleConditionError):
        tree.node(("0", "x"))


def test_run_prefix_agrees_with_tree():
    rng = np.random.default_rng(5)
    c = bell_circuit(measure_first_step=1, extra_steps=0)
    counts = {"0": 0, "1": 0}
    for _ in range(4000):
        tau, state = run_prefix(c, 1, rng)
        counts[tau[0]] += 1
        assert abs(readout_dist(state, 2).prob(tau[0] * 2) - 1.0) <= ATOL
    assert abs(counts["0"] / 4000 - 0.5) <= 0.05


def test_step_unitary_matches_gate_application():
    rng = np.random.default_rng(11)
    for _ in range(10):
        c = random_circuit(rng, max_qubits=3)
        n = c.qubits
        step = c.steps[0]
        mat = step_unitary(step, n)
        vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        vec = vec / np.linalg.norm(vec)
        direct = apply_step_unitary(vec.copy(), step, n)
        assert np.max(np.abs(mat @ vec - direct)) <= 1e-9


def test_prep_gate_and_completion():
    amps = np.sqrt(np.array([0.5, 0.25, 0.125, 0.125]))
    c = Circuit(qubits=2, steps=(Step(gates=(Gate("prep", (), matrix=amps),)),))
    got = apply_step_unitary(initial_state(2), c.steps[0], 2)
    assert np.max(np.abs(got - amps)) <= ATOL
    # prep refuses anything but the all-zeros state
    with pytest.raises(StructureError):
        apply_step_unitary(got, c.steps[0], 2)
    # and the dense completion has the same first column
    u = state_prep_unitary(amps.astype(complex))
    assert np.max(np.abs(u[:, 0] - amps)) <= 1e-9
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-9


def test_walk_zero_width_step():
    # a step that measures nothing yields the empty outcome and the evolved
    # state, and draws nothing
    c = Circuit(qubits=2, steps=(Step(gates=(Gate("h", (0,)),), measure=0),))
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    ((u, post),) = walk(c, rng)
    assert u == ""
    assert np.array_equal(
        post, apply_step_unitary(initial_state(2), c.steps[0], 2))
    assert rng.bit_generator.state == before


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = random_unitary_2x2(rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-9


def test_circuit_json_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(8):
        c = random_circuit(rng)
        blob = json.dumps(circuit_to_json(c))
        c2 = circuit_from_json(json.loads(blob))
        assert c2.qubits == c.qubits
        assert c2.measure_widths() == c.measure_widths()
        t1 = enumerate_branches(c)
        t2 = enumerate_branches(c2)
        for l1, l2 in zip(t1.leaves(), t2.leaves()):
            assert l1.outcomes == l2.outcomes
            assert abs(l1.prob - l2.prob) <= 1e-9
            assert sd(l1.readout, l2.readout) <= 1e-9


def test_circuit_json_rejects_malformed():
    with pytest.raises(ParseError):
        circuit_from_json({"steps": []})
    with pytest.raises(ParseError):
        circuit_from_json({"qubits": 1, "steps": []})
    with pytest.raises(ParseError):
        circuit_from_json({"qubits": 1, "steps": [{"gates": [{"targets": [0]}]}]})
    with pytest.raises(ParseError):
        circuit_from_json({"qubits": 1, "steps": [
            {"gates": [{"name": "u1q", "targets": [0],
                        "matrix": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]}],
             "measure": 0}]})
    for matrix in ([[]], [[], []]):
        with pytest.raises(ParseError, match="u1q matrix must be 2x2"):
            circuit_from_json({"qubits": 1, "steps": [{"gates": [
                {"name": "u1q", "targets": [0], "matrix": matrix}]}]})


def test_ghz_three_qubits():
    steps = (Step(gates=(Gate("h", (0,)), Gate("cnot", (0, 1)),
                         Gate("cnot", (1, 2))), measure=2),)
    tree = enumerate_branches(Circuit(qubits=3, steps=steps))
    nodes = tree.nodes_at(1)
    assert sorted(n.outcomes[-1] for n in nodes) == ["00", "11"]
    for n in nodes:
        assert abs(n.prob - 0.5) <= ATOL
        u = n.outcomes[-1]
        assert abs(n.readout.prob(u + u[0]) - 1.0) <= ATOL


# -- the one-qubit kernel against the moveaxis form it replaced ---------------------

def _apply_1q_moveaxis(states, mat, q, n):
    """The moveaxis one-qubit kernel, frozen as the bit-identity reference."""
    t = np.moveaxis(states.reshape((-1,) + (2,) * n), q + 1, 1)
    out = np.asarray(mat, dtype=complex) @ t.reshape(len(t), 2, 1 << (n - 1))
    return np.moveaxis(out.reshape(t.shape), 1, q + 1).reshape(states.shape)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("k", [1, 3])
def test_one_qubit_kernel_is_bit_identical_to_moveaxis(n, k):
    rng = np.random.default_rng([n, k])
    mats = dict(FIXED_1Q, u1q=random_unitary_2x2(rng))
    states = (rng.normal(size=(k, 1 << n))
              + 1j * rng.normal(size=(k, 1 << n)))
    for q in range(n):
        for name, mat in mats.items():
            for given in (states, states[0]):
                got = _apply_1q(given, mat, q, n)
                want = _apply_1q_moveaxis(given, mat, q, n)
                assert got.shape == want.shape == given.shape
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (n, k, q, name)


def test_unitarity_is_checked_once_per_circuit():
    # one stacked check in Circuit.__post_init__, no per-gate call, and no
    # moveaxis kernel alongside the transposed one
    moveaxis, calls = [], []

    def visit(node, module, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            where = where + (node.name,)
        if (isinstance(node, ast.Attribute) and node.attr == "moveaxis"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            moveaxis.append(module)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            if name == "_check_unitary":
                calls.append((module, ".".join(where)))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted(pathlib.Path(ncmlab.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())
    assert moveaxis == []
    assert calls == [("qsim", "Circuit.__post_init__")]
