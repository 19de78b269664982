"""The branch tree as its levels: blocks, node views and the byte guard.

A level stores each post state as its block, the 2^(n - m_d) amplitudes
inside its outcome u_d. Reads of a block must equal the reads of its
widened full-width row bit for bit, and the node views must equal the nodes
of the full-width level build they replaced, which is kept below as a
test-local reference.
"""

import json

import numpy as np
import pytest

import ncmlab.cli as cli
import ncmlab.qsim as qsim
from ncmlab.errors import ImpossibleConditionError, InstanceTooLargeError
from ncmlab.qsim import (
    BRANCH_PRUNE_TOL,
    READOUT_PRUNE_TOL,
    Circuit,
    Gate,
    Step,
    apply_step_unitary,
    bell_circuit,
    branch_count_bound,
    circuit_to_json,
    enumerate_branches,
    initial_state,
    outcome_probs,
    tree_byte_bound,
    widen,
)
from test_ncmo import _kernel_circuits
from test_walk_folds import PRUNED

CIRCUITS = _kernel_circuits() + [PRUNED]


def _full_width_levels(circuit):
    """The level build the blocks replaced: every post state stored at full
    width, every path as a tuple of bit strings. Yields, per step, the
    level's (paths, probs, states)."""
    n = circuit.qubits
    paths, probs, states = [()], np.ones(1), initial_state(n)[None]
    for step in circuit.steps:
        states = apply_step_unitary(states, step, n)
        m = step.measure
        if m:
            cond = outcome_probs(states, m, n)
            rows, outs = np.nonzero(cond > BRANCH_PRUNE_TOL)
            p = cond[rows, outs]
            blocks = states.reshape(len(states), 1 << m, -1)
            post = np.zeros((len(rows),) + blocks.shape[1:], dtype=complex)
            post[np.arange(len(rows)), outs] = (blocks[rows, outs]
                                                / np.sqrt(p)[:, None])
            states = post.reshape(len(rows), -1)
            probs = probs[rows] * p
            paths = [paths[r] + (format(o, f"0{m}b"),)
                     for r, o in zip(rows.tolist(), outs.tolist())]
        else:
            paths = [path + ("",) for path in paths]
        yield paths, probs, states


def _full_width_reads(level):
    born = np.abs(widen(level.blocks, level.measure,
                        level.taus & ((1 << level.measure) - 1))) ** 2
    rows, codes = np.nonzero(born > READOUT_PRUNE_TOL)
    return rows, codes, born[rows, codes]


# -- block reads ---------------------------------------------------------------

@pytest.mark.parametrize("i", range(len(CIRCUITS)))
def test_block_reads_equal_the_widened_rows(i):
    c = CIRCUITS[i]
    for t, level in enumerate(enumerate_branches(c).levels):
        assert level.blocks.shape == (len(level.taus),
                                      1 << (c.qubits - level.measure))
        got, want = level.reads(), _full_width_reads(level)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2].view(np.int64), want[2].view(np.int64))


# -- node views ---------------------------------------------------------------

@pytest.mark.parametrize("i", range(len(CIRCUITS)))
def test_views_equal_the_full_width_nodes(i):
    c = CIRCUITS[i]
    tree = enumerate_branches(c)
    for t, (paths, probs, states) in enumerate(_full_width_levels(c), 1):
        nodes = tree.nodes_at(t)
        assert [node.outcomes for node in nodes] == paths
        assert [node.prob for node in nodes] == probs.tolist()
        for node, state in zip(nodes, states):
            assert node.depth == t
            assert node.state.tobytes() == state.tobytes()
        for node in nodes:
            assert tree.node(node.outcomes).state.tobytes() == \
                node.state.tobytes()
            assert [p.outcomes for p in tree.path(node.outcomes)] == \
                [node.outcomes[:d] for d in range(1, t + 1)]


@pytest.mark.parametrize("tau", [
    ("1",),            # pruned: outcome 1 of step 1 weighs 1e-14
    ("0", "", "11", ""),   # longer than the depth
    ("00",),           # too wide
    ("",),             # too narrow
    ("0", "0"),        # step 2 measures nothing
    ("x",),
    (" 1",),
    ("0", "", "1_"),
    (0,),              # not a string
])
def test_path_off_the_tree_raises(tau):
    tree = enumerate_branches(PRUNED)
    with pytest.raises(ImpossibleConditionError):
        tree.path(tau)


def test_path_to_an_absent_outcome_raises():
    # the Bell pair never reads 01 or 10
    c = Circuit(qubits=2, steps=(
        Step(gates=(Gate("h", (0,)), Gate("cnot", (0, 1))), measure=2),))
    tree = enumerate_branches(c)
    assert [node.outcomes for node in tree.leaves()] == [("00",), ("11",)]
    for u in ("01", "10"):
        with pytest.raises(ImpossibleConditionError):
            tree.node((u,))


def test_children_are_the_next_level_rows_of_their_parent():
    for c in CIRCUITS:
        tree = enumerate_branches(c)
        for t in range(c.depth):
            below = tree.levels[t + 1]
            kids = [child.row for node in tree.nodes_at(t)
                    for child in node.children]
            assert kids == list(range(len(below.taus)))
            assert [below.parent[r] for r in kids] == sorted(below.parent)
        assert all(leaf.children == () for leaf in tree.leaves())


def test_the_build_makes_no_node_view(monkeypatch):
    made = []
    view = qsim.BranchNode

    def counting(level, row):
        made.append(row)
        return view(level, row)

    monkeypatch.setattr(qsim, "BranchNode", counting)
    c = _kernel_circuits()[-1]   # 8, then 128 nodes
    tree = enumerate_branches(c)
    assert made == [0]           # the cached root
    assert len(tree.leaves()) == 128


# -- the byte guard -----------------------------------------------------------

def _eight_eight_zero():
    return Circuit(qubits=12, steps=(
        Step(gates=tuple(Gate("h", (q,)) for q in range(12)), measure=8),
        Step(gates=tuple(Gate("h", (q,)) for q in range(12)), measure=8),
        Step(gates=(), measure=0)))


def test_byte_bound_of_the_8_8_0_circuit_exceeds_the_cap(monkeypatch):
    c = _eight_eight_zero()
    assert branch_count_bound(c) == 1 << 16   # within the path guard
    # step 3 widens 65,536 paths to 4,096 amplitudes; the stored blocks are
    # the root, 256 and 65,536 of 16 amplitudes, then 65,536 of 4,096; the
    # cond rows are 1 x 256, then 256 x 256 weights
    widest = (1 << 16) << 12
    stored = (1 << 12) + (256 << 4) + ((1 << 16) << 4) + ((1 << 16) << 12)
    weights = 256 + (1 << 16)
    assert tree_byte_bound(c) == 16 * (widest + stored) + 8 * weights
    assert tree_byte_bound(c) > qsim.MAX_TREE_BYTES

    def no_build(circuit):
        raise AssertionError("the guard let the build start")

    # the guard must refuse before building; never allocate to test it
    monkeypatch.setattr(qsim, "_build_tree", no_build)
    with pytest.raises(InstanceTooLargeError, match="bytes"):
        enumerate_branches(c)


def test_byte_cap_is_checked_on_every_call(monkeypatch):
    c = bell_circuit(1, 1)
    # widest: 2 paths x 4 amplitudes; stored: 4 + 2 x 2 + 2 x 4; cond: 1 x 2
    assert tree_byte_bound(c) == 16 * 24 + 16
    tree = enumerate_branches(c)
    monkeypatch.setattr(qsim, "MAX_TREE_BYTES", 16 * 24 + 16)
    assert enumerate_branches(c).root is tree.root
    monkeypatch.setattr(qsim, "MAX_TREE_BYTES", 16 * 24 + 16 - 1)
    with pytest.raises(InstanceTooLargeError, match="over the cap of 399"):
        enumerate_branches(c)


def test_byte_cap_exits_4(monkeypatch, tmp_path):
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(circuit_to_json(bell_circuit(1, 1))))
    monkeypatch.setattr(qsim, "MAX_TREE_BYTES", 100)
    assert cli.main(["run-oracle", "--circuit", str(path),
                     "--out", str(tmp_path / "report.json")]) == 4
