"""The path folds run in code order.

``ncmo._fold_level`` extends each path prefix by its node's children, so a
fold's entries stay in ascending code order and ``FiniteDist.from_codes``
finds nothing to sort. The node-major folds it replaced are kept in
``node_major_folds``; every law and every pass must equal them byte for
byte, also where a parent's children were all pruned.
"""

import math

import numpy as np
import pytest

import ncmlab.ncmo as ncmo
import ncmlab.puzzles as puzzles
import ncmlab.qsim as qsim
from ncmlab.ncmo import oracle_exact
from ncmlab.puzzles import hybrid_b_law, hybrid_laws
from ncmlab.qsim import Circuit, Gate, Step, enumerate_branches, random_circuit

import node_major_folds as ref
from test_hybrid_pass import ADVERSARIES, DENSE, _bits_equal
from test_walk_folds import CIRCUITS, PRUNED

RANDOM = [c for c in (random_circuit(np.random.default_rng([20261021, i]),
                                     max_qubits=4, max_steps=4)
                      for i in range(40))
          if c.depth * c.qubits <= ncmo.MAX_EXACT_OUTPUT_BITS]

ADV_IDS = [getattr(adv, "bit", adv.kind) for adv in ADVERSARIES]


def _same_as_node_major(c, adv):
    _bits_equal(oracle_exact(c), ref.oracle_exact(c))
    laws = hybrid_laws("0", c, adv)
    for k, (law, want) in enumerate(zip(laws, ref.hybrid_laws("0", c, adv),
                                        strict=True)):
        _bits_equal(law, want)
        _bits_equal(hybrid_b_law(k, "0", c, adv),
                    ref.hybrid_b_law(k, "0", c, adv))


@pytest.mark.parametrize("adv", ADVERSARIES, ids=ADV_IDS)
def test_code_order_folds_equal_the_node_major_folds(adv):
    assert any(c.depth == 4 for c in RANDOM)
    for c in CIRCUITS + DENSE + [PRUNED] + RANDOM:
        _same_as_node_major(c, adv)


def test_every_fold_comes_out_in_code_order(monkeypatch):
    folds = []
    fold_level = ncmo._fold_level

    def recording(*args):
        folds.append(fold_level(*args))
        return folds[-1]

    monkeypatch.setattr(ncmo, "_fold_level", recording)
    monkeypatch.setattr(puzzles, "_fold_level", recording)
    for c in CIRCUITS + DENSE + [PRUNED]:
        for adv in ADVERSARIES:
            hybrid_laws("0", c, adv)
            hybrid_b_law(0, "0", c, adv)
        oracle_exact(c)
    assert len(folds) > 1000
    for codes, _, _ in folds:
        # strictly ascending, so from_codes neither sorts nor merges
        assert (codes[1:] > codes[:-1]).all()


def _rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


def _childless():
    """Four step-1 nodes, 0.25 each; at step 2 a node with u_1 ending in 1
    spreads qubits 2..4 evenly (a controlled rotation each), so its eight
    outcomes of 0.125 fall under a prune tolerance of 0.2, and rows 1 and
    3, the last, keep no child. A fresh circuit per call: the tree cache
    must not keep a build from another tolerance."""
    spread = []
    for q in (2, 3, 4):
        spread += [Gate("u1q", (q,), matrix=_rotation(-math.pi / 8)),
                   Gate("cnot", (1, q)),
                   Gate("u1q", (q,), matrix=_rotation(math.pi / 8)),
                   Gate("cnot", (1, q))]
    return Circuit(qubits=5, steps=(
        Step(gates=(Gate("h", (0,)), Gate("h", (1,))), measure=2),
        Step(gates=tuple(spread), measure=5)))


@pytest.mark.parametrize("adv", ADVERSARIES, ids=ADV_IDS)
def test_parents_whose_children_were_all_pruned(monkeypatch, adv):
    monkeypatch.setattr(qsim, "BRANCH_PRUNE_TOL", 0.2)
    c = _childless()
    levels = enumerate_branches(c).levels
    assert len(levels[1].taus) == 4
    assert levels[2].parent.tolist() == [0, 2]
    _same_as_node_major(c, adv)
