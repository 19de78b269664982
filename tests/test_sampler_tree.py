"""The batched sampler on the cached branch tree.

With a tree built, ``oracle_read_codes`` takes each split's weights from
the level's ``cond`` rows and each child's block from the level, and
evolves nothing; without one, or from the step where a drawn outcome has
no node, it evolves as before. Either way the codes must be the same, to
the bit, as those of a circuit whose tree was never built.
"""

import json

import numpy as np
import pytest

import ncmlab.cli as cli
import ncmlab.ncmo as ncmo
import ncmlab.qsim as qsim
from ncmlab.dist import empirical_codes, sd
from ncmlab.errors import InstanceTooLargeError
from ncmlab.ncmo import MAX_EXACT_OUTPUT_BITS, oracle_exact, oracle_read_codes
from ncmlab.qsim import (
    BRANCH_PRUNE_TOL,
    Circuit,
    Gate,
    Step,
    cached_levels,
    circuit_to_json,
    enumerate_branches,
)
from test_ncmo import _dense, _reference_circuits, _reference_reads
from test_walk_folds import PRUNED, _rotation

WIDE = [(6, (5, 5), 1024), (7, (4, 5), 512), (8, (4, 4), 256),
        (8, (3, 5), 1024)]


def _wide(i):
    n, measures, shots = WIDE[i]
    return _dense(np.random.default_rng(n * 100 + shots), n, measures), shots


def _copy(c):
    """The same circuit as a new object, so with no tree cached."""
    return Circuit(qubits=c.qubits, steps=c.steps)


def _codes(c, shots, seed):
    return oracle_read_codes(c, shots, np.random.default_rng(seed))


@pytest.fixture
def evolves(monkeypatch):
    """Counts the sampler's calls of the step evolution."""
    calls = []
    evolve = ncmo.apply_step_unitary

    def counting(states, step, n):
        calls.append(len(states))
        return evolve(states, step, n)

    monkeypatch.setattr(ncmo, "apply_step_unitary", counting)
    return calls


def _cases():
    return ([(c, 700) for c in _reference_circuits()]
            + [_wide(i) for i in range(len(WIDE))] + [(PRUNED, 2000)])


@pytest.mark.parametrize("i", range(len(_cases())))
def test_tree_reads_equal_the_evolved_reads(i):
    c, shots = _cases()[i]
    c = _copy(c)
    assert cached_levels(c) is None
    fresh = _codes(c, shots, i)
    levels = enumerate_branches(c).levels
    assert cached_levels(c) is levels
    got = _codes(c, shots, i)
    assert got.tobytes() == fresh.tobytes()
    want = _reference_reads(c, shots, np.random.default_rng(i))
    assert got.tolist() == [[int(v, 2) for v in row] for row in want]


def _prunes_nothing_drawable(c):
    """No outcome of positive weight lacks its node."""
    return all(level.cond is None
               or not np.any((level.cond > 0.0)
                             & (level.cond <= BRANCH_PRUNE_TOL))
               for level in enumerate_branches(c).levels)


def test_a_tree_that_prunes_nothing_is_read_without_evolving(evolves):
    cases = [(_copy(c), shots) for c, shots in _cases()]
    cases = [(c, shots) for c, shots in cases if _prunes_nothing_drawable(c)]
    assert len(cases) > len(WIDE)
    for i, (c, shots) in enumerate(cases):
        want = _codes(_copy(c), shots, i)
        assert len(evolves) == c.depth   # one stack per step, with no tree
        evolves.clear()
        assert _codes(c, shots, i).tobytes() == want.tobytes()
        assert evolves == []


def _leaning(step):
    """Three qubits. At the given step (1 or 2), qubit step - 1 is rotated
    so that it reads 1 with weight sin^2(0.6) = 0.32, and is the last
    qubit that step measures; step 1 otherwise splits qubit 0 evenly, and
    step 3 mixes and measures every qubit."""
    lean = Gate("u1q", (step - 1,), matrix=_rotation(0.6))
    return Circuit(qubits=3, steps=(
        Step(gates=(lean if step == 1 else Gate("h", (0,)), Gate("h", (2,))),
             measure=1),
        Step(gates=((lean,) if step == 2 else ()) + (Gate("cnot", (0, 2)),),
             measure=2),
        Step(gates=(Gate("h", (2,)), Gate("cnot", (2, 1))), measure=3)))


@pytest.mark.parametrize("step", [1, 2])
def test_a_drawn_outcome_without_a_node_is_evolved(monkeypatch, evolves,
                                                  step):
    c = _leaning(step)
    # a tree built with a coarser prune keeps no node for the 0.32 outcomes
    with monkeypatch.context() as patch:
        patch.setattr(qsim, "BRANCH_PRUNE_TOL", 0.4)
        levels = enumerate_branches(c).levels
    lean = levels[step]
    assert np.sum(lean.cond > 0.3) == 2 * len(lean.taus)
    want = _codes(_copy(c), 2000, 5)
    evolves.clear()
    got = _codes(c, 2000, 5)
    assert got.tobytes() == want.tobytes()
    # the 0.32 outcomes were drawn; from that step on the sampler evolves
    assert np.any((got[:, step - 1] >> (3 - step)) & 1)
    assert len(evolves) == c.depth - step + 1
    ref = _reference_reads(c, 2000, np.random.default_rng(5))
    assert got.tolist() == [[int(v, 2) for v in row] for row in ref]


@pytest.mark.parametrize("guard", ["paths", "bytes"])
def test_a_circuit_over_a_guard_samples_by_evolving(monkeypatch, evolves,
                                                   guard):
    c, shots = _wide(0)
    built = _copy(c)
    enumerate_branches(built)
    if guard == "paths":
        monkeypatch.setenv("NCMO_MAX_BRANCHES", "64")
    else:
        monkeypatch.setattr(qsim, "MAX_TREE_BYTES",
                            qsim.tree_byte_bound(c) - 1)
    with pytest.raises(InstanceTooLargeError):
        enumerate_branches(c)
    assert cached_levels(c) is None
    evolves.clear()
    got = _codes(c, shots, 9)
    assert len(evolves) == c.depth
    assert got.tobytes() == _codes(built, shots, 9).tobytes()


# -- run-oracle --mode sample ----------------------------------------------------

def _sample_first_report(c, path, shots, seed):
    """The report of the order the command had before it built the tree
    first: sample on a circuit with no tree, then the exact law."""
    emp = empirical_codes(_codes(_copy(c), shots, seed), c.qubits)
    payload = {"qubits": c.qubits, "steps": c.depth,
               "empirical": emp.to_json()}
    checks = []
    try:
        exact = oracle_exact(_copy(c))
    except InstanceTooLargeError:
        payload["exact_comparison"] = False
    else:
        payload["exact_comparison"] = True
        checks.append(cli._chk(f"oracle/sampling-tv[{shots} shots]",
                               sd(emp.to_dist(), exact),
                               5.0 * (len(exact) / shots) ** 0.5))
    config = {"circuit": str(path), "mode": "sample", "seed": seed,
              "shots": shots}
    report = cli._report("run-oracle", config, checks, payload)
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_run_oracle_sample_reports_equal_the_sample_first_order(tmp_path):
    over = _dense(np.random.default_rng(3), 6, (1, 1, 1, 1))
    assert over.depth * over.qubits > MAX_EXACT_OUTPUT_BITS
    circuits = _reference_circuits(4) + [PRUNED, _wide(1)[0], over]
    for i, c in enumerate(circuits):
        path = tmp_path / f"c{i}.json"
        path.write_text(json.dumps(circuit_to_json(c)))
        out = tmp_path / f"r{i}.json"
        assert cli.main(["run-oracle", "--circuit", str(path), "--mode",
                         "sample", "--shots", "2000", "--seed", str(i),
                         "--out", str(out)]) == 0
        want = _sample_first_report(qsim.circuit_from_json(
            json.loads(path.read_text())), path, 2000, i)
        assert out.read_text(encoding="utf-8") == want
    assert '"exact_comparison": false' in want
