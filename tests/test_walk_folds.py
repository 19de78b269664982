"""The single-shot walk and the two tree folds against the loops they replaced.

``qsim.walk`` and ``qsim.draw_readout`` now carry every single-shot run, and
``ncmo.path_fold`` and ``ncmo.level_fold`` every per-leaf and per-node law.
The hand-written loops they replaced are kept below as test-local
references. Under one seed the draws must be identical and leave the
generator in the same state; the laws must be equal atom for atom (``==``,
not within a tolerance).
"""

import math

import numpy as np
import pytest

from ncmlab.dist import FiniteDist, mixture, product, push_forward, sd
from ncmlab.ncmo import (
    FinalOutput,
    FnMachine,
    NextQuery,
    PdqpInstanceFamily,
    oracle_exact,
    oracle_sample,
    q2,
    q_t,
    q_t_law,
    suffix_readout,
)
from ncmlab.puzzles import (
    AuxInputPuzzleSampler,
    ConstantAdversary,
    InstancePuzzleSampler,
    ObliviousAdversary,
    PerfectAdversary,
    StepPuzzleAdversary,
    advantage,
    encode_aux_input,
    hybrid_b,
    hybrid_b_law,
    per_step_sd,
    step_pair_law,
)
from ncmlab.qsim import (
    apply_step_unitary,
    draw_readout,
    enumerate_branches,
    initial_state,
    outcome_probs,
    random_circuit,
    readout_dist,
    run_prefix,
)

ADVERSARIES = (PerfectAdversary(), ObliviousAdversary(), ConstantAdversary("0"))
DRAWS = 12


# -- the replaced loops ---------------------------------------------------------

def _measure_first(amps, m, n, rng):
    """The per-state collapse the step kernel replaced: draw the outcome of
    the first m qubits, return it with the post state and its weight."""
    if m == 0:
        return "", amps, 1.0
    probs = np.clip(outcome_probs(amps, m, n), 0.0, None)
    idx = int(rng.choice(1 << m, p=probs / probs.sum()))
    block = amps.reshape(1 << m, -1)
    p = float((np.abs(block[idx]) ** 2).sum())
    post = np.zeros_like(amps).reshape(1 << m, -1)
    post[idx] = block[idx] / math.sqrt(p)
    return format(idx, f"0{m}b"), post.reshape(-1), p


def _ref_run_prefix(circuit, t, rng):
    n = circuit.qubits
    state = initial_state(n)
    outcomes = ()
    for step in circuit.steps[:t]:
        state = apply_step_unitary(state, step, n)
        u, state, _ = _measure_first(state, step.measure, n, rng)
        outcomes = outcomes + (u,)
    return outcomes, state


def _ref_oracle_sample(circuit, rng):
    n = circuit.qubits
    state = initial_state(n)
    reads = []
    for step in circuit.steps:
        state = apply_step_unitary(state, step, n)
        u, state, _ = _measure_first(state, step.measure, n, rng)
        reads.append(readout_dist(state, n).sample(rng))
    return tuple(reads)


def _ref_hybrid_b(k, x, circuit, adv, rng):
    n = circuit.qubits
    state = initial_state(n)
    tau = ()
    reads = []
    for i, step in enumerate(circuit.steps, start=1):
        state = apply_step_unitary(state, step, n)
        u, state, _ = _measure_first(state, step.measure, n, rng)
        tau = tau + (u,)
        if i <= k:
            reads.append(readout_dist(state, n).sample(rng))
        else:
            reads.append(u + adv.guess(x, circuit, i, tau, rng))
    return tuple(reads)


def _ref_q_t(circuit, t, rng):
    tau, state = _ref_run_prefix(circuit, t, rng)
    v = readout_dist(state, circuit.qubits).sample(rng)
    return tau, v[circuit.steps[t - 1].measure:]


def _ref_q2(circuit, tau, rng):
    nodes = enumerate_branches(circuit).path(tuple(tau))
    return tuple(
        suffix_readout(node.readout, circuit.steps[i].measure).sample(rng)
        for i, node in enumerate(nodes))


def _ref_puzzle_sample(sampler, rng):
    x = sampler.instances.sample(rng)
    c = sampler.circuit(x)
    t = int(rng.integers(1, c.depth + 1))
    tau, state = _ref_run_prefix(c, t, rng)
    v = readout_dist(state, c.qubits).sample(rng)
    w = v[c.steps[t - 1].measure:]
    return sampler.encode_puzz(x, t, tau), sampler.pad_ans(w)


def _ref_oracle_exact(circuit):
    tree = enumerate_branches(circuit)
    parts = []
    for leaf in tree.leaves():
        readouts = [node.readout for node in tree.path(leaf.outcomes)]
        parts.append((leaf.prob, product(readouts)))
    return mixture(parts)


def _ref_hybrid_b_law(k, x, circuit, adv):
    tree = enumerate_branches(circuit)
    parts = []
    for leaf in tree.leaves():
        dists = []
        for i, node in enumerate(tree.path(leaf.outcomes), start=1):
            if i <= k:
                dists.append(node.readout)
            else:
                u = node.outcomes[-1]
                guess = adv.law(x, circuit, i, node.outcomes)
                dists.append(push_forward(guess, lambda s, u=u: u + s))
        parts.append((leaf.prob, product(dists)))
    return mixture(parts)


def _ref_step_pair_law(x, circuit, t, adv):
    """q_t_law when adv is None, step_pair_law otherwise."""
    m = circuit.steps[t - 1].measure
    parts = []
    for node in enumerate_branches(circuit).nodes_at(t):
        flat = "".join(node.outcomes)
        if adv is None:
            law = suffix_readout(node.readout, m)
        else:
            law = adv.law(x, circuit, t, node.outcomes)
        parts.append((node.prob, push_forward(law, lambda s, f=flat: f + s)))
    return mixture(parts)


def _ref_step_gaps(x, circuit, adv):
    return tuple(sd(_ref_step_pair_law(x, circuit, t, None),
                    _ref_step_pair_law(x, circuit, t, adv))
                 for t in range(1, circuit.depth + 1))


# -- helpers ----------------------------------------------------------------------

CIRCUITS = [random_circuit(np.random.default_rng([20261019, i]),
                           max_qubits=4, max_steps=3)
            for i in range(24)]


def _same_law(got, want):
    assert list(got.items()) == list(want.items())


def _same_stream(draw_new, draw_ref, seed):
    """DRAWS calls of each from one seed: equal draws, equal final state."""
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    assert ([draw_new(a) for _ in range(DRAWS)]
            == [draw_ref(b) for _ in range(DRAWS)])
    assert a.bit_generator.state == b.bit_generator.state


def _family(circuits):
    keys = [format(i, "02b") for i in range(len(circuits))]
    table = dict(zip(keys, circuits))

    def fn(x, eps, history):
        if not history:
            return NextQuery(table[x])
        return FinalOutput(history[0].reads[0])

    law = FiniteDist({k: 1.0 / len(keys) for k in keys})
    return PdqpInstanceFamily(machine=FnMachine(fn, query_bound=1),
                              instance_laws={2: law})


def test_the_seeded_circuits_cover_the_corners():
    assert any(c.qubits == 1 for c in CIRCUITS)
    assert any(c.depth == 3 for c in CIRCUITS)
    assert any(s.measure == 0 for c in CIRCUITS for s in c.steps)
    assert any(s.measure == c.qubits for c in CIRCUITS for s in c.steps)


# -- draws ------------------------------------------------------------------------

def test_draw_readout_is_the_readout_law_sample():
    for i, c in enumerate(CIRCUITS):
        for node in enumerate_branches(c).nodes_at(c.depth):
            _same_stream(lambda r: draw_readout(node.state, c.qubits, r),
                         lambda r: readout_dist(node.state, c.qubits).sample(r),
                         i)


@pytest.mark.parametrize("i", range(len(CIRCUITS)))
def test_single_shot_draws_equal_the_replaced_loops(i):
    c = CIRCUITS[i]
    _same_stream(lambda r: oracle_sample(c, r).reads,
                 lambda r: _ref_oracle_sample(c, r), i)
    for t in range(c.depth + 1):
        _same_stream(lambda r: run_prefix(c, t, r)[0],
                     lambda r: _ref_run_prefix(c, t, r)[0], i)
        a, b = np.random.default_rng(i), np.random.default_rng(i)
        assert np.array_equal(run_prefix(c, t, a)[1],
                              _ref_run_prefix(c, t, b)[1])
    for t in range(1, c.depth + 1):
        _same_stream(lambda r: q_t(c, t, r),
                     lambda r: _ref_q_t(c, t, r), i)
    for node in enumerate_branches(c).nodes_at(c.depth):
        _same_stream(lambda r: q2(c, node.outcomes, r),
                     lambda r: _ref_q2(c, node.outcomes, r), i)
    for adv in ADVERSARIES:
        for k in range(c.depth + 1):
            _same_stream(lambda r: hybrid_b(k, "0", c, adv, r).reads,
                         lambda r: _ref_hybrid_b(k, "0", c, adv, r), i)


def test_puzzle_draws_equal_the_replaced_loop():
    samplers = [InstancePuzzleSampler(_family(CIRCUITS[j:j + 4]), 2)
                for j in range(0, len(CIRCUITS), 4)]
    samplers.append(AuxInputPuzzleSampler(_family(CIRCUITS[:4]),
                                          encode_aux_input("10", 0.25)))
    for i, samp in enumerate(samplers):
        _same_stream(samp.sample, lambda r: _ref_puzzle_sample(samp, r), i)


# -- laws -------------------------------------------------------------------------

@pytest.mark.parametrize("i", range(len(CIRCUITS)))
def test_tree_laws_equal_the_replaced_loops(i):
    c = CIRCUITS[i]
    _same_law(oracle_exact(c), _ref_oracle_exact(c))
    for t in range(1, c.depth + 1):
        _same_law(q_t_law(c, t), _ref_step_pair_law("0", c, t, None))
    for adv in ADVERSARIES:
        laws = []
        for k in range(c.depth + 1):
            laws.append(_ref_hybrid_b_law(k, "0", c, adv))
            _same_law(hybrid_b_law(k, "0", c, adv), laws[-1])
        for t in range(1, c.depth + 1):
            _same_law(step_pair_law("0", c, t, adv),
                      _ref_step_pair_law("0", c, t, adv))
        report = per_step_sd("0", c, adv)
        assert report.hybrid_gaps == tuple(
            sd(laws[t - 1], laws[t]) for t in range(1, c.depth + 1))
        assert report.step_gaps == _ref_step_gaps("0", c, adv)
        assert report.endpoint_gap == sd(laws[0], laws[-1])


def test_per_step_terms_equal_the_replaced_loop():
    for j in range(0, len(CIRCUITS), 4):
        samp = InstancePuzzleSampler(_family(CIRCUITS[j:j + 4]), 2)
        for adv in ADVERSARIES:
            want = {(x, t): gap for x in samp.instances.support
                    for t, gap in enumerate(
                        _ref_step_gaps(x, samp.circuit(x), adv), start=1)}
            assert samp.per_step_terms(adv) == want
            report = advantage(samp, StepPuzzleAdversary(samp, adv))
            assert report.per_step == tuple(sorted(want.items()))
