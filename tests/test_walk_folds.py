"""The single-shot walk and the two tree folds against the loops they replaced.

``qsim.walk`` and ``qsim.readout_dist`` now carry every single-shot run, and
the code-valued tree folds of ``ncmo`` and ``puzzles`` every exact law. The
hand-written loops they replaced are kept below as test-local references;
the law references run on the frozen bit-string algebra of
``string_laws``. Under one seed the draws must be identical and leave the
generator in the same state; the laws must be equal atom for atom (``==``,
not within a tolerance).
"""

import math

import numpy as np
import pytest

from ncmlab.dist import FiniteDist
from ncmlab.errors import StructureError
from ncmlab.ncmo import (
    FinalOutput,
    FnMachine,
    NextQuery,
    PdqpInstanceFamily,
    oracle_exact,
    oracle_sample,
    q1_law,
    q2,
    q2_law,
    q_t,
    q_t_law,
)
from ncmlab.puzzles import (
    AuxInputPuzzleSampler,
    ConstantAdversary,
    InstancePuzzleSampler,
    ObliviousAdversary,
    PerfectAdversary,
    RejectionAdversary,
    StepAdversary,
    StepPuzzleAdversary,
    advantage,
    encode_aux_input,
    hybrid_b,
    hybrid_b_law,
    per_step_sd,
    step_pair_law,
)
from ncmlab.qsim import (
    Circuit,
    Gate,
    Step,
    apply_step_unitary,
    enumerate_branches,
    initial_state,
    outcome_probs,
    random_circuit,
    readout_dist,
    run_prefix,
)

from string_laws import StrDist, mixture, product, push_forward, readout, sd

ADVERSARIES = (PerfectAdversary(), ObliviousAdversary(), ConstantAdversary("0"))
DRAWS = 12


# -- the replaced loops ---------------------------------------------------------

def suffix_readout(node_readout, m):
    """The deleted ``ncmo.suffix_readout``: drop the first m bits."""
    return push_forward(node_readout, lambda s: s[m:])


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


def _ref_guess_law(adv, x, circuit, t, node):
    """adv.law, with the perfect guess built by the string algebra."""
    if isinstance(adv, PerfectAdversary):
        return suffix_readout(readout(node.state, circuit.qubits),
                              circuit.steps[t - 1].measure)
    return adv.law(x, circuit, t, node.outcomes)


def _ref_oracle_exact(circuit):
    tree = enumerate_branches(circuit)
    parts = []
    for leaf in tree.leaves():
        readouts = [readout(node.state, circuit.qubits)
                    for node in tree.path(leaf.outcomes)]
        parts.append((leaf.prob, product(readouts)))
    return mixture(parts)


def _ref_hybrid_b_law(k, x, circuit, adv):
    tree = enumerate_branches(circuit)
    parts = []
    for leaf in tree.leaves():
        dists = []
        for i, node in enumerate(tree.path(leaf.outcomes), start=1):
            if i <= k:
                dists.append(readout(node.state, circuit.qubits))
            else:
                u = node.outcomes[-1]
                guess = _ref_guess_law(adv, x, circuit, i, node)
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
            law = suffix_readout(readout(node.state, circuit.qubits), m)
        else:
            law = _ref_guess_law(adv, x, circuit, t, node)
        parts.append((node.prob, push_forward(law, lambda s, f=flat: f + s)))
    return mixture(parts)


def _ref_q1_law(circuit, tau):
    base = enumerate_branches(circuit).node(tuple(tau))
    out = {}

    def walk(node, acc):
        if node.depth == circuit.depth:
            out[acc] = out.get(acc, 0.0) + node.prob / base.prob
            return
        for ch in node.children:
            walk(ch, acc + ch.outcomes[-1])

    walk(base, "")
    return StrDist(out)


def _ref_q2_law(circuit, tau):
    nodes = enumerate_branches(circuit).path(tuple(tau))
    return product([suffix_readout(readout(node.state, circuit.qubits),
                                   circuit.steps[i].measure)
                    for i, node in enumerate(nodes)])


def _ref_joint_law(sampler):
    parts = []
    for x in sampler.instances.support:
        px = sampler.instances.prob(x)
        c = sampler.circuit(x)
        tree = enumerate_branches(c)
        for t in range(1, c.depth + 1):
            m = c.steps[t - 1].measure
            for node in tree.nodes_at(t):
                puzz = sampler.encode_puzz(x, t, node.outcomes)
                w_law = suffix_readout(readout(node.state, c.qubits), m)
                parts.append((
                    px * node.prob / c.depth,
                    push_forward(w_law,
                                 lambda s, p=puzz: p + sampler.pad_ans(s))))
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


def _family(circuits, weights=None):
    keys = [format(i, "02b") for i in range(len(circuits))]
    table = dict(zip(keys, circuits))

    def fn(x, eps, history):
        if not history:
            return NextQuery(table[x])
        return FinalOutput(history[0].reads[0])

    weights = weights or [1.0] * len(keys)
    law = FiniteDist({k: w / sum(weights) for k, w in zip(keys, weights)})
    return PdqpInstanceFamily(machine=FnMachine(fn, query_bound=1),
                              instance_laws={2: law})


def test_the_seeded_circuits_cover_the_corners():
    assert any(c.qubits == 1 for c in CIRCUITS)
    assert any(c.depth == 3 for c in CIRCUITS)
    assert any(s.measure == 0 for c in CIRCUITS for s in c.steps)
    assert any(s.measure == c.qubits for c in CIRCUITS for s in c.steps)


# -- draws ------------------------------------------------------------------------

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


@pytest.mark.parametrize("i", range(len(CIRCUITS)))
def test_partial_view_laws_equal_the_replaced_loops(i):
    c = CIRCUITS[i]
    tree = enumerate_branches(c)
    for t in range(c.depth + 1):
        for node in tree.nodes_at(t):
            _same_law(q1_law(c, node.outcomes), _ref_q1_law(c, node.outcomes))
            _same_law(q2_law(c, node.outcomes), _ref_q2_law(c, node.outcomes))


def test_puzzle_joint_laws_equal_the_replaced_loop():
    # instance weights that are not powers of two, so that the order of
    # px * Pr[node] / depth * Pr[read] shows in the last bit
    samplers = [InstancePuzzleSampler(_family(CIRCUITS[j:j + 4], [1, 2, 3, 4]),
                                      2)
                for j in range(0, len(CIRCUITS), 4)]
    samplers.append(AuxInputPuzzleSampler(_family(CIRCUITS[:4]),
                                          encode_aux_input("10", 0.25)))
    for samp in samplers:
        _same_law(samp.joint_law(), _ref_joint_law(samp))


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


# -- level laws -------------------------------------------------------------------

def _rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


# step 1 prunes its outcome 1 (weight 1e-14, under BRANCH_PRUNE_TOL), step 2
# leaves readout atoms of weight about 5e-17 (under READOUT_PRUNE_TOL), and
# step 3 measures every qubit, so its guesses are 0 bits wide
PRUNED = Circuit(qubits=2, steps=(
    Step(gates=(Gate("u1q", (0,), matrix=_rotation(1e-7)), Gate("h", (1,))),
         measure=1),
    Step(gates=(Gate("u1q", (0,), matrix=_rotation(1e-8)),), measure=0),
    Step(gates=(), measure=2),
))

LEVEL_ADVERSARIES = (PerfectAdversary(), RejectionAdversary(5),
                     ObliviousAdversary(), ConstantAdversary("0"),
                     ConstantAdversary("1"))


class _LeaningAdversary(StepAdversary):
    """A custom attacker that defines only ``law``: a guess leaning towards
    high codes, by a power that depends on the transcript."""

    def law(self, x, circuit, t, tau):
        w = circuit.qubits - circuit.steps[t - 1].measure
        power = 1 + int("".join(tau) or "0", 2) % 3
        lean = np.arange(1.0, (1 << w) + 1) ** power
        return FiniteDist.from_codes(w, np.arange(1 << w), lean / lean.sum())


class _WideAdversary(StepAdversary):
    """A custom attacker whose guesses are one bit wider than w_t."""

    def law(self, x, circuit, t, tau):
        return FiniteDist.uniform(
            circuit.qubits - circuit.steps[t - 1].measure + 1)


def test_the_pruned_circuit_prunes():
    levels = enumerate_branches(PRUNED).levels
    assert len(levels[1].nodes) == 1
    assert len(levels[2].reads()[0]) == 2
    assert [len(level.nodes) for level in levels] == [1, 1, 1, 2]


@pytest.mark.parametrize("adv", LEVEL_ADVERSARIES,
                         ids=lambda adv: getattr(adv, "bit", adv.kind))
def test_built_in_level_laws_concatenate_their_node_laws(adv):
    for c in CIRCUITS + [PRUNED]:
        levels = enumerate_branches(c).levels
        for t in range(1, c.depth + 1):
            laws = [adv.law("0", c, t, node.outcomes)
                    for node in levels[t].nodes]
            rows, codes, weights = adv.level_law("0", c, t)
            assert rows.tolist() == [j for j, law in enumerate(laws)
                                     for _ in range(len(law))]
            assert codes.tolist() == [code for law in laws
                                      for code in law.codes.tolist()]
            assert weights.tolist() == [p for law in laws
                                        for p in law.weights.tolist()]


def test_pruned_circuit_laws_equal_the_replaced_loops():
    c = PRUNED
    _same_law(oracle_exact(c), _ref_oracle_exact(c))
    for adv in LEVEL_ADVERSARIES + (_LeaningAdversary(),):
        for k in range(c.depth + 1):
            _same_law(hybrid_b_law(k, "0", c, adv),
                      _ref_hybrid_b_law(k, "0", c, adv))
        for t in range(1, c.depth + 1):
            _same_law(step_pair_law("0", c, t, adv),
                      _ref_step_pair_law("0", c, t, adv))


@pytest.mark.parametrize("i", range(len(CIRCUITS)))
def test_a_custom_adversary_folds_through_its_law(i):
    c, adv = CIRCUITS[i], _LeaningAdversary()
    for k in range(c.depth + 1):
        _same_law(hybrid_b_law(k, "0", c, adv),
                  _ref_hybrid_b_law(k, "0", c, adv))
    for t in range(1, c.depth + 1):
        _same_law(step_pair_law("0", c, t, adv),
                  _ref_step_pair_law("0", c, t, adv))


def test_a_custom_guess_of_the_wrong_width_raises():
    adv = _WideAdversary()
    for c in CIRCUITS:
        for t in range(1, c.depth + 1):
            w = c.qubits - c.steps[t - 1].measure
            wrong = f"step {t} guess law is {w + 1} bits wide"
            # B(t - 1) guesses from step t on
            with pytest.raises(StructureError, match=wrong):
                hybrid_b_law(t - 1, "0", c, adv)
            with pytest.raises(StructureError, match=wrong):
                step_pair_law("0", c, t, adv)
