import cmath
import json
import math

import numpy as np
import pytest

import ncmlab.cli as cli
import ncmlab.ncmo as ncmo
import ncmlab.qsim as qsim
from ncmlab.dist import FiniteDist, condition, empirical, product, push_forward, sd
from ncmlab.errors import (
    ImpossibleConditionError,
    InstanceTooLargeError,
    ProtocolError,
    RetryBudgetExceededError,
    StructureError,
)
from ncmlab.ncmo import (
    BaseMachine,
    FinalOutput,
    FnMachine,
    NextQuery,
    OracleOutput,
    PdqpInstanceFamily,
    decision_as_sampling,
    exact_oracle_backend_law,
    oracle_backend,
    oracle_exact,
    oracle_read_codes,
    oracle_sample,
    oracle_sample_many,
    q1,
    q1_law,
    q2,
    q2_law,
    q_t,
    q_t_law,
    run_session,
    session_law,
)
from ncmlab.qsim import (
    BRANCH_PRUNE_TOL,
    FIXED_1Q,
    Circuit,
    Gate,
    Step,
    apply_step_unitary,
    bell_circuit,
    circuit_to_json,
    enumerate_branches,
    initial_state,
    outcome_probs,
    random_circuit,
    random_unitary_2x2,
    readout_dist,
    step_unitary,
)

ATOL = 1e-9


def test_bell_no_measure_two_reads():
    # Two unmeasured reads of a Bell state are independent: uniform over
    # {00,11} x {00,11}.
    law = oracle_exact(bell_circuit(measure_first_step=0, extra_steps=1))
    expect = {"0000": 0.25, "0011": 0.25, "1100": 0.25, "1111": 0.25}
    assert sd(law, FiniteDist(expect)) <= ATOL


def test_bell_collapsed_reads_are_pinned():
    # Measuring one qubit first forces both reads onto the same branch.
    law = oracle_exact(bell_circuit(measure_first_step=1, extra_steps=1))
    expect = {"0000": 0.5, "1111": 0.5}
    assert sd(law, FiniteDist(expect)) <= ATOL


def test_reads_extend_collapsing_outcomes():
    rng = np.random.default_rng(0)
    for _ in range(5):
        c = random_circuit(rng)
        for _ in range(20):
            output = oracle_sample(c, rng)
            assert len(output.reads) == c.depth
            for read in output.reads:
                assert len(read) == c.qubits


def test_conditional_independence_given_branch():
    # Given the first read (hence the branch), the second read's law is the
    # branch readout, independent of the first read's free bits.
    c = bell_circuit(measure_first_step=1, extra_steps=1)
    joint = oracle_exact(c)
    tree = enumerate_branches(c)
    for v1 in ("00", "11"):
        got = condition(joint, v1)
        node = tree.node((v1[:1], ""))
        assert sd(got, node.readout) <= ATOL


def test_oracle_exact_matches_direct_sampling():
    # Dual route: the closed-form law against per-shot direct simulation.
    rng = np.random.default_rng(123)
    c = random_circuit(rng, max_qubits=2, max_steps=2)
    law = oracle_exact(c)
    emp = empirical(
        [oracle_sample(c, rng).flat() for _ in range(20000)]).to_dist()
    assert sd(emp, law) <= 0.02


def test_oracle_sample_many_matches_exact():
    rng = np.random.default_rng(7)
    for _ in range(5):
        c = random_circuit(rng)
        law = oracle_exact(c)
        outs = oracle_sample_many(c, 20000, rng)
        emp = empirical([o.flat() for o in outs]).to_dist()
        assert sd(emp, law) <= 0.02


def test_oracle_statelessness():
    # Two separate calls with a shared generator stay independent: the
    # joint empirical law factors into the product of the marginals.
    rng = np.random.default_rng(21)
    c = bell_circuit(measure_first_step=1, extra_steps=0)
    pairs = [(oracle_sample(c, rng).flat(), oracle_sample(c, rng).flat())
             for _ in range(20000)]
    joint = empirical([a + b for a, b in pairs]).to_dist()
    left = empirical([a for a, _ in pairs]).to_dist()
    right = empirical([b for _, b in pairs]).to_dist()
    assert sd(joint, product([left, right])) <= 0.02


def test_exact_guard():
    c = Circuit(qubits=8, steps=tuple(
        Step(gates=(Gate("h", (0,)),), measure=0) for _ in range(3)))
    with pytest.raises(InstanceTooLargeError):
        oracle_exact(c)


def test_q_t_bell():
    rng = np.random.default_rng(3)
    c = bell_circuit(measure_first_step=1, extra_steps=0)
    for _ in range(20):
        tau, w = q_t(c, 1, rng)
        assert w == tau[0]  # the unmeasured qubit mirrors the measured one


def test_q_t_law_is_transcript_times_suffix():
    rng = np.random.default_rng(17)
    c = random_circuit(rng, max_qubits=3, max_steps=2)
    t = c.depth
    law = q_t_law(c, t)
    # independent route: histogram q_t samples
    emp = empirical(["".join(tau) + w for tau, w in
                     (q_t(c, t, rng) for _ in range(20000))]).to_dist()
    assert sd(emp, law) <= 0.02


def test_q1_q2_reconstruct_oracle_fiber():
    # Fix a transcript prefix tau_t. Conditioned on reads extending tau_t,
    # the oracle law factors into q2 (past suffixes) and the continuation
    # law assembled from q1 with per-branch readouts.
    c = bell_circuit(measure_first_step=1, extra_steps=1)
    tree = enumerate_branches(c)
    joint = oracle_exact(c)
    tau = ("1",)
    fiber = condition(joint, "1")  # v_1 starts with u_1 = 1
    # past part: w_1 given the branch; future part: readout of step 2
    w_law = q2_law(c, tau, tree)
    cont = q1_law(c, tau, tree)
    assert cont.prob("") == 1.0  # step 2 measures nothing
    node = tree.node(("1", ""))
    rebuilt = product([w_law, node.readout])
    assert sd(fiber, rebuilt) <= ATOL


def test_q1_exact_vs_rejection():
    rng = np.random.default_rng(11)
    c = Circuit(qubits=2, steps=(
        Step(gates=(Gate("h", (0,)), Gate("cnot", (0, 1))), measure=1),
        Step(gates=(Gate("h", (1,)),), measure=2),
    ))
    tau = ("0",)
    law = q1_law(c, tau)
    exact_draws = ["".join(q1(c, tau, rng)) for _ in range(4000)]
    reject_draws = ["".join(q1(c, tau, rng, policy="rejection"))
                    for _ in range(4000)]
    assert sd(empirical(exact_draws).to_dist(), law) <= 0.03
    assert sd(empirical(reject_draws).to_dist(), law) <= 0.03


def test_q2_exact_vs_rejection():
    rng = np.random.default_rng(13)
    # step 1 leaves qubit 1 in |+>, step 2 re-randomizes qubit 0; both
    # transcripts entries are uniform and both w readouts stay random
    c = Circuit(qubits=2, steps=(
        Step(gates=(Gate("h", (0,)), Gate("h", (1,))), measure=1),
        Step(gates=(Gate("h", (0,)),), measure=1),
    ))
    tau = ("0", "1")
    law = q2_law(c, tau)
    exact_draws = ["".join(q2(c, tau, rng)) for _ in range(4000)]
    reject_draws = ["".join(q2(c, tau, rng, policy="rejection"))
                    for _ in range(4000)]
    assert sd(empirical(exact_draws).to_dist(), law) <= 0.03
    assert sd(empirical(reject_draws).to_dist(), law) <= 0.03


def test_rejection_budget_exhausts():
    rng = np.random.default_rng(5)
    c = bell_circuit(measure_first_step=2, extra_steps=0)
    with pytest.raises(RetryBudgetExceededError):
        q1(c, ("01",), rng, policy="rejection", budget=50)


def test_impossible_transcript_exact():
    c = bell_circuit(measure_first_step=2, extra_steps=0)
    with pytest.raises(ImpossibleConditionError):
        q2_law(c, ("01",))  # Bell state never collapses to 01


def test_transcript_validation():
    c = bell_circuit(measure_first_step=1, extra_steps=0)
    with pytest.raises(StructureError):
        q2_law(c, ("11",))  # wrong width for a 1-qubit measurement
    with pytest.raises(StructureError):
        q1_law(c, ("1", "1"))  # longer than the circuit


# -- sessions -----------------------------------------------------------------

def _single_query_machine(circuit, pick):
    """Query once, output pick(reads)."""
    def step(x, eps, history):
        if not history:
            return NextQuery(circuit)
        return FinalOutput(pick(history[0]))
    return FnMachine(step, query_bound=1)


def test_run_session_and_exact_law_agree():
    rng = np.random.default_rng(19)
    c = bell_circuit(measure_first_step=1, extra_steps=0)
    machine = _single_query_machine(c, lambda o: o.reads[0])
    law = session_law(machine, "", 0.5, exact_oracle_backend_law)
    assert sd(law, FiniteDist({"00": 0.5, "11": 0.5})) <= ATOL
    draws = [run_session(machine, "", 0.5, oracle_backend, rng)
             for _ in range(4000)]
    assert sd(empirical(draws).to_dist(), law) <= 0.03


def test_two_query_adaptive_session_law():
    c1 = bell_circuit(measure_first_step=1, extra_steps=0)
    c2a = Circuit(qubits=2, steps=(Step(gates=(Gate("x", (0,)),), measure=2),))
    c2b = Circuit(qubits=2, steps=(Step(gates=(), measure=2),))

    def step(x, eps, history):
        if not history:
            return NextQuery(c1)
        if len(history) == 1:
            # adapt on the first read
            return NextQuery(c2a if history[0].reads[0][0] == "0" else c2b)
        return FinalOutput(history[1].reads[0])

    machine = FnMachine(step, query_bound=2)
    law = session_law(machine, "", 0.5, exact_oracle_backend_law)
    # branch 0 -> X|00> reads 10; branch 1 -> identity reads 00
    assert sd(law, FiniteDist({"10": 0.5, "00": 0.5})) <= ATOL


def test_query_bound_enforced():
    c = bell_circuit(measure_first_step=1, extra_steps=0)

    def step(x, eps, history):
        return NextQuery(c)  # never halts

    machine = FnMachine(step, query_bound=2)
    rng = np.random.default_rng(0)
    with pytest.raises(ProtocolError):
        run_session(machine, "", 0.5, oracle_backend, rng)
    with pytest.raises(ProtocolError):
        session_law(machine, "", 0.5, exact_oracle_backend_law)


def test_decision_as_sampling_wrap():
    c = bell_circuit(measure_first_step=1, extra_steps=0)
    decide = _single_query_machine(c, lambda o: o.reads[0][:1])
    fam = decision_as_sampling(decide, {1: FiniteDist({"0": 1.0})})
    wrapped = fam.output_law("0")
    plain = session_law(decide, "0", 0.5, exact_oracle_backend_law)
    assert sd(wrapped, plain) <= ATOL
    # a machine with a 2-bit answer is rejected at evaluation time
    wide = _single_query_machine(c, lambda o: o.reads[0])
    fam_bad = decision_as_sampling(wide)
    with pytest.raises(StructureError):
        fam_bad.output_law("0")


def test_family_reference_check():
    c = bell_circuit(measure_first_step=1, extra_steps=0)
    machine = _single_query_machine(c, lambda o: o.reads[0])
    fam = PdqpInstanceFamily(
        machine=machine,
        instance_laws={1: FiniteDist({"0": 1.0})},
        reference={"0": FiniteDist({"00": 0.5, "11": 0.5})})
    assert fam.check_reference("0", 0.25) <= ATOL
    assert fam.circuit_for("0") is c
    with pytest.raises(StructureError):
        fam.instance_law(2)


# -- batched sampling against the string walk ---------------------------------

def _project_first(amps, m, idx, n):
    """The per-state projection the step kernel replaced: the post state
    of outcome idx and its probability."""
    block = amps.reshape(1 << m, -1)
    p = float((np.abs(block[idx]) ** 2).sum())
    post = np.zeros_like(amps).reshape(1 << m, -1)
    post[idx] = block[idx] / math.sqrt(p)
    return post.reshape(-1), p


def _reference_reads(circuit, shots, rng):
    """The string walk that oracle_read_codes replaced, kept as the
    reference: one multinomial per collapse, then one readout_dist
    sample_many per group, rows of bit strings."""
    n = circuit.qubits
    out = [[] for _ in range(shots)]
    groups = [(initial_state(n), list(range(shots)))]
    for step in circuit.steps:
        next_groups = []
        for state, members in groups:
            evolved = apply_step_unitary(state, step, n)
            m = step.measure
            if m == 0:
                splits = [(evolved, members)]
            else:
                probs = np.clip(outcome_probs(evolved, m, n), 0.0, None)
                probs = probs / probs.sum()
                counts = rng.multinomial(len(members), probs)
                splits, start = [], 0
                for idx, cnt in enumerate(counts):
                    if cnt == 0:
                        continue
                    post, _ = _project_first(evolved, m, idx, n)
                    splits.append((post, members[start:start + cnt]))
                    start += cnt
            for post, sub in splits:
                reads = readout_dist(post, n).sample_many(rng, len(sub))
                for shot, v in zip(sub, reads):
                    out[shot].append(v)
                next_groups.append((post, sub))
        groups = next_groups
    return [tuple(row) for row in out]


def _reference_circuits(count=24):
    rng = np.random.default_rng(20261018)
    return [random_circuit(rng, max_qubits=4, max_steps=3)
            for _ in range(count)]


def test_batched_reads_equal_the_string_walk():
    circuits = _reference_circuits()
    # the seeded set covers the corners the walk treats specially
    assert any(c.qubits == 1 for c in circuits)
    assert any(c.depth == 3 for c in circuits)
    assert any(s.measure == 0 for c in circuits for s in c.steps)
    assert any(s.measure == c.qubits for c in circuits for s in c.steps)
    for i, c in enumerate(circuits):
        want = _reference_reads(c, 700, np.random.default_rng(i))
        got = oracle_sample_many(c, 700, np.random.default_rng(i))
        assert [o.reads for o in got] == want
        codes = oracle_read_codes(c, 700, np.random.default_rng(i))
        assert codes.dtype == np.int64 and codes.shape == (700, c.depth)
        assert codes.tolist() == [[int(v, 2) for v in row] for row in want]


def _assert_reads_are_the_reference(c, shots, seed):
    want = _reference_reads(c, shots, np.random.default_rng(seed))
    got = oracle_read_codes(c, shots, np.random.default_rng(seed))
    assert got.tolist() == [[int(v, 2) for v in row] for row in want]


def _dense(rng, n, measures):
    """Every qubit rotated, then a CNOT chain, in every step: readouts keep
    their full support, the wide branch trees of the benchmark."""
    return Circuit(qubits=n, steps=tuple(
        Step(gates=tuple(Gate("u1q", (q,), matrix=random_unitary_2x2(rng))
                         for q in range(n))
             + tuple(Gate("cnot", (q, q + 1)) for q in range(n - 1)),
             measure=m)
        for m in measures))


@pytest.mark.parametrize("n, measures, shots", [
    (6, (5, 5), 1024), (7, (4, 5), 512), (8, (4, 4), 256), (8, (3, 5), 1024)])
def test_wide_tree_reads_equal_the_string_walk(n, measures, shots):
    rng = np.random.default_rng(n * 100 + shots)
    c = _dense(rng, n, measures)
    _assert_reads_are_the_reference(c, shots, int(rng.integers(1 << 31)))


def _ragged_circuit(seed):
    """A 5-qubit prep vector whose four step-1 outcome blocks keep 8, 6, 4
    and 2 nonzero amplitudes, one in each scaled by 1e-8 so that its Born
    weight falls under READOUT_PRUNE_TOL; then a step that measures nothing
    after the split, and a step that mixes and measures again."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    blocks = amps.reshape(4, 8)
    for b in range(4):
        blocks[b, 8 - 2 * b:] = 0.0
        blocks[b, rng.integers(0, 8 - 2 * b)] *= 1e-8
    amps /= np.linalg.norm(amps)
    return Circuit(qubits=5, steps=(
        Step(gates=(Gate("prep", (), matrix=amps),), measure=2),
        Step(gates=(Gate("x", (4,)), Gate("s", (3,))), measure=0),
        Step(gates=(Gate("h", (2,)), Gate("cnot", (2, 4))), measure=3)))


@pytest.mark.parametrize("seed", range(4))
def test_ragged_reads_equal_the_string_walk(seed):
    c = _ragged_circuit(seed)
    # the step-1 children have four support sizes and pruned weights
    born = [np.abs(node.state) ** 2
            for node in enumerate_branches(c).level(1)[0]]
    assert len({int((w > qsim.READOUT_PRUNE_TOL).sum()) for w in born}) == 4
    assert any(((w > 0) & (w <= qsim.READOUT_PRUNE_TOL)).any() for w in born)
    _assert_reads_are_the_reference(c, 2000, seed)


def test_readout_cdfs_invert_like_choice():
    # one stack of rows with many support sizes, from 1 atom to 256, so
    # the grouped sums cover numpy's short, blocked and split pairwise sums
    rng = np.random.default_rng(11)
    width = 256
    states = rng.normal(size=(60, width)) + 1j * rng.normal(size=(60, width))
    for r, row in enumerate(states):
        row[rng.random(width) < r / 60] = 0.0
        row[rng.random(width) < 0.1] *= 1e-8
        row[rng.integers(width)] = 1.0
    cdf = ncmo._readout_cdfs(states)
    for r, row in enumerate(states):
        born = np.abs(row) ** 2
        support = np.flatnonzero(born > qsim.READOUT_PRUNE_TOL)
        w = born[support]
        # Generator.choice's own cdf, to the bit: draws alone rarely show
        # a last-bit difference
        p = w / w.sum()
        want_cdf = p.cumsum()
        want_cdf /= want_cdf[-1]
        assert np.array_equal(cdf[r][support], want_cdf)
        want = np.random.default_rng(r).choice(len(support), size=64, p=p)
        u = np.random.default_rng(r).random(64)
        assert np.array_equal(cdf[r].searchsorted(u, side="right"),
                              support[want])


@pytest.mark.parametrize("fill", [0.0, np.inf, np.nan],
                         ids=["no-atom", "inf", "nan"])
def test_reads_of_a_state_without_readout_mass_raise(monkeypatch, fill):
    c = bell_circuit(measure_first_step=1, extra_steps=0)

    def broken(states, m, rows, outcomes, cond):
        post = qsim.project(states, m, rows, outcomes, cond)
        post[0] = fill
        return post

    monkeypatch.setattr(ncmo, "project", broken)
    with pytest.raises(RuntimeError, match="no finite readout mass"):
        oracle_read_codes(c, 200, np.random.default_rng(3))


# -- the step kernel against the per-state recursion ------------------------------

def _evolve(amps, step, n):
    """The per-state gate arithmetic the stacked gates replaced (no prep)."""
    for g in step.gates:
        t = amps.reshape([2] * n).copy()
        if g.name in FIXED_1Q or g.name == "u1q":
            q = g.targets[0]
            mat = np.asarray(FIXED_1Q.get(g.name, g.matrix), dtype=complex)
            t = (mat @ np.moveaxis(t, q, 0).reshape(2, -1)).reshape([2] * n)
            t = np.moveaxis(t, 0, q)
        elif g.name == "swap":
            t = np.swapaxes(t, *g.targets)
        else:
            a, b = g.targets
            sel = [slice(None)] * n
            sel[a] = 1
            if g.name == "cnot":
                t[tuple(sel)] = np.flip(t[tuple(sel)], axis=b - (a < b))
            else:
                sel[b] = 1
                t[tuple(sel)] = t[tuple(sel)] * cmath.exp(1j * g.theta)
        amps = t.reshape(-1)
    return amps


def _expand(circuit, state, depth, prob, outcomes):
    """The recursive tree expansion the level loop replaced, one state per
    call: yields (outcomes, prob, state) for every node below, depth first."""
    if depth == circuit.depth:
        return
    n = circuit.qubits
    step = circuit.steps[depth]
    evolved = _evolve(state, step, n)
    m = step.measure
    if m == 0:
        path = outcomes + ("",)
        yield path, prob, evolved
        yield from _expand(circuit, evolved, depth + 1, prob, path)
        return
    cond = outcome_probs(evolved, m, n)
    for idx in range(1 << m):
        if cond[idx] <= BRANCH_PRUNE_TOL:
            continue
        post, p = _project_first(evolved, m, idx, n)
        path = outcomes + (format(idx, f"0{m}b"),)
        yield path, prob * p, post
        yield from _expand(circuit, post, depth + 1, prob * p, path)


def _preorder(node):
    for child in node.children:
        yield child
        yield from _preorder(child)


def _kernel_circuits():
    # a 2-qubit cphase multiplies one amplitude per state, where rounding
    # is easiest to move; the dense 7-qubit circuit has 8 then 128 nodes
    cphase = Circuit(qubits=2, steps=(
        Step(gates=(Gate("h", (0,)), Gate("h", (1,)),
                    Gate("cphase", (0, 1), theta=1.234), Gate("h", (0,))),
             measure=1),
        Step(gates=(Gate("cphase", (1, 0), theta=0.3), Gate("h", (1,))))))
    rng = np.random.default_rng(7)
    dense = Circuit(qubits=7, steps=tuple(
        Step(gates=tuple(Gate("u1q", (q,), matrix=random_unitary_2x2(rng))
                         for q in range(7))
             + tuple(Gate("cnot", (q, q + 1)) for q in range(6)), measure=m)
        for m in (3, 4)))
    return _reference_circuits() + [cphase, dense]


@pytest.mark.parametrize("i", range(len(_kernel_circuits())))
def test_level_tree_equals_the_recursive_expansion(i):
    c = _kernel_circuits()[i]
    want = list(_expand(c, initial_state(c.qubits), 0, 1.0, ()))
    got = list(_preorder(enumerate_branches(c).root))
    assert [node.outcomes for node in got] == [w[0] for w in want]
    assert [node.prob for node in got] == [w[1] for w in want]
    for node, (_, _, state) in zip(got, want):
        # by value: a stacked product may flip the sign of a zero amplitude
        assert np.array_equal(node.state, state)
        assert (list(node.readout.items())
                == list(readout_dist(state, c.qubits).items()))
    for step in c.steps:
        # the columns as one stack, against one column at a time
        cols = [_evolve(e, step, c.qubits)
                for e in np.eye(1 << c.qubits, dtype=complex)]
        assert np.array_equal(step_unitary(step, c.qubits),
                              np.stack(cols, axis=1))


def test_tree_build_makes_no_readout_law(monkeypatch):
    calls = []
    law_of = qsim.readout_dist
    monkeypatch.setattr(qsim, "readout_dist",
                        lambda amps, n: calls.append(n) or law_of(amps, n))
    tree = enumerate_branches(bell_circuit(measure_first_step=1,
                                           extra_steps=1))
    assert calls == []
    leaf = tree.leaves()[0]
    law = leaf.readout
    assert calls == [2] and leaf.readout is law
    assert list(law.items()) == list(readout_dist(leaf.state, 2).items())


def test_read_codes_shot_counts():
    c = bell_circuit(measure_first_step=1, extra_steps=1)
    assert oracle_read_codes(c, 0, np.random.default_rng(1)).shape == (0, 2)
    assert oracle_sample_many(c, 0, np.random.default_rng(1)) == []
    with pytest.raises(StructureError):
        oracle_read_codes(c, -1, np.random.default_rng(1))


def test_branch_invariant_raises_without_asserts(monkeypatch):
    # With collapse bypassed, reads stop extending their branch outcome; the
    # check must raise, not assert, so it survives python -O.
    c = bell_circuit(measure_first_step=1, extra_steps=0)

    def uncollapsed(states, m, rows, outcomes, cond):
        return states[np.asarray(rows)]

    monkeypatch.setattr(ncmo, "project", uncollapsed)
    with pytest.raises(RuntimeError):
        oracle_read_codes(c, 200, np.random.default_rng(3))
    # the single-shot walk keeps the state's width but widens the block
    # into the other outcome, so its reads begin with the wrong bit
    widen = qsim.widen

    def wrong_outcome(blocks, m, outcomes):
        return widen(blocks, m, np.asarray(outcomes) ^ 1)

    monkeypatch.setattr(qsim, "widen", wrong_outcome)
    rng = np.random.default_rng(3)
    with pytest.raises(RuntimeError, match="disagrees with its branch"):
        for _ in range(200):
            oracle_sample(c, rng)


def test_run_oracle_sample_report_matches_the_string_walk(tmp_path):
    for i, c in enumerate(_reference_circuits(8)):
        path = tmp_path / f"c{i}.json"
        path.write_text(json.dumps(circuit_to_json(c)))
        out = tmp_path / f"r{i}.json"
        argv = ["run-oracle", "--circuit", str(path), "--mode", "sample",
                "--shots", "3000", "--seed", str(i), "--out", str(out)]
        assert cli.main(argv) == 0
        reads = _reference_reads(c, 3000, np.random.default_rng(i))
        emp = empirical(["".join(r) for r in reads]).to_dist()
        exact = oracle_exact(c)
        check = cli._chk("oracle/sampling-tv[3000 shots]", sd(emp, exact),
                         5.0 * (len(exact) / 3000) ** 0.5)
        report = cli._report(
            "run-oracle",
            {"circuit": str(path), "mode": "sample", "seed": i,
             "shots": 3000},
            [check],
            {"qubits": c.qubits, "steps": c.depth,
             "empirical": emp.to_json(), "exact_comparison": True})
        want = json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert out.read_text(encoding="utf-8") == want
