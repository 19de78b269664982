"""The non-collapsing readout oracle and machines that query it.

A query is a circuit. The oracle runs it once: at each step it performs the
collapsing measurement of the first m_t qubits (outcome u_t, transcript
tau_t), and additionally reports one full-width readout v_t drawn from the
Born law of the post-measurement state. The joint law of (v_1, ..., v_T)
factors over the collapsing branch:

    Pr[v_1..v_T] = sum_tau Pr[tau] * prod_t Pr[v_t | state at tau_t]

so reads are conditionally independent given the branch, and v_t always
begins with u_t. ``oracle_exact`` materializes that law; ``oracle_sample``
draws from it by direct simulation (``qsim.walk`` for the collapses,
``qsim.draw_readout`` for each read); ``oracle_read_codes`` draws many calls
at once, one ``qsim`` kernel pass per step, and returns their readouts as
basis indices, which ``dist.empirical_codes`` counts without a string per shot
(``oracle_sample_many`` formats the same draws as bit strings). ``q_t``,
``q1`` and ``q2`` expose the partial views used by the puzzle
constructions.

Exact laws over the branch tree are built on integer codes (see ``dist``),
with transcripts and reads joined by shifts. ``path_fold`` sums, over the
leaves, Pr[leaf] times the product of one read law per step along the
leaf's path, extending each parent's codes level by level:
``oracle_exact`` and ``puzzles.hybrid_b_law`` use it. ``level_fold`` sums,
over the step-t nodes, Pr[node] times tau_t joined to one law per node:
``puzzles.step_pair_law`` uses it. ``q_t_law`` and
``puzzles.InstancePuzzleSampler.joint_law`` read a whole level's Born
weights from its stacked states in one pass.

Machines: a BaseMachine is a deterministic map from (instance, accuracy,
answers so far) to either the next query or a final output. Sessions against
a sampling backend give the output distribution; ``session_law`` computes it
exactly by nested enumeration when every backend law is available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dist import FiniteDist, check_bits, marginal, prefixed_mixture, product
from .errors import (
    InstanceTooLargeError,
    ProtocolError,
    RetryBudgetExceededError,
    StructureError,
)
from .qsim import (
    READOUT_PRUNE_TOL,
    BranchNode,
    BranchTree,
    Circuit,
    apply_step_unitary,
    draw_readout,
    enumerate_branches,
    initial_state,
    outcome_probs,
    project,
    run_prefix,
    walk,
)

MAX_EXACT_OUTPUT_BITS = 20
DEFAULT_RETRY_BUDGET = 10 ** 6

Transcript = tuple[str, ...]


@dataclass(frozen=True)
class OracleOutput:
    """The T full-width readouts of one oracle call."""

    reads: tuple[str, ...]

    def flat(self) -> str:
        return "".join(self.reads)


def oracle_sample(circuit: Circuit, rng: np.random.Generator) -> OracleOutput:
    """One oracle call by direct simulation.

    Samples the collapsing branch step by step and, after each collapse,
    draws an independent full-width readout of the current state.
    """
    reads = []
    for u, state in walk(circuit, rng):
        v = draw_readout(state, circuit.qubits, rng)
        if not v.startswith(u):
            raise RuntimeError("readout disagrees with its branch")
        reads.append(v)
    return OracleOutput(reads=tuple(reads))


def oracle_read_codes(circuit: Circuit, shots: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Batched oracle calls as basis indices, one simulation per branch prefix.

    Returns an int64 array of shape (shots, T) whose row i holds shot i's T
    full-width readouts as basis indices (qubit 0 is the high bit). Each
    step evolves every shot group as one stack, splits each group
    multinomially at the collapse and draws all of a split's readouts at
    once. The per-shot law is identical to ``oracle_sample``; only the
    bookkeeping is batched.
    """
    if shots < 0:
        raise StructureError(f"shots must be nonnegative, got {shots}")
    n = circuit.qubits
    reads = np.empty((shots, circuit.depth), dtype=np.int64)
    if shots == 0:
        return reads
    # group g: the state states[g] and the next sizes[g] rows of reads
    states, sizes = initial_state(n)[None], [shots]
    for t, step in enumerate(circuit.steps):
        m = step.measure
        evolved = apply_step_unitary(states, step, n)
        cond = outcome_probs(evolved, m, n)
        posts, outcomes, next_sizes, lo = [], [], [], 0
        for g, size in enumerate(sizes):
            idx, counts, post = [0], [size], evolved[g:g + 1]
            if m:
                probs = np.clip(cond[g], 0.0, None)
                counts = rng.multinomial(size, probs / probs.sum())
                idx = np.flatnonzero(counts)
                counts = counts[idx].tolist()
                post = project(evolved, m, np.full(len(idx), g), idx, cond)
            for state, cnt in zip(post, counts):
                born = np.abs(state) ** 2
                support = np.flatnonzero(born > READOUT_PRUNE_TOL)
                w = born[support]
                picks = rng.choice(len(support), size=cnt, p=w / w.sum())
                reads[lo:lo + cnt, t] = support[picks]
                lo += cnt
            posts.append(post)
            outcomes.extend(idx)
            next_sizes.extend(counts)
        states, sizes = np.concatenate(posts), next_sizes
        # every readout must extend its branch's collapsing outcome
        if m and not np.array_equal(reads[:, t] >> (n - m),
                                    np.repeat(outcomes, sizes)):
            raise RuntimeError(
                f"a step-{t + 1} readout disagrees with its branch")
    return reads


def oracle_sample_many(circuit: Circuit, shots: int,
                       rng: np.random.Generator) -> list[OracleOutput]:
    """``oracle_read_codes`` with each readout formatted as a bit string."""
    fmt = f"0{circuit.qubits}b"
    return [OracleOutput(reads=tuple(format(v, fmt) for v in row))
            for row in oracle_read_codes(circuit, shots, rng).tolist()]


def _guard_output_bits(circuit: Circuit, what: str):
    bits = circuit.depth * circuit.qubits
    if bits > MAX_EXACT_OUTPUT_BITS:
        raise InstanceTooLargeError(
            f"{what} would materialize 2^{bits} outputs; the cap is "
            f"T*n <= {MAX_EXACT_OUTPUT_BITS} bits. Use the factored views "
            f"(q_t, q1, q2) instead.")


def path_fold(circuit: Circuit,
              read_law: Callable[[int, BranchNode], FiniteDist]) -> FiniteDist:
    """Sum over leaves of Pr[leaf] * (read_law(1, node_1) x ... x
    read_law(T, node_T)), node_i being the leaf's step-i node.

    Each node extends its parent's (codes, weights) by its read law, one
    level at a time, so a shared path prefix is multiplied out once.
    """
    # (node, bits so far, codes, weights) per node of the current level
    level = [(enumerate_branches(circuit).root, 0,
              np.zeros(1, dtype=np.int64), np.ones(1))]
    for i in range(1, circuit.depth + 1):
        nxt = []
        for node, width, codes, weights in level:
            for child in node.children:
                law = read_law(i, child)
                nxt.append((child, width + law.length,
                            ((codes[:, None] << law.length)
                             | law.codes).ravel(),
                            (weights[:, None] * law.weights).ravel()))
        level = nxt
    widths = {width for _, width, _, _ in level}
    if len(widths) != 1:
        raise StructureError(f"read laws give paths of {sorted(widths)} bits")
    return FiniteDist.from_codes(
        widths.pop(), np.concatenate([codes for _, _, codes, _ in level]),
        np.concatenate([leaf.prob * w for leaf, _, _, w in level]))


def level_fold(circuit: Circuit, t: int,
               law_at: Callable[[BranchNode], FiniteDist]) -> FiniteDist:
    """Sum over step-t nodes of Pr[node] * (tau_t || law_at(node)), the
    transcript flattened."""
    nodes, taus = enumerate_branches(circuit).level(t)
    return prefixed_mixture(
        ((node.prob, tau, law_at(node))
         for node, tau in zip(nodes, taus.tolist())),
        sum(circuit.measure_widths()[:t]))


def oracle_exact(circuit: Circuit) -> FiniteDist:
    """Exact joint law of (v_1, ..., v_T), concatenated."""
    _guard_output_bits(circuit, "oracle_exact")
    return path_fold(circuit, lambda i, node: node.readout)


# -- partial views ------------------------------------------------------------

def _check_step_index(circuit: Circuit, t: int):
    if not 1 <= t <= circuit.depth:
        raise StructureError(f"step index {t} outside 1..{circuit.depth}")


def q_t(circuit: Circuit, t: int,
        rng: np.random.Generator) -> tuple[Transcript, str]:
    """Sample (tau_t, w_t): run t steps, read out, strip the u_t prefix."""
    _check_step_index(circuit, t)
    tau, state = run_prefix(circuit, t, rng)
    return tau, draw_readout(state, circuit.qubits, rng)[len(tau[-1]):]


def _level_reads(circuit: Circuit, t: int):
    """Every readout atom of the step-t nodes, read from their stacked
    states in one pass: (probs, taus, rows, suffixes, born), the nodes'
    probabilities and transcript codes in tree order, then per atom its
    node's row, the code of its last n - m_t bits (its first m_t are the
    node's u_t) and its Born weight above READOUT_PRUNE_TOL, as in
    ``qsim.readout_dist``."""
    nodes, taus = enumerate_branches(circuit).level(t)
    born = np.abs(np.stack([node.state for node in nodes])) ** 2
    rows, cols = np.nonzero(born > READOUT_PRUNE_TOL)
    w = circuit.qubits - circuit.steps[t - 1].measure
    return (np.array([node.prob for node in nodes]), taus, rows,
            cols & ((1 << w) - 1), born[rows, cols])


# q_t_law, q1_law and q2_law take an optional third argument that is not
# read, so callers that still pass the circuit's tree keep working; every
# law reads the circuit's one cached tree
def q_t_law(circuit: Circuit, t: int,
            tree: BranchTree | None = None) -> FiniteDist:
    """Exact law of tau_t || w_t, transcripts flattened."""
    _check_step_index(circuit, t)
    probs, taus, rows, suffixes, born = _level_reads(circuit, t)
    w = circuit.qubits - circuit.steps[t - 1].measure
    return FiniteDist.from_codes(sum(circuit.measure_widths()[:t]) + w,
                                 (taus[rows] << w) | suffixes,
                                 probs[rows] * born)


def _validate_transcript(circuit: Circuit, tau: Transcript):
    if len(tau) > circuit.depth:
        raise StructureError(
            f"transcript of length {len(tau)} for a depth-{circuit.depth} circuit")
    for i, u in enumerate(tau):
        check_bits(u)
        if len(u) != circuit.steps[i].measure:
            raise StructureError(
                f"transcript entry {i + 1} has width {len(u)}, step measures "
                f"{circuit.steps[i].measure}")


def q1_law(circuit: Circuit, tau: Transcript,
           tree: BranchTree | None = None) -> FiniteDist:
    """Exact law of the remaining collapsing outcomes u_{t+1}..u_T given tau."""
    _validate_transcript(circuit, tau)
    tree = enumerate_branches(circuit)
    base = tree.node(tuple(tau))
    leaves, codes = tree.level(circuit.depth)
    rest = sum(circuit.measure_widths()[len(tau):])
    # the leaves below tau are those whose transcript codes begin with it
    below = codes >> rest == int("".join(tau) or "0", 2)
    return FiniteDist.from_codes(
        rest, codes[below] & ((1 << rest) - 1),
        np.array([leaf.prob for leaf in leaves])[below] / base.prob)


def q2_law(circuit: Circuit, tau: Transcript,
           tree: BranchTree | None = None) -> FiniteDist:
    """Exact law of w_1..w_t given tau: independent readouts along the path."""
    _validate_transcript(circuit, tau)
    nodes = enumerate_branches(circuit).path(tuple(tau))
    return product([marginal(node.readout, range(step.measure, circuit.qubits))
                    for node, step in zip(nodes, circuit.steps)])


def _rejection_run(circuit: Circuit, tau: Transcript,
                   rng: np.random.Generator,
                   budget: int) -> tuple[Transcript, list[str]]:
    """Full oracle runs until the first len(tau) collapses match tau."""
    t = len(tau)
    for _ in range(budget):
        output = oracle_sample(circuit, rng)
        us = tuple(output.reads[i][:circuit.steps[i].measure]
                   for i in range(circuit.depth))
        if us[:t] == tuple(tau):
            return us, list(output.reads)
    raise RetryBudgetExceededError(
        f"no oracle run matched the transcript within {budget} attempts")


def q1(circuit: Circuit, tau: Transcript, rng: np.random.Generator,
       policy: str = "exact",
       budget: int = DEFAULT_RETRY_BUDGET) -> Transcript:
    """Sample the remaining collapsing outcomes given a transcript prefix.

    policy 'exact' draws from the branch-tree conditional; 'rejection'
    reruns the oracle until the prefix matches, which is the operational
    reading but can exhaust its budget.
    """
    _validate_transcript(circuit, tau)
    t = len(tau)
    if policy == "rejection":
        us, _ = _rejection_run(circuit, tau, rng, budget)
        return us[t:]
    if policy != "exact":
        raise StructureError(f"unknown policy {policy!r}")
    law = q1_law(circuit, tau)
    flat = law.sample(rng)
    widths = [s.measure for s in circuit.steps[t:]]
    outs, pos = [], 0
    for w in widths:
        outs.append(flat[pos:pos + w])
        pos += w
    return tuple(outs)


def q2(circuit: Circuit, tau: Transcript, rng: np.random.Generator,
       policy: str = "exact",
       budget: int = DEFAULT_RETRY_BUDGET) -> tuple[str, ...]:
    """Sample the non-collapsing suffixes w_1..w_t given a transcript."""
    _validate_transcript(circuit, tau)
    t = len(tau)
    if policy == "rejection":
        _, reads = _rejection_run(circuit, tau, rng, budget)
        return tuple(reads[i][circuit.steps[i].measure:] for i in range(t))
    if policy != "exact":
        raise StructureError(f"unknown policy {policy!r}")
    nodes = enumerate_branches(circuit).path(tuple(tau))
    return tuple(draw_readout(node.state, circuit.qubits, rng)[len(u):]
                 for node, u in zip(nodes, tau))


# -- machines and sessions ----------------------------------------------------

@dataclass(frozen=True)
class NextQuery:
    circuit: Circuit


@dataclass(frozen=True)
class FinalOutput:
    bits: str


class BaseMachine:
    """Deterministic machine with an oracle-query budget.

    Subclasses implement ``step(x, eps, history)`` where history is the
    tuple of OracleOutput answers so far, returning NextQuery or
    FinalOutput. Determinism is part of the contract: the same arguments
    must always produce the same result.
    """

    query_bound: int = 1

    def step(self, x: str, eps: float,
             history: tuple[OracleOutput, ...]) -> NextQuery | FinalOutput:
        raise NotImplementedError


class FnMachine(BaseMachine):
    """Adapter turning a plain function into a BaseMachine."""

    def __init__(self, fn: Callable, query_bound: int = 1):
        self._fn = fn
        self.query_bound = query_bound

    def step(self, x, eps, history):
        return self._fn(x, eps, history)


def oracle_backend(circuit: Circuit, rng: np.random.Generator) -> OracleOutput:
    return oracle_sample(circuit, rng)


def run_session(machine: BaseMachine, x: str, eps: float,
                backend: Callable[[Circuit, np.random.Generator], OracleOutput],
                rng: np.random.Generator) -> str:
    """Drive a machine against a sampling backend until it halts."""
    history: tuple[OracleOutput, ...] = ()
    queries = 0
    while True:
        move = machine.step(x, eps, history)
        if isinstance(move, FinalOutput):
            return check_bits(move.bits)
        if not isinstance(move, NextQuery):
            raise ProtocolError(f"machine returned {type(move).__name__}")
        queries += 1
        if queries > machine.query_bound:
            raise ProtocolError(
                f"machine exceeded its query bound of {machine.query_bound}")
        history = history + (backend(move.circuit, rng),)


def _split_reads(circuit: Circuit, flat: str) -> OracleOutput:
    n = circuit.qubits
    return OracleOutput(reads=tuple(
        flat[i * n:(i + 1) * n] for i in range(circuit.depth)))


def session_law(machine: BaseMachine, x: str, eps: float,
                backend_law: Callable[[Circuit, int], FiniteDist]) -> FiniteDist:
    """Exact output law of a session, enumerating every answer path.

    ``backend_law(circuit, k)`` is the exact answer law (flattened reads)
    for the k-th query, counted from 0, so hybrid backends can switch per
    query position.
    """
    out: dict[str, float] = {}

    def walk(history: tuple[OracleOutput, ...], weight: float, queries: int):
        move = machine.step(x, eps, history)
        if isinstance(move, FinalOutput):
            key = check_bits(move.bits)
            out[key] = out.get(key, 0.0) + weight
            return
        if not isinstance(move, NextQuery):
            raise ProtocolError(f"machine returned {type(move).__name__}")
        if queries + 1 > machine.query_bound:
            raise ProtocolError(
                f"machine exceeded its query bound of {machine.query_bound}")
        law = backend_law(move.circuit, queries)
        for flat, p in law.items():
            walk(history + (_split_reads(move.circuit, flat),),
                 weight * p, queries + 1)

    walk((), 1.0, 0)
    return FiniteDist(out)


def exact_oracle_backend_law(circuit: Circuit, k: int = 0) -> FiniteDist:
    return oracle_exact(circuit)


@dataclass(frozen=True)
class PdqpInstanceFamily:
    """A machine together with its instance ensemble.

    ``instance_laws`` maps a security parameter to the exact law of the
    instance generator. ``reference`` optionally pins the target
    distribution per instance for accuracy audits.
    """

    machine: BaseMachine
    instance_laws: dict[int, FiniteDist] = field(default_factory=dict)
    reference: dict[str, FiniteDist] = field(default_factory=dict)

    def instance_law(self, lam: int) -> FiniteDist:
        if lam not in self.instance_laws:
            raise StructureError(f"no instance law for parameter {lam}")
        return self.instance_laws[lam]

    def circuit_for(self, x: str, eps: float = 0.5) -> Circuit:
        move = self.machine.step(x, eps, ())
        if not isinstance(move, NextQuery):
            raise StructureError(
                "machine halts without querying; the instance has no circuit")
        return move.circuit

    def output_law(self, x: str, eps: float = 0.5,
                   backend_law=None) -> FiniteDist:
        if backend_law is None:
            backend_law = exact_oracle_backend_law
        return session_law(self.machine, x, eps, backend_law)

    def check_reference(self, x: str, eps: float) -> float:
        from .dist import sd as _sd
        if x not in self.reference:
            raise StructureError(f"no reference law for instance {x!r}")
        return _sd(self.output_law(x, eps), self.reference[x])


class _OneBitWrapped(BaseMachine):
    def __init__(self, inner: BaseMachine):
        self._inner = inner
        self.query_bound = inner.query_bound

    def step(self, x, eps, history):
        move = self._inner.step(x, eps, history)
        if isinstance(move, FinalOutput) and len(move.bits) != 1:
            raise StructureError(
                f"decision machine produced {len(move.bits)} output bits, "
                f"expected exactly 1")
        return move


def decision_as_sampling(machine: BaseMachine,
                         instance_laws: dict[int, FiniteDist] | None = None,
                         ) -> PdqpInstanceFamily:
    """View a one-bit decision machine as a sampling family.

    The wrapped machine's output law is untouched; outputs longer than one
    bit raise at evaluation time.
    """
    return PdqpInstanceFamily(machine=_OneBitWrapped(machine),
                              instance_laws=instance_laws or {})
