"""The non-collapsing readout oracle and machines that query it.

A query is a circuit. The oracle runs it once: at each step it performs the
collapsing measurement of the first m_t qubits (outcome u_t, transcript
tau_t), and additionally reports one full-width readout v_t drawn from the
Born law of the post-measurement state. The joint law of (v_1, ..., v_T)
factors over the collapsing branch:

    Pr[v_1..v_T] = sum_tau Pr[tau] * prod_t Pr[v_t | state at tau_t]

so reads are conditionally independent given the branch, and v_t always
begins with u_t. ``oracle_exact`` materializes that law; ``oracle_sample``
draws from it by direct simulation (``qsim.walk`` for the collapses, one
``qsim.readout_dist(...).sample`` for each read); ``oracle_read_codes`` draws
many calls at once, one ``qsim`` kernel pass per step, and returns their
readouts as basis indices, which ``dist.empirical_codes`` counts without a
string per shot (``oracle_sample_many`` formats the same draws as bit
strings). Every read, drawn or exact, takes its weights from
``qsim.born_weights``. The batched draw order, per shot group and step:
one ``multinomial`` for the collapse, then one ``rng.random(size)`` for all
of the group's reads, each child's share inverted through that child's
readout cdf the way ``Generator.choice`` does it; that is the stream of one
``choice`` call per child, so seeded reads are unchanged. When the
circuit's branch tree is already built (``qsim.cached_levels``), the shot
groups walk it: each split draws from the level's ``cond`` row and each
child's block is the level's, so no state is evolved again. Without a
built tree (sample-only callers, circuits over a guard), or from the step
where a drawn outcome has no node because the tree pruned it, the groups
evolve their parents' blocks with the ``qsim`` kernel instead; the values,
and so the draws, are the same either way.
``q_t``, ``q1`` and ``q2`` expose the partial views used by the puzzle
constructions.

Exact laws over the branch tree are built on integer codes (see ``dist``),
with transcripts and reads joined by shifts, and folded on the tree's level
arrays (``qsim.Level``), with no law object per node. ``path_fold`` sums,
over the leaves, Pr[leaf] times the product of one read law per step along
the leaf's path; it takes each step's read laws as one ragged law over the
level's nodes and extends every parent's codes in one gather per level:
``oracle_exact`` and ``puzzles.hybrid_b_law`` use it, and
``puzzles.hybrid_laws`` runs the same per-level step (``_fold_level``) to
share each genuine prefix among B(k)..B(T). ``q_t_law``,
``puzzles.step_pair_law`` and ``puzzles.InstancePuzzleSampler.joint_law``
join each step-t node's tau_t to a ragged suffix law over the level in one
pass; the Born weights come from the level's blocks (``Level.reads``),
the guesses from ``StepAdversary.level_law``, which for a custom adversary
calls its per-node ``law``.

Machines: a BaseMachine is a deterministic map from (instance, accuracy,
answers so far) to either the next query or a final output. Sessions against
a sampling backend give the output distribution; ``session_law`` computes it
exactly by nested enumeration when every backend law is available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dist import (FiniteDist, check_bits, product, ragged_arange,
                   ragged_blocks, sd)
from .errors import (
    InstanceTooLargeError,
    ProtocolError,
    RetryBudgetExceededError,
    StructureError,
)
from .qsim import (
    BranchTree,
    Circuit,
    Level,
    apply_step_unitary,
    born_weights,
    cached_levels,
    check_bytes,
    enumerate_branches,
    initial_state,
    outcome_probs,
    project,
    readout_dist,
    run_prefix,
    walk,
    widen,
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
        v = readout_dist(state, circuit.qubits).sample(rng)
        if not v.startswith(u):
            raise RuntimeError("readout disagrees with its branch")
        reads.append(v)
    return OracleOutput(reads=tuple(reads))


def _readout_cdfs(states: np.ndarray) -> np.ndarray:
    """Per stacked state or block, the cdf ``Generator.choice`` builds from
    its Born atoms (``qsim.born_weights``), spread over the row's width.

    As in ``choice(len(w), p=w / w.sum())``: w is summed as a 1-D array,
    p = w / sum, cdf = p.cumsum(), cdf /= cdf[-1]. A pruned entry is 0,
    so it repeats the partial sum before it, and a right search of a
    uniform in row r lands on the basis index ``choice`` picks from r's
    atoms. A state with no atom, or with a sum that is not finite, raises
    instead of giving a NaN cdf.
    """
    born = born_weights(states)
    keep = born > 0.0
    atoms = born[keep]
    total = np.empty(len(born))
    for rows, at in ragged_blocks(keep.sum(axis=1)):
        total[rows] = atoms[at].sum(axis=1)
    bad = np.flatnonzero(~(np.isfinite(total) & (total > 0.0)))
    if len(bad):
        raise RuntimeError(
            f"stacked state {int(bad[0])} has no finite readout mass above "
            f"the prune tolerance (sum {total[bad[0]]!r})")
    born /= total[:, None]
    cdf = np.cumsum(born, axis=1, out=born)
    cdf /= cdf[:, -1:]
    return cdf


def oracle_read_codes(circuit: Circuit, shots: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Batched oracle calls as basis indices, one simulation per branch prefix.

    Returns an int64 array of shape (shots, T) whose row i holds shot i's T
    full-width readouts as basis indices (qubit 0 is the high bit). Each
    step splits every shot group at the collapse into children, one per
    outcome drawn, and reads each child inside its block. While the groups
    sit on the circuit's built tree, a split draws from the parent's
    ``Level.cond`` row and a child's block is its node's, found by its
    transcript code in the level's ascending ``taus``. With no tree built,
    and from the step where a drawn outcome has no node (the tree pruned
    it), the parents' blocks are widened and evolved as one stack instead.
    Draw order, group by group: one ``multinomial`` for the split (none
    when the step measures nothing), then one ``rng.random(size)`` for all
    of the group's reads, each child's share inverted through that child's
    readout cdf the way ``Generator.choice`` does it. That is the stream of
    one ``choice`` call per child, so seeded reads are unchanged, and a
    tree's blocks and weights equal the evolved ones bit for bit. The
    per-shot law is identical to ``oracle_sample``; only the bookkeeping is
    batched. ``sample_byte_bound`` is held to the byte cap before any
    array is made.
    """
    if shots < 0:
        raise StructureError(f"shots must be nonnegative, got {shots}")
    check_bytes(sample_byte_bound(circuit, shots), f"{shots} oracle calls")
    n = circuit.qubits
    reads = np.empty((shots, circuit.depth), dtype=np.int64)
    if shots == 0:
        return reads
    levels = cached_levels(circuit)
    # group g: the block blocks[g] inside outcomes[g] of the last step's m
    # qubits, the next sizes[g] rows of reads and, while on the tree, the
    # node rows[g] of the last level
    blocks, sizes, m, outcomes = initial_state(n)[None], [shots], 0, []
    rows = None if levels is None else np.zeros(1, dtype=np.int64)
    for t, step in enumerate(circuit.steps):
        parent_blocks = blocks, m, outcomes
        m = step.measure
        if rows is None:
            evolved = apply_step_unitary(widen(*parent_blocks), step, n)
            cond = outcome_probs(evolved, m, n) if m else None
        else:
            level = levels[t + 1]
            cond = level.cond[rows] if m else None
        parents, outcomes, counts, uniforms = [], [], [], []
        for g, size in enumerate(sizes):
            if m:
                split = rng.multinomial(size, cond[g] / cond[g].sum())
                idx = np.flatnonzero(split)
                parents.extend([g] * len(idx))
                outcomes.extend(idx.tolist())
                counts.extend(split[idx].tolist())
            else:
                counts.append(size)
            uniforms.append(rng.random(size))
        if rows is not None and m:
            codes = (levels[t].taus[rows[parents]] << m) | outcomes
            rows = level.taus.searchsorted(codes)
            if np.any(level.taus[np.minimum(rows, len(level.taus) - 1)]
                      != codes):
                # a drawn outcome the tree pruned: evolve from here on
                rows = None
                evolved = apply_step_unitary(widen(*parent_blocks), step, n)
        if rows is not None:
            blocks = level.blocks[rows]
        else:
            blocks = (project(evolved, m, parents, outcomes, cond) if m
                      else evolved)
        cdf, u = _readout_cdfs(blocks), np.concatenate(uniforms)
        ends = np.cumsum(counts).tolist()
        for row, lo, hi in zip(cdf, [0] + ends, ends):
            reads[lo:hi, t] = row.searchsorted(u[lo:hi], side="right")
        sizes = counts
        if m:
            # every readout extends its branch's collapsing outcome: a read
            # inside its block leaves the outcome's high bits to u_t
            if np.any(reads[:, t] >> (n - m)):
                raise RuntimeError(
                    f"a step-{t + 1} readout disagrees with its branch")
            reads[:, t] |= np.repeat(outcomes, sizes) << (n - m)
    return reads


def sample_byte_bound(circuit: Circuit, shots: int) -> int:
    """Bytes ``shots`` batched calls may hold: 16 per shot and step plus 32
    per shot. The sampler's peak is its int64 reads plus three shot-length
    arrays of one step, and counting the reads (``empirical_codes``) holds
    less than one more copy of them."""
    return 16 * shots * (circuit.depth + 2)


def oracle_sample_many(circuit: Circuit, shots: int,
                       rng: np.random.Generator) -> list[OracleOutput]:
    """``oracle_read_codes`` with each readout formatted as a bit string;
    each distinct code is formatted once."""
    codes = oracle_read_codes(circuit, shots, rng)
    fmt = f"0{circuit.qubits}b"
    name = {v: format(v, fmt) for v in set(codes.ravel().tolist())}.get
    # a circuit has at least one step, so the columns zip to every shot
    return list(map(OracleOutput,
                    zip(*(map(name, col) for col in codes.T.tolist()))))


def _guard_output_bits(circuit: Circuit, what: str):
    bits = circuit.depth * circuit.qubits
    if bits > MAX_EXACT_OUTPUT_BITS:
        raise InstanceTooLargeError(
            f"{what} would materialize 2^{bits} outputs; the cap is "
            f"T*n <= {MAX_EXACT_OUTPUT_BITS} bits. Use the factored views "
            f"(q_t, q1, q2) instead.")


def path_fold(circuit: Circuit,
              read_law: Callable[[int, Level], tuple]) -> FiniteDist:
    """Sum over leaves of Pr[leaf] * (r_1 x ... x r_T), r_i being the
    n-bit read law of the leaf's step-i node, folded on the tree's level
    arrays.

    ``read_law(i, level)`` gives the read laws of all step-i nodes as one
    ragged law ``(rows, codes, weights)``: node ``rows[j]`` has the n-bit
    atom ``codes[j]`` with weight ``weights[j]``, rows ascending. Each
    level extends every parent's (codes, weights) in one gather
    (``_fold_level``), so a shared path prefix is multiplied out once and
    equal codes merge in the order of a node-by-node fold. The leaf
    probabilities multiply in last (``_fold_law``).
    """
    levels, fold = enumerate_branches(circuit).levels, None
    for i in range(1, circuit.depth + 1):
        fold = _fold_level(fold, levels[i], read_law(i, levels[i]),
                           circuit.qubits)
    return _fold_law(circuit, levels, fold)


def _fold_level(fold: tuple | None, level: Level, law: tuple,
               n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fold of the path prefixes through ``level``: ``fold`` (None
    before step 1) extended by ``law``, the level's ragged read law.

    A fold is (codes, weights, sizes): node c of its last level holds
    sizes[c] entries, each a code so far and its weight, in the order of a
    node-by-node fold.
    """
    rows, r, rw = law
    atoms = np.bincount(rows, minlength=len(level.parent))
    if fold is None:
        return r, rw, atoms
    codes, weights, sizes = fold
    runs = sizes[level.parent]
    pick = ragged_arange((np.cumsum(sizes) - sizes)[level.parent], runs)
    width = np.repeat(atoms, runs)
    at = ragged_arange(np.repeat(np.cumsum(atoms) - atoms, runs), width)
    return ((np.repeat(codes[pick], width) << n) | r[at],
            np.repeat(weights[pick], width) * rw[at], runs * atoms)


def _fold_law(circuit: Circuit, levels: tuple[Level, ...],
              fold: tuple) -> FiniteDist:
    """The law of a fold through the leaves ``levels[-1]``, Pr[leaf]
    multiplied in last."""
    codes, weights, sizes = fold
    return FiniteDist.from_codes(circuit.depth * circuit.qubits, codes,
                                 np.repeat(levels[-1].probs, sizes) * weights)


def oracle_exact(circuit: Circuit) -> FiniteDist:
    """Exact joint law of (v_1, ..., v_T), concatenated."""
    _guard_output_bits(circuit, "oracle_exact")
    return path_fold(circuit, lambda i, level: level.reads())


# -- partial views ------------------------------------------------------------

def _check_step_index(circuit: Circuit, t: int):
    if not 1 <= t <= circuit.depth:
        raise StructureError(f"step index {t} outside 1..{circuit.depth}")


def q_t(circuit: Circuit, t: int,
        rng: np.random.Generator) -> tuple[Transcript, str]:
    """Sample (tau_t, w_t): run t steps, read out, strip the u_t prefix."""
    _check_step_index(circuit, t)
    tau, state = run_prefix(circuit, t, rng)
    return tau, readout_dist(state, circuit.qubits).sample(rng)[len(tau[-1]):]


def _tau_law(circuit: Circuit, t: int, rows: np.ndarray,
             suffixes: np.ndarray, weights: np.ndarray) -> FiniteDist:
    """Sum over step-t nodes of Pr[node] * (tau_t || the node's suffix
    law), the suffix laws given as one ragged law over the level: node
    ``rows[j]`` has the (n - m_t)-bit suffix ``suffixes[j]`` with weight
    ``weights[j]``."""
    level = enumerate_branches(circuit).levels[t]
    w = circuit.qubits - circuit.steps[t - 1].measure
    return FiniteDist.from_codes(sum(circuit.measure_widths()[:t]) + w,
                                 (level.taus[rows] << w) | suffixes,
                                 level.probs[rows] * weights)


# q_t_law, q1_law and q2_law take an optional third argument that is not
# read, so callers that still pass the circuit's tree keep working; every
# law reads the circuit's one cached tree
def q_t_law(circuit: Circuit, t: int,
            tree: BranchTree | None = None) -> FiniteDist:
    """Exact law of tau_t || w_t, transcripts flattened."""
    _check_step_index(circuit, t)
    return _tau_law(circuit, t, *enumerate_branches(circuit).levels[t].atoms())


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
    leaves = tree.levels[circuit.depth]
    rest = sum(circuit.measure_widths()[len(tau):])
    # the leaves below tau are those whose transcript codes begin with it
    below = leaves.taus >> rest == int("".join(tau) or "0", 2)
    return FiniteDist.from_codes(rest, leaves.taus[below] & ((1 << rest) - 1),
                                 leaves.probs[below] / base.prob)


def q2_law(circuit: Circuit, tau: Transcript,
           tree: BranchTree | None = None) -> FiniteDist:
    """Exact law of w_1..w_t given tau: independent readouts along the path."""
    _validate_transcript(circuit, tau)
    nodes = enumerate_branches(circuit).path(tuple(tau))
    return product([node.suffix_law for node in nodes])


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
    return tuple(node.readout.sample(rng)[len(u):]
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
        if x not in self.reference:
            raise StructureError(f"no reference law for instance {x!r}")
        return sd(self.output_law(x, eps), self.reference[x])


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
