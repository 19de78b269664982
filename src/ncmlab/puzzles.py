"""Puzzles built from oracle runs, and the hybrid argument around them.

The sampler takes an instance x, picks a step t uniformly, runs the first t
steps of x's circuit, and publishes puzz = (x, t, tau_t) with the read's
unmeasured suffix w_t as the answer. Solving means reproducing the
conditional law of w_t given the transcript.

The hybrid machine B(k) answers reads 1..k genuinely (Born readout of the
post-measurement state) and reads k+1..T with adversary guesses w'_i glued
onto the true collapsing outcome u_i. B(T) is the oracle, B(0) is the
guess-everything machine. Two exact identities drive all the checks here:

  per-step collapse:  SD(B(t-1), B(t)) = SD({tau_t, w_t}, {tau_t, A(tau_t)})
  telescoping:        SD(B(0), B(T)) <= sum_t SD(B(t-1), B(t))

Advantage of an adversary against a puzzle sampler is the statistical
distance between {puzz, ans} and {puzz, A(puzz)}.

Encodings (fixed widths, so joints stay FiniteDists):
  puzz  = x | t as 8 big-endian bits | flattened tau zero-padded to the
          family's widest transcript. Widths are taken over the declared
          instance support, so one layout covers the whole law.
  ans   = w_t zero-padded to the family's widest read.
  aux z = len(x) as 8 bits | x | a run of floor(1/eps) ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dist import (
    FiniteDist,
    check_bits,
    condition,
    empirical,
    marginal,
    prefixed_mixture,
    sd,
)
from .errors import ParseError, StructureError
from .ncmo import (
    BaseMachine,
    DEFAULT_RETRY_BUDGET,
    OracleOutput,
    PdqpInstanceFamily,
    Transcript,
    _fold_law,
    _fold_level,
    _guard_output_bits,
    _rejection_run,
    _tau_law,
    oracle_exact,
    oracle_sample,
    path_fold,
    q_t,
    q_t_law,
    run_session,
    session_law,
)
from .qsim import Circuit, Level, enumerate_branches, readout_dist, walk

T_FIELD_BITS = 8


# -- step adversaries ---------------------------------------------------------

class StepAdversary:
    """Guesses the unread suffix w_t from (x, circuit, t, tau_t).

    ``law`` is the exact guess distribution at one node, an (n - m_t)-bit
    law; ``guess`` draws from it (or from whatever process the kind
    defines). ``level_law(x, circuit, t)`` is the same law at every step-t
    node at once, as one ragged law over the level ``(rows, suffixes,
    weights)``: node ``rows[j]`` (tree order, rows ascending) guesses the
    suffix code ``suffixes[j]`` with weight ``weights[j]``, each node's
    codes ascending and distinct, as ``law``'s ``codes`` and ``weights``.
    Every closed-form identity reads ``level_law``. The built-in kinds
    compute it from the level's arrays; the default calls ``law`` once per
    node, so a custom adversary need only define ``law``. Build one per
    conceptual attacker.
    """

    kind = "custom"

    def law(self, x: str, circuit: Circuit, t: int,
            tau: Transcript) -> FiniteDist:
        raise NotImplementedError

    def level_law(self, x: str, circuit: Circuit, t: int) -> tuple:
        """``law`` at each step-t node, each checked to be n - m_t bits
        wide: a wider suffix would overwrite u_t's bits in the folds."""
        level = enumerate_branches(circuit).levels[t]
        w = _suffix_width(circuit, t)
        laws = [self.law(x, circuit, t, level.transcript(row))
                for row in range(len(level.taus))]
        for law in laws:
            if law.length != w:
                raise StructureError(
                    f"step {t} guess law is {law.length} bits wide; the "
                    f"unread suffix has {w}")
        return (np.repeat(np.arange(len(laws)), [len(law) for law in laws]),
                np.concatenate([law.codes for law in laws]),
                np.concatenate([law.weights for law in laws]))

    def guess(self, x: str, circuit: Circuit, t: int, tau: Transcript,
              rng: np.random.Generator) -> str:
        return self.law(x, circuit, t, tau).sample(rng)


def _suffix_width(circuit: Circuit, t: int) -> int:
    return circuit.qubits - circuit.steps[t - 1].measure


def _level_size(circuit: Circuit, t: int) -> int:
    return len(enumerate_branches(circuit).levels[t].taus)


class PerfectAdversary(StepAdversary):
    """Answers with the exact conditional of w_t given the transcript."""

    kind = "perfect"

    def law(self, x, circuit, t, tau):
        return enumerate_branches(circuit).node(tuple(tau)).suffix_law

    def level_law(self, x, circuit, t):
        # a post state's suffixes are its block's columns
        return enumerate_branches(circuit).levels[t].atoms()


class RejectionAdversary(StepAdversary):
    """Re-runs the oracle until the transcript matches, then reads w_t.

    Its target law is the exact conditional, so closed-form identities use
    that; the sampling path really does rejection with a retry budget.
    """

    kind = "rejection"

    def __init__(self, budget: int = DEFAULT_RETRY_BUDGET):
        self.budget = budget
        self._perfect = PerfectAdversary()

    def law(self, x, circuit, t, tau):
        return self._perfect.law(x, circuit, t, tau)

    def level_law(self, x, circuit, t):
        return self._perfect.level_law(x, circuit, t)

    def guess(self, x, circuit, t, tau, rng):
        _, reads = _rejection_run(circuit, tuple(tau), rng, self.budget)
        return reads[t - 1][circuit.steps[t - 1].measure:]


class ObliviousAdversary(StepAdversary):
    """Ignores the transcript and guesses uniformly."""

    kind = "oblivious"

    def law(self, x, circuit, t, tau):
        return FiniteDist.uniform(_suffix_width(circuit, t))

    def level_law(self, x, circuit, t):
        k, size = _level_size(circuit, t), 1 << _suffix_width(circuit, t)
        return (np.repeat(np.arange(k), size), np.tile(np.arange(size), k),
                np.full(k * size, 1.0 / size))


class ConstantAdversary(StepAdversary):
    """Always guesses a fixed bit value, a minimal custom attacker."""

    kind = "custom"

    def __init__(self, bit: str = "0"):
        if bit not in ("0", "1"):
            raise StructureError("constant adversary bit must be '0' or '1'")
        self.bit = bit

    def law(self, x, circuit, t, tau):
        return FiniteDist.point(self.bit * _suffix_width(circuit, t))

    def level_law(self, x, circuit, t):
        k = _level_size(circuit, t)
        code = int(self.bit) * ((1 << _suffix_width(circuit, t)) - 1)
        return np.arange(k), np.full(k, code), np.ones(k)


def step_adversary(kind: str) -> StepAdversary:
    """Build a step adversary from a short name like 'rejection:5000'."""
    name, colon, arg = kind.partition(":")
    if kind == "perfect":
        return PerfectAdversary()
    if kind == "oblivious":
        return ObliviousAdversary()
    if name in ("perfect", "oblivious"):
        raise StructureError(f"the {name} adversary takes no argument: {kind!r}")
    if name == "rejection":
        if colon and (not arg.isdecimal() or int(arg) < 1):
            raise StructureError(
                f"rejection budget must be a positive integer, got {arg!r}")
        return RejectionAdversary(int(arg) if arg else DEFAULT_RETRY_BUDGET)
    if name == "constant":
        return ConstantAdversary(arg if colon else "0")
    raise StructureError(f"unknown adversary kind {kind!r}")


# -- hybrid machines ----------------------------------------------------------

def hybrid_b(k: int, x: str, circuit: Circuit, adv: StepAdversary,
             rng: np.random.Generator) -> OracleOutput:
    """One draw from hybrid B(k): genuine reads up to k, guesses after."""
    if not 0 <= k <= circuit.depth:
        raise StructureError(f"hybrid index {k} outside 0..{circuit.depth}")
    tau: Transcript = ()
    reads = []
    for i, (u, state) in enumerate(walk(circuit, rng), start=1):
        tau = tau + (u,)
        if i <= k:
            reads.append(readout_dist(state, circuit.qubits).sample(rng))
        else:
            reads.append(u + adv.guess(x, circuit, i, tau, rng))
    return OracleOutput(reads=tuple(reads))


def hybrid_b_law(k: int, x: str, circuit: Circuit,
                 adv: StepAdversary) -> FiniteDist:
    """Exact output law of hybrid B(k), concatenated reads."""
    if not 0 <= k <= circuit.depth:
        raise StructureError(f"hybrid index {k} outside 0..{circuit.depth}")
    _guard_output_bits(circuit, "hybrid_b_law")

    def read_law(i, level):
        if i <= k:
            return level.reads()
        return _guess_reads(x, circuit, adv, i, level)

    return path_fold(circuit, read_law)


def hybrid_laws(x: str, circuit: Circuit,
                adv: StepAdversary) -> tuple[FiniteDist, ...]:
    """Exact laws of B(0)..B(T) in one pass, B(k) bit for bit
    ``hybrid_b_law(k, ...)``.

    Each level's genuine reads and guesses are made once (``level_law``
    once per level). The genuine prefix G_k, levels 1..k read genuinely,
    is G_{k-1} extended by level k, and B(k) is G_k extended by the
    guesses of levels k+1..T: each B(k) is folded level by level in code
    order, as ``path_fold`` folds it, with the leaf probabilities
    multiplied in last.
    """
    _guard_output_bits(circuit, "hybrid_laws")
    levels, depth, n = (enumerate_branches(circuit).levels, circuit.depth,
                        circuit.qubits)
    guesses = [None] + [_guess_reads(x, circuit, adv, i, levels[i])
                        for i in range(1, depth + 1)]
    laws, genuine = [], None
    for k in range(depth + 1):
        fold = genuine
        for i in range(k + 1, depth + 1):
            fold = _fold_level(fold, levels, i, guesses[i], n)
        laws.append(_fold_law(circuit, levels, fold))
        if k < depth:
            genuine = _fold_level(genuine, levels, k + 1,
                                  levels[k + 1].reads(), n)
    return tuple(laws)


def _guess_reads(x: str, circuit: Circuit, adv: StepAdversary, i: int,
                 level: Level) -> tuple:
    """Step i's guesses as one ragged read law over the level: each read
    is u_i || the guessed suffix."""
    rows, suffixes, weights = adv.level_law(x, circuit, i)
    return rows, level.codes(rows, suffixes), weights


def q_star(x: str, circuit: Circuit, adv: StepAdversary,
           rng: np.random.Generator) -> OracleOutput:
    """The guess-everything machine: hybrid B(0)."""
    return hybrid_b(0, x, circuit, adv, rng)


def q_star_law(x: str, circuit: Circuit, adv: StepAdversary) -> FiniteDist:
    return hybrid_b_law(0, x, circuit, adv)


def step_pair_law(x: str, circuit: Circuit, t: int,
                  adv: StepAdversary | None) -> FiniteDist:
    """Law of tau_t || w_t (adv None) or tau_t || A(tau_t) (adv given)."""
    if adv is None:
        return q_t_law(circuit, t)
    return _tau_law(circuit, t, *adv.level_law(x, circuit, t))


def _step_gaps(x: str, circuit: Circuit,
               adv: StepAdversary) -> tuple[float, ...]:
    """SD({tau_t, w_t}, {tau_t, A(tau_t)}) for t = 1..T."""
    return tuple(
        sd(step_pair_law(x, circuit, t, None),
           step_pair_law(x, circuit, t, adv))
        for t in range(1, circuit.depth + 1))


@dataclass(frozen=True)
class HybridReport:
    """Exact distances along the hybrid chain for one circuit."""

    hybrid_gaps: tuple[float, ...]      # SD(B(t-1), B(t)) for t = 1..T
    step_gaps: tuple[float, ...]        # SD({tau_t,w_t}, {tau_t,A}) for t = 1..T
    endpoint_gap: float                 # SD(B(0), B(T))

    @property
    def telescoped(self) -> float:
        return sum(self.hybrid_gaps)


def per_step_sd(x: str, circuit: Circuit, adv: StepAdversary) -> HybridReport:
    """Exact hybrid-chain distances; the two gap lists agree entrywise."""
    laws = hybrid_laws(x, circuit, adv)
    hybrid_gaps = tuple(sd(laws[t - 1], laws[t])
                        for t in range(1, circuit.depth + 1))
    return HybridReport(hybrid_gaps=hybrid_gaps,
                        step_gaps=_step_gaps(x, circuit, adv),
                        endpoint_gap=sd(laws[0], laws[-1]))


# -- puzzle samplers ----------------------------------------------------------

class PuzzleSampler:
    """A puzzle source: seeded sampling plus an exact joint law."""

    puzz_len: int
    ans_len: int

    def sample(self, rng: np.random.Generator) -> tuple[str, str]:
        raise NotImplementedError

    def joint_law(self) -> FiniteDist:
        raise NotImplementedError

    def conditional(self, puzz: str) -> FiniteDist:
        return condition(self.joint_law(), puzz)


@dataclass(frozen=True)
class PuzzleLayout:
    """Fixed-width field layout for instance-derived puzzles."""

    x_len: int
    tau_width: int          # flattened transcript, zero-padded
    ans_width: int          # w_t, zero-padded
    include_x: bool = True

    @property
    def puzz_len(self) -> int:
        x_part = self.x_len if self.include_x else 0
        return x_part + T_FIELD_BITS + self.tau_width


def _flatten_pad(parts: tuple[str, ...], width: int) -> str:
    flat = "".join(parts)
    if len(flat) > width:
        raise StructureError(f"transcript wider than layout ({len(flat)} > {width})")
    return flat + "0" * (width - len(flat))


class InstancePuzzleSampler(PuzzleSampler):
    """puzz = (x, t, tau_t), ans = w_t, over a declared instance family.

    eps only sizes the accuracy field of downstream solvers; the sampler
    itself is exact.
    """

    def __init__(self, fam: PdqpInstanceFamily, lam: int, eps: float = 0.5):
        self.fam = fam
        self.lam = lam
        self.eps = eps
        self.instances = fam.instance_law(lam)
        self._circuits = {x: fam.circuit_for(x, eps)
                          for x in self.instances.support}
        for x, c in self._circuits.items():
            if c.depth >= (1 << T_FIELD_BITS):
                raise StructureError(
                    f"instance {x!r} has {c.depth} steps; the t field holds "
                    f"at most {(1 << T_FIELD_BITS) - 1}")
        self.layout = PuzzleLayout(
            x_len=self.instances.length,
            tau_width=max(sum(c.measure_widths())
                          for c in self._circuits.values()),
            ans_width=max(c.qubits - m
                          for c in self._circuits.values()
                          for m in c.measure_widths()))
        self.puzz_len = self.layout.puzz_len
        self.ans_len = self.layout.ans_width

    def circuit(self, x: str) -> Circuit:
        return self._circuits[x]

    def encode_puzz(self, x: str, t: int, tau: Transcript) -> str:
        lay = self.layout
        head = x if lay.include_x else ""
        return (head + format(t, f"0{T_FIELD_BITS}b")
                + _flatten_pad(tuple(tau), lay.tau_width))

    def decode_puzz(self, puzz: str) -> tuple[str, int, Transcript]:
        lay = self.layout
        if len(puzz) != self.puzz_len:
            raise ParseError(f"puzzle has {len(puzz)} bits, layout wants "
                             f"{self.puzz_len}")
        if lay.include_x:
            x, pos = puzz[:lay.x_len], lay.x_len
        else:
            x, pos = self.instances.support[0], 0
        t = int(puzz[pos:pos + T_FIELD_BITS], 2)
        pos += T_FIELD_BITS
        if x not in self._circuits:
            raise ParseError(f"unknown instance {x!r} in puzzle")
        c = self._circuits[x]
        if not 1 <= t <= c.depth:
            raise ParseError(f"step field {t} outside 1..{c.depth}")
        widths = c.measure_widths()[:t]
        tau = []
        for wdt in widths:
            tau.append(puzz[pos:pos + wdt])
            pos += wdt
        if puzz[pos:].strip("0"):
            raise ParseError("nonzero padding in puzzle transcript field")
        return x, t, tuple(tau)

    def pad_ans(self, w: str) -> str:
        if len(w) > self.ans_len:
            raise StructureError("answer wider than layout")
        return w + "0" * (self.ans_len - len(w))

    def sample(self, rng: np.random.Generator) -> tuple[str, str]:
        x = self.instances.sample(rng)
        t = int(rng.integers(1, self._circuits[x].depth + 1))
        tau, w = q_t(self._circuits[x], t, rng)
        return self.encode_puzz(x, t, tau), self.pad_ans(w)

    def joint_law(self) -> FiniteDist:
        codes, weights = [], []
        for x, px in self.instances.items():
            c = self._circuits[x]
            for t in range(1, c.depth + 1):
                level = enumerate_branches(c).levels[t]
                rows, suffixes, born = level.atoms()
                w = _suffix_width(c, t)
                # puzz = (x, t) header | tau zero-padded; ans = w zero-padded
                head = int(self.encode_puzz(x, t, ()), 2)
                puzz = head | (level.taus << (self.layout.tau_width
                                              - sum(c.measure_widths()[:t])))
                codes.append((puzz[rows] << self.ans_len)
                             | (suffixes << (self.ans_len - w)))
                weights.append((px * level.probs / c.depth)[rows] * born)
        return FiniteDist.from_codes(self.puzz_len + self.ans_len,
                                     np.concatenate(codes),
                                     np.concatenate(weights))

    def per_step_terms(self, adv: StepAdversary) -> dict:
        """Exact SD terms of the advantage split by (x, t)."""
        return {(x, t): gap for x in self.instances.support
                for t, gap in enumerate(_step_gaps(x, self._circuits[x], adv),
                                        start=1)}


class AuxInputPuzzleSampler(InstancePuzzleSampler):
    """Same construction with x moved into the auxiliary input z.

    The puzzle drops the instance field; everything is conditioned on the
    single instance carried by z.
    """

    def __init__(self, fam: PdqpInstanceFamily, z: str):
        x, eps = parse_aux_input(z)
        single = PdqpInstanceFamily(
            machine=fam.machine,
            instance_laws={len(x): FiniteDist.point(x)},
            reference=fam.reference)
        super().__init__(single, len(x), eps)
        self.z = z
        self.x = x
        self.layout = PuzzleLayout(
            x_len=len(x), tau_width=self.layout.tau_width,
            ans_width=self.layout.ans_width, include_x=False)
        self.puzz_len = self.layout.puzz_len

    def encode_puzz(self, x, t, tau):
        if x != self.x:
            raise StructureError("aux-input sampler is bound to one instance")
        return (format(t, f"0{T_FIELD_BITS}b")
                + _flatten_pad(tuple(tau), self.layout.tau_width))


def encode_aux_input(x: str, eps: float) -> str:
    check_bits(x)
    if len(x) >= (1 << T_FIELD_BITS):
        raise StructureError("instance too wide for the aux-input header")
    if not 0 < eps <= 1:
        raise StructureError(f"accuracy eps must be in (0, 1], got {eps}")
    return format(len(x), f"0{T_FIELD_BITS}b") + x + "1" * int(1 / eps)


def parse_aux_input(z: str) -> tuple[str, float]:
    check_bits(z)
    if len(z) < T_FIELD_BITS:
        raise ParseError("aux input shorter than its header")
    x_len = int(z[:T_FIELD_BITS], 2)
    if len(z) < T_FIELD_BITS + x_len:
        raise ParseError("aux input truncates the instance field")
    x = z[T_FIELD_BITS:T_FIELD_BITS + x_len]
    unary = z[T_FIELD_BITS + x_len:]
    if "0" in unary:
        raise ParseError("accuracy field must be a run of ones")
    k = len(unary)
    if k == 0:
        raise ParseError("accuracy field is empty")
    return x, 1.0 / k


# -- puzzle adversaries and advantage ------------------------------------------

class PuzzleAdversary:
    """Maps a puzzle to a guessed answer; the exact guess law drives
    closed-form advantage."""

    def law(self, puzz: str) -> FiniteDist:
        raise NotImplementedError

    def guess(self, puzz: str, rng: np.random.Generator) -> str:
        return self.law(puzz).sample(rng)


class ConditionalPuzzleAdversary(PuzzleAdversary):
    """The information-theoretic optimum: the true conditional."""

    def __init__(self, sampler: PuzzleSampler):
        self._joint = sampler.joint_law()

    def law(self, puzz):
        return condition(self._joint, puzz)


class ConstantPuzzleAdversary(PuzzleAdversary):
    def __init__(self, ans: str):
        self.ans = check_bits(ans)

    def law(self, puzz):
        return FiniteDist.point(self.ans)


class UniformPuzzleAdversary(PuzzleAdversary):
    def __init__(self, ans_len: int):
        self.ans_len = ans_len

    def law(self, puzz):
        return FiniteDist.uniform(self.ans_len)


class StepPuzzleAdversary(PuzzleAdversary):
    """Lift a step adversary to puzzle level by decoding (x, t, tau)."""

    def __init__(self, sampler: InstancePuzzleSampler, adv: StepAdversary):
        self.sampler = sampler
        self.adv = adv

    def law(self, puzz):
        x, t, tau = self.sampler.decode_puzz(puzz)
        raw = self.adv.law(x, self.sampler.circuit(x), t, tau)
        pad = self.sampler.ans_len - raw.length
        if pad < 0:
            raise StructureError("answer wider than layout")
        return FiniteDist.from_codes(self.sampler.ans_len, raw.codes << pad,
                                     raw.weights)

    def guess(self, puzz, rng):
        x, t, tau = self.sampler.decode_puzz(puzz)
        raw = self.adv.guess(x, self.sampler.circuit(x), t, tau, rng)
        return self.sampler.pad_ans(raw)


@dataclass(frozen=True)
class AdvantageReport:
    alpha: float
    mode: str
    shots: int = 0
    margin: float = 0.0
    per_step: tuple = ()

    def summary(self) -> str:
        if self.mode == "exact":
            return f"advantage {self.alpha:.9f} (exact)"
        return (f"advantage {self.alpha:.6f} "
                f"(empirical, {self.shots} shots, margin {self.margin:.4f})")


def advantage(sampler: PuzzleSampler, adversary: PuzzleAdversary,
              mode: str = "exact", shots: int = 10000,
              rng: np.random.Generator | None = None) -> AdvantageReport:
    """Distance between {puzz, ans} and {puzz, A(puzz)}."""
    if mode == "exact":
        honest = sampler.joint_law()
        marg = marginal(honest, range(sampler.puzz_len))
        guessed = prefixed_mixture(
            ((w, code, adversary.law(puzz)) for puzz, code, w in
             zip(marg.support, marg.codes.tolist(), marg.weights.tolist())),
            sampler.puzz_len)
        alpha = sd(honest, guessed)
        per_step = ()
        if (isinstance(sampler, InstancePuzzleSampler)
                and isinstance(adversary, StepPuzzleAdversary)):
            terms = sampler.per_step_terms(adversary.adv)
            per_step = tuple(sorted(terms.items()))
        return AdvantageReport(alpha=alpha, mode="exact", per_step=per_step)
    if mode != "empirical":
        raise StructureError(f"unknown advantage mode {mode!r}")
    if rng is None:
        raise StructureError("empirical advantage needs an rng")
    honest_draws = []
    guessed_draws = []
    for _ in range(shots):
        puzz, ans = sampler.sample(rng)
        honest_draws.append(puzz + ans)
        puzz2, _ = sampler.sample(rng)
        guessed_draws.append(puzz2 + adversary.guess(puzz2, rng))
    h = empirical(honest_draws).to_dist()
    g = empirical(guessed_draws).to_dist()
    support = len(set(h.support) | set(g.support))
    margin = float(np.sqrt(2.0 * support / shots))  # crude large-deviation scale
    return AdvantageReport(alpha=sd(h, g), mode="empirical", shots=shots,
                           margin=margin)


def support_verifier(sampler: PuzzleSampler) -> Callable[[str, str], bool]:
    """Brute-force acceptance: valid iff Pr[ans | puzz] > 0."""
    joint = sampler.joint_law()

    def verify(puzz: str, ans: str) -> bool:
        return (puzz + ans) in joint

    return verify


# -- solvers and the adaptive replacement --------------------------------------

def _replacement_adversary(machine: BaseMachine, i: int,
                           adv) -> StepAdversary:
    """adv, checked to answer the first i queries of machine."""
    if not 0 <= i <= machine.query_bound:
        raise StructureError(
            f"replacement index {i} outside 0..{machine.query_bound}")
    if not isinstance(adv, StepAdversary):
        raise StructureError("solver backends need a StepAdversary")
    return adv


def _solver_adversary(fam: PdqpInstanceFamily, adv) -> StepAdversary:
    """adv, checked for solver_f: it answers the one query of fam."""
    if fam.machine.query_bound != 1:
        raise StructureError(
            "solver_f drives single-query machines; use "
            "adaptive_replacement for larger bounds")
    return _replacement_adversary(fam.machine, 1, adv)


def solver_f(fam: PdqpInstanceFamily, x: str, eps: float, adv: StepAdversary,
             rng: np.random.Generator) -> str:
    """Run the base machine with every read answered by hybrid B(0)."""
    adv = _solver_adversary(fam, adv)

    def backend(circuit, rng_):
        return q_star(x, circuit, adv, rng_)

    return run_session(fam.machine, x, eps, backend, rng)


def solver_f_law(fam: PdqpInstanceFamily, x: str, eps: float,
                 adv: StepAdversary) -> FiniteDist:
    adv = _solver_adversary(fam, adv)
    return session_law(
        fam.machine, x, eps,
        lambda circuit, k: q_star_law(x, circuit, adv))


def adaptive_replacement_law(machine: BaseMachine, x: str, eps: float,
                             i: int, adv: StepAdversary) -> FiniteDist:
    """Exact session law with the first i queries answered by B(0).

    Queries are replaced in order: positions 0..i-1 go to the solver
    surrogate, the rest to the true oracle. i = 0 is the genuine session,
    i = query_bound replaces everything.
    """
    adv = _replacement_adversary(machine, i, adv)

    def backend_law(circuit, k):
        if k < i:
            return q_star_law(x, circuit, adv)
        return oracle_exact(circuit)

    return session_law(machine, x, eps, backend_law)


def adaptive_replacement_sample(machine: BaseMachine, x: str, eps: float,
                                i: int, adv: StepAdversary,
                                rng: np.random.Generator) -> str:
    adv = _replacement_adversary(machine, i, adv)
    count = {"k": 0}

    def backend(circuit, rng_):
        k = count["k"]
        count["k"] += 1
        if k < i:
            return q_star(x, circuit, adv, rng_)
        return oracle_sample(circuit, rng_)

    return run_session(machine, x, eps, backend, rng)
