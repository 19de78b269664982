"""Collision puzzles: sample an answer twice from the same conditional.

A scheme publishes pp, then samples (puzz, ans). Its collision law draws
(puzz, ans) honestly and a second answer ans' from the exact conditional of
ans given puzz. Security for such a scheme would mean no cheap procedure
approximates that collision law; here everything is enumerable, so the law
itself, adversaries against it, and the two-read oracle pipeline that
reproduces it are all compared exactly.

The oracle pipeline: purify the sampler into a preparation unitary, measure
the puzzle register collapsingly, and take two non-collapsing reads. Read
one supplies (puzz, ans), read two supplies ans'; conditional independence
of the reads given the collapse branch is precisely the collision property.

Registers are laid out puzz | ans | junk. Junk qubits let a preparation
entangle the answer with workspace; they are traced out of every law.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .dist import (FiniteDist, condition, empirical, marginal, ragged_blocks,
                   runs, sd)
from .errors import InstanceTooLargeError, ParseError, StructureError
from .ncmo import oracle_exact, oracle_sample
from .qsim import (
    MAX_QUBITS,
    Circuit,
    Gate,
    Step,
    _json_int,
    _json_number,
    apply_step_unitary,
    born_weights,
    check_bytes,
    circuit_from_json,
    circuit_to_json,
    initial_state,
    load_json,
)

MAX_COL_SUPPORT = 1 << 20
# bytes a ColSampler draw may hold per trial, against qsim.MAX_TREE_BYTES:
# a whole mac or commitment game measured about 126
DRAW_BYTES_PER_TRIAL = 192


@dataclass(frozen=True)
class CollisionTriple:
    puzz: str
    ans: str
    ans2: str

    def flat(self) -> str:
        return self.puzz + self.ans + self.ans2


class DcrScheme:
    """Setup law plus a per-pp sampler, as laws and optionally as states.

    ``samp_laws[pp]`` is the exact law of puzz followed by ans. ``states[pp]``
    is an amplitude vector over puzz | ans | junk qubits whose Born law must
    marginalize to samp_laws[pp]; when only laws are given and there is no
    junk, the state is the entrywise square root (lazily, within the qubit
    cap). The two descriptions are cross-checked at construction.
    """

    def __init__(self, *, puzz_len: int, ans_len: int, junk_len: int = 0,
                 setup: FiniteDist, samp_laws: dict[str, FiniteDist] | None = None,
                 states: dict[str, np.ndarray] | None = None):
        if puzz_len < 0 or ans_len <= 0 or junk_len < 0:
            raise StructureError("register widths must be sensible")
        self.puzz_len = puzz_len
        self.ans_len = ans_len
        self.junk_len = junk_len
        self.pp_len = setup.length
        self._setup = setup
        self._samp_laws = dict(samp_laws or {})
        self._states = {k: np.asarray(v, dtype=complex)
                        for k, v in (states or {}).items()}
        for pp in (*self._samp_laws, *self._states):
            if pp not in setup:
                raise StructureError(
                    f"pp {pp!r} is not in the setup law's support")
        for pp in setup.support:
            if pp not in self._samp_laws and pp not in self._states:
                raise StructureError(f"pp {pp!r} has neither a law nor a state")
        for pp, amps in self._states.items():
            if amps.shape != (1 << self.qubits,):
                raise StructureError(
                    f"state for pp {pp!r} has {amps.shape} amplitudes, "
                    f"register layout wants {1 << self.qubits}")
            # written so that a NaN norm fails
            if not abs(np.vdot(amps, amps).real - 1.0) <= 1e-9:
                raise StructureError(f"state for pp {pp!r} is not normalized")
            derived = self._law_of_state(amps)
            declared = self._samp_laws.get(pp)
            if declared is None:
                self._samp_laws[pp] = derived
            elif sd(declared, derived) > 1e-9:
                raise StructureError(
                    f"state and law for pp {pp!r} disagree "
                    f"(sd {sd(declared, derived):.3g})")
        for pp, law in self._samp_laws.items():
            if law.length != puzz_len + ans_len:
                raise StructureError(
                    f"samp law for pp {pp!r} has length {law.length}, "
                    f"registers want {puzz_len + ans_len}")

    @property
    def qubits(self) -> int:
        return self.puzz_len + self.ans_len + self.junk_len

    def _law_of_state(self, amps: np.ndarray) -> FiniteDist:
        born = born_weights(amps)
        atoms = np.flatnonzero(born)
        full = FiniteDist.from_codes(self.qubits, atoms, born[atoms])
        if self.junk_len == 0:
            return full
        return marginal(full, range(self.puzz_len + self.ans_len))

    def setup_law(self) -> FiniteDist:
        return self._setup

    def sample_pp(self, rng: np.random.Generator) -> str:
        return self._setup.sample(rng)

    def samp_law(self, pp: str) -> FiniteDist:
        if pp not in self._samp_laws:
            raise StructureError(f"unknown pp {pp!r}")
        return self._samp_laws[pp]

    def samp(self, pp: str, rng: np.random.Generator) -> tuple[str, str]:
        flat = self.samp_law(pp).sample(rng)
        return flat[:self.puzz_len], flat[self.puzz_len:]

    def state(self, pp: str) -> np.ndarray | None:
        if pp in self._states:
            return self._states[pp]
        if self.junk_len > 0:
            return None  # a junked law underdetermines its purification
        if self.qubits > MAX_QUBITS:
            return None
        law = self.samp_law(pp)
        amps = np.zeros(1 << self.qubits, dtype=complex)
        amps[law.codes] = np.sqrt(law.weights)
        self._states[pp] = amps
        return amps


# -- the collision law ----------------------------------------------------------

def col_law(scheme: DcrScheme, pp: str) -> FiniteDist:
    """Exact law of (puzz, ans, ans'), the second answer resampled."""
    samp, a = scheme.samp_law(pp), scheme.ans_len
    puzz, ans, w = samp.codes >> a, samp.codes & ((1 << a) - 1), samp.weights
    # the atoms of one puzzle are a run of the sorted codes
    starts, group = runs(puzz)
    sizes = np.diff(np.append(starts, len(puzz)))
    size = int((sizes * sizes).sum())
    if size > MAX_COL_SUPPORT:
        raise InstanceTooLargeError(
            f"collision law would hold {size} atoms; cap is {MAX_COL_SUPPORT}")
    # atom i pairs with every atom of its group, in order
    pairs = sizes[group]
    first = np.repeat(np.arange(len(w)), pairs)
    second = (starts[group[first]] + np.arange(len(first))
              - np.repeat(np.cumsum(pairs) - pairs, pairs))
    mass = np.bincount(group, weights=w)  # each group summed left to right
    return FiniteDist.from_codes(
        scheme.puzz_len + 2 * a,
        (samp.codes[first] << a) | ans[second],
        w[first] * w[second] / mass[group[first]])


def col_sample(scheme: DcrScheme, pp: str,
               rng: np.random.Generator) -> CollisionTriple:
    puzz, ans = scheme.samp(pp, rng)
    ans2 = condition(scheme.samp_law(pp), puzz).sample(rng)
    return CollisionTriple(puzz=puzz, ans=ans, ans2=ans2)


def segmented_search(cum: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                     queries: np.ndarray, rounds: int) -> np.ndarray:
    """``start + searchsorted(cum[start:end], q, side="right")`` per query,
    as one binary search that steps right where ``cum[mid] <= q``. The
    bounds broadcast against ``queries``; ``rounds`` must reach the bit
    length of the longest segment."""
    lo = np.broadcast_to(starts, queries.shape).copy()
    hi = np.broadcast_to(ends, queries.shape).copy()
    last = len(cum) - 1
    for _ in range(rounds):
        mid = (lo + hi) >> 1
        # a settled search (lo == hi) reads a clipped index and stays put
        right = (cum[np.minimum(mid, last)] <= queries) & (mid < hi)
        lo = np.where(right, mid + 1, lo)
        hi = np.where(right, hi, mid)
    return lo


class ColSampler:
    """Batched collision draws from one sampler law.

    The law is held in rows, one per puzzle with positive mass, each row
    listing its answers in order with their joint masses. A draw takes
    three uniforms per trial, in the order (puzzle, answer, answer'), and
    inverts each through a sequential cumulative sum, exactly as
    ``FiniteDist.sample`` does on the puzzle marginal and on the
    puzzle's conditional; so the same generator gives the same triples as
    three scalar draws per trial.

    Puzzles and answers are the registers' integer codes.
    """

    def __init__(self, scheme: DcrScheme, pp: str):
        law, a = scheme.samp_law(pp), scheme.ans_len
        rows, w = law.codes >> a, law.weights
        self._starts, _ = runs(rows)
        self._ends = np.append(self._starts[1:], len(w))
        self._puzz = rows[self._starts]
        self._cols = law.codes & ((1 << a) - 1)
        # per-row masses and conditional cumsums, both summed left to
        # right, the order of the scalar sampler's Python sums; rows of
        # one length are one block
        sizes = self._ends - self._starts
        marg = np.empty(len(sizes))
        self._cum = np.empty(len(w))
        for r, at in ragged_blocks(sizes):
            seg = w[at]
            marg[r] = np.cumsum(seg, axis=1)[:, -1]
            self._cum[at] = np.cumsum(seg / marg[r][:, None], axis=1)
        self._marg_cum = np.cumsum(marg)
        self._rounds = int(sizes.max()).bit_length()

    def draw(self, rng: np.random.Generator,
             trials: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(puzz, ans, ans') code arrays of ``trials`` collision draws,
        refused before any array is made past the byte cap at
        DRAW_BYTES_PER_TRIAL."""
        check_bytes(DRAW_BYTES_PER_TRIAL * trials, f"{trials} collision draws")
        u = rng.random(3 * trials).reshape(trials, 3)
        cum = self._marg_cum
        row = np.minimum(np.searchsorted(cum, u[:, 0] * cum[-1],
                                         side="right"), len(cum) - 1)
        start, end = self._starts[row][:, None], self._ends[row][:, None]
        # both answers of a trial are searched inside the puzzle's row
        at = segmented_search(self._cum, start, end,
                              u[:, 1:] * self._cum[end - 1], self._rounds)
        ans = self._cols[np.minimum(at, end - 1)]
        return self._puzz[row], ans[:, 0], ans[:, 1]


def col(scheme: DcrScheme, pp: str, mode: str = "exact",
        rng: np.random.Generator | None = None):
    """Collision draw (mode 'sample') or its exact law (mode 'exact')."""
    if mode == "exact":
        return col_law(scheme, pp)
    if mode != "sample":
        raise StructureError(f"unknown col mode {mode!r}")
    if rng is None:
        raise StructureError("sampling col needs an rng")
    return col_sample(scheme, pp, rng)


def split_triple(scheme: DcrScheme, flat: str) -> CollisionTriple:
    p, a = scheme.puzz_len, scheme.ans_len
    if len(flat) != p + 2 * a:
        raise StructureError(f"triple has {len(flat)} bits, want {p + 2 * a}")
    return CollisionTriple(puzz=flat[:p], ans=flat[p:p + a],
                           ans2=flat[p + a:])


# -- the two-read oracle pipeline -------------------------------------------------

def dpp_instance(scheme: DcrScheme, pp: str) -> Circuit:
    """Two-step circuit: prepare the sampler state, collapse the puzzle
    register, then read twice (the second step is empty)."""
    amps = scheme.state(pp)
    if amps is None:
        raise StructureError(
            f"pp {pp!r} has no preparation state (junk without a state, "
            f"or {scheme.qubits} qubits past the {MAX_QUBITS}-qubit cap)")
    return Circuit(qubits=scheme.qubits, steps=(
        Step(gates=(Gate("prep", tuple(range(scheme.qubits)), matrix=amps),),
             measure=scheme.puzz_len),
        Step(gates=(), measure=0),
    ))


def read_triples(scheme: DcrScheme,
                 reads: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(puzz, ans, ans') register codes of two-read oracle calls on
    ``dpp_instance``, from the rows of ``oracle_read_codes``."""
    a, junk = scheme.ans_len, scheme.junk_len
    mask = (1 << a) - 1
    return (reads[:, 0] >> (a + junk), (reads[:, 0] >> junk) & mask,
            (reads[:, 1] >> junk) & mask)


def oracle_col_law(scheme: DcrScheme, pp: str) -> FiniteDist:
    """Exact triple law produced by the oracle on the prepared circuit."""
    n, p, a = scheme.qubits, scheme.puzz_len, scheme.ans_len
    return marginal(oracle_exact(dpp_instance(scheme, pp)),
                    [*range(p + a), *range(n + p, n + p + a)])


def oracle_col_sample(scheme: DcrScheme, pp: str,
                      rng: np.random.Generator) -> CollisionTriple:
    p, a = scheme.puzz_len, scheme.ans_len
    v1, v2 = oracle_sample(dpp_instance(scheme, pp), rng).reads
    return CollisionTriple(puzz=v1[:p], ans=v1[p:p + a], ans2=v2[p:p + a])


def col_oracle_gap(scheme: DcrScheme, pp: str) -> float:
    """sd between the oracle pipeline's triple law and the collision law;
    zero is the construction's defining identity."""
    return sd(oracle_col_law(scheme, pp), col_law(scheme, pp))


# -- adversaries and advantage -----------------------------------------------------

class TripleAdversary:
    """Maps pp to a guessed collision triple; law drives exact advantage."""

    def law(self, pp: str) -> FiniteDist:
        raise NotImplementedError

    def guess(self, pp: str, rng: np.random.Generator) -> CollisionTriple:
        raise NotImplementedError


class HonestColAdversary(TripleAdversary):
    def __init__(self, scheme: DcrScheme):
        self.scheme = scheme

    def law(self, pp):
        return col_law(self.scheme, pp)

    def guess(self, pp, rng):
        return col_sample(self.scheme, pp, rng)


class FixedTripleAdversary(TripleAdversary):
    def __init__(self, triple: CollisionTriple):
        self.triple = triple

    def law(self, pp):
        return FiniteDist.point(self.triple.flat())

    def guess(self, pp, rng):
        return self.triple


class OracleColAdversary(TripleAdversary):
    """Runs the prepared circuit through the oracle and reads the triple."""

    def __init__(self, scheme: DcrScheme):
        self.scheme = scheme

    def law(self, pp):
        return oracle_col_law(self.scheme, pp)

    def guess(self, pp, rng):
        return oracle_col_sample(self.scheme, pp, rng)


def dcr_advantage(scheme: DcrScheme, adversary: TripleAdversary,
                  mode: str = "exact", shots: int = 10000,
                  rng: np.random.Generator | None = None) -> float:
    """sd between {pp, Col(pp)} and {pp, A(pp)}."""
    if mode == "exact":
        total = 0.0
        for pp, w in scheme.setup_law().items():
            total += w * sd(col_law(scheme, pp), adversary.law(pp))
        return total
    if mode != "empirical":
        raise StructureError(f"unknown advantage mode {mode!r}")
    if rng is None:
        raise StructureError("empirical advantage needs an rng")
    honest, guessed = [], []
    for _ in range(shots):
        pp = scheme.sample_pp(rng)
        honest.append(pp + col_sample(scheme, pp, rng).flat())
        pp2 = scheme.sample_pp(rng)
        guessed.append(pp2 + adversary.guess(pp2, rng).flat())
    return sd(empirical(honest).to_dist(), empirical(guessed).to_dist())


# -- ready-made schemes --------------------------------------------------------------

def random_law_scheme(rng: np.random.Generator, *, pp_len: int = 1,
                      puzz_len: int = 1, ans_len: int = 2,
                      density: float = 0.75) -> DcrScheme:
    """Random dense-ish sampler laws per pp, for identity checks."""
    setup = FiniteDist.uniform(pp_len)
    width = puzz_len + ans_len
    laws = {}
    for pp in setup.support:
        mask = rng.random(1 << width) < density
        if not mask.any():
            mask[int(rng.integers(1 << width))] = True
        weights = rng.random(1 << width) * mask
        weights /= weights.sum()
        laws[pp] = FiniteDist.from_codes(width, np.arange(1 << width),
                                         weights)
    return DcrScheme(puzz_len=puzz_len, ans_len=ans_len, setup=setup,
                     samp_laws=laws)


def random_function_table(rng: np.random.Generator, in_len: int,
                          out_len: int) -> np.ndarray:
    """A uniform f: entry i is the out_len-bit code of f at input code i.
    One call draws the stream of 2^in_len scalar ``integers`` calls."""
    return rng.integers(1 << out_len, size=1 << in_len)


def table_codes(table, in_len: int, out_len: int) -> np.ndarray:
    """An int64 copy of a function table, checked as one integer code below
    2^out_len per input code."""
    codes = np.asarray(table)
    if (codes.shape != (1 << in_len,) or codes.dtype.kind not in "iu"
            or codes.min() < 0 or int(codes.max()) >> out_len):
        raise StructureError(
            f"table must hold {1 << in_len} integer codes of {out_len} bits")
    return codes.astype(np.int64)


def function_scheme(table: np.ndarray, in_len: int,
                    out_len: int) -> DcrScheme:
    """Preimage sampler of a function: puzz = f(x), ans = x, x uniform.

    Its collision law pairs two independent preimages of the same image,
    which is what the two oracle reads produce on the coherent-preimage
    state.
    """
    codes = table_codes(table, in_len, out_len)
    law = FiniteDist.from_codes(out_len + in_len,
                                (codes << in_len) | np.arange(len(codes)),
                                np.full(len(codes), 1.0 / (1 << in_len)))
    return DcrScheme(puzz_len=out_len, ans_len=in_len,
                     setup=FiniteDist.point(""), samp_laws={"": law})


def distinct_answer_prob(scheme: DcrScheme, pp: str) -> float:
    """Pr[ans != ans'] under the collision law."""
    law, a = col_law(scheme, pp), scheme.ans_len
    mask = (1 << a) - 1
    distinct = law.weights[((law.codes >> a) & mask) != (law.codes & mask)]
    return float(np.cumsum(distinct)[-1]) if len(distinct) else 0.0


# -- scheme files ---------------------------------------------------------------------

def scheme_to_json(scheme: DcrScheme) -> dict:
    obj = {
        "pp_len": scheme.pp_len,
        "puzz_len": scheme.puzz_len,
        "ans_len": scheme.ans_len,
        "junk_len": scheme.junk_len,
    }
    setup = scheme.setup_law()
    if scheme.junk_len > 0:
        # junk entanglement lives in the state, so only the preparation
        # circuit is a faithful description
        if len(setup) != 1:
            raise StructureError("cannot serialize a multi-pp junked scheme")
        pp = setup.support[0]
        circuit = dpp_instance(scheme, pp)
        prep_only = Circuit(qubits=circuit.qubits,
                            steps=(Step(gates=circuit.steps[0].gates,
                                        measure=0),))
        if pp:
            obj["pp"] = pp
        obj["source"] = {"circuit": circuit_to_json(prep_only),
                         "puzz_register": scheme.puzz_len}
        return obj
    if len(setup) == 1:
        pp = setup.support[0]
        if pp:
            obj["pp"] = pp
        obj["source"] = {"law": scheme.samp_law(pp).to_json()}
    else:
        obj["setup"] = setup.to_json()
        obj["source"] = {"laws": {pp: scheme.samp_law(pp).to_json()
                                  for pp in setup.support}}
    return obj


def _law_from_json(obj) -> FiniteDist:
    if isinstance(obj, dict) and isinstance(obj.get("probs"), dict):
        for key, p in obj["probs"].items():
            _json_number(p, f"probability of {key!r}")
    try:
        return FiniteDist.from_json(obj)
    except StructureError as e:
        raise ParseError(f"bad law object: {e}") from e


def scheme_from_json(obj, *, circuit_loader=None) -> DcrScheme:
    """Parse a scheme description.

    The source is either {"law": ...} (one pp, possibly named by "pp"),
    {"laws": {pp: ...}} with a "setup" law, or {"circuit": ..., "
    puzz_register": m} where the circuit is a one-step preparation; a
    string-valued circuit is resolved through circuit_loader. A "setup"
    beside "law" or "circuit", a "pp" beside "laws", a "pp" that is not
    a bit string and a "pp_len" other than the setup law's are ParseErrors.
    """
    if not isinstance(obj, dict):
        raise ParseError("scheme file must hold a JSON object")
    if "puzz_len" not in obj or "ans_len" not in obj:
        raise ParseError("scheme needs integer puzz_len and ans_len")
    puzz_len = _json_int(obj["puzz_len"], "'puzz_len'")
    ans_len = _json_int(obj["ans_len"], "'ans_len'")
    junk_len = _json_int(obj.get("junk_len", 0), "'junk_len'")
    source = obj.get("source")
    if not isinstance(source, dict):
        raise ParseError("scheme needs a source object")
    kind = next((k for k in ("law", "laws", "circuit") if k in source), None)
    if kind is None:
        raise ParseError("source must carry 'law', 'laws', or 'circuit'")
    # a 'laws' source names its pp values in 'setup', the others one in 'pp'
    stray = "pp" if kind == "laws" else "setup"
    if stray in obj:
        raise ParseError(f"{stray!r} does not go with a {kind!r} source")
    pp = obj.get("pp", "")
    if not isinstance(pp, str) or not set(pp) <= {"0", "1"}:
        raise ParseError(f"'pp' must be a bit string, got {pp!r}")
    if kind == "laws":
        if "setup" not in obj:
            raise ParseError("multi-pp source needs a setup law")
        setup = _law_from_json(obj["setup"])
    else:
        setup = FiniteDist.point(pp)
    pp_len = _json_int(obj.get("pp_len", setup.length), "'pp_len'")
    if pp_len != setup.length:
        raise ParseError(f"'pp_len' {pp_len} disagrees with the "
                         f"{setup.length}-bit pp of the setup law")
    if kind == "law":
        return DcrScheme(puzz_len=puzz_len, ans_len=ans_len,
                         junk_len=junk_len, setup=setup,
                         samp_laws={pp: _law_from_json(source["law"])})
    if kind == "laws":
        laws = source["laws"]
        if not isinstance(laws, dict):
            raise ParseError("source.laws must map pp to laws")
        return DcrScheme(puzz_len=puzz_len, ans_len=ans_len,
                         junk_len=junk_len, setup=setup,
                         samp_laws={pp: _law_from_json(law)
                                    for pp, law in laws.items()})
    raw = source["circuit"]
    if isinstance(raw, str):
        if circuit_loader is None:
            raise ParseError("circuit reference needs a loader")
        circuit = circuit_loader(raw)
    else:
        circuit = circuit_from_json(raw)
    if circuit.depth != 1 or circuit.steps[0].measure != 0:
        raise ParseError(
            "scheme circuit must be a single preparation step without "
            "measurement")
    reg = source.get("puzz_register")
    if reg != puzz_len:
        raise ParseError(
            f"puzz_register {reg!r} disagrees with puzz_len {puzz_len}")
    if circuit.qubits != puzz_len + ans_len + junk_len:
        raise ParseError(
            f"circuit has {circuit.qubits} qubits, registers want "
            f"{puzz_len + ans_len + junk_len}")
    amps = apply_step_unitary(initial_state(circuit.qubits),
                              circuit.steps[0], circuit.qubits)
    return DcrScheme(puzz_len=puzz_len, ans_len=ans_len,
                     junk_len=junk_len, setup=setup, states={pp: amps})


def load_scheme(path: str) -> DcrScheme:
    base = os.path.dirname(os.path.abspath(path))
    return scheme_from_json(
        load_json(path),
        circuit_loader=lambda ref: circuit_from_json(
            load_json(os.path.join(base, ref))))


def save_scheme(scheme: DcrScheme, path: str):
    with open(path, "w") as fh:
        json.dump(scheme_to_json(scheme), fh, indent=2, sort_keys=True)
        fh.write("\n")
