"""Exact probability distributions over fixed-length bit strings.

Every law in this package (oracle outputs, puzzle joints, collision triples)
is a FiniteDist: sorted distinct integer codes (key bit i is code bit
length-1-i) with float probabilities, on which the law algebra works;
sampled counts (EmpiricalDist) are held on codes too. Bit strings appear
only at the boundary: the mapping constructor, ``point``, JSON, ``items``,
``support``, ``repr``, the key of ``prob`` and ``in``, drawn samples,
``push_forward``'s map, ``empirical``'s input and ``EmpiricalDist.counts``.
Arithmetic is plain double precision and every sum runs left to right in
code order; a law read from bit strings is valid when every entry is
nonnegative and the total sits within VALID_TOL of 1.

At a fixed length ascending codes are lexicographic order, so support
always iterates in that order: seeded sampling is reproducible run to run
and report bytes do not depend on how a law was built.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    ImpossibleConditionError,
    InstanceTooLargeError,
    StructureError,
)

VALID_TOL = 1e-9
MAX_CODE_BITS = 62  # int64 codes, with room to shift a prefix in


def check_bits(s: str) -> str:
    """Validate a bit string and hand it back."""
    if not isinstance(s, str):
        raise StructureError(f"expected a bit string, got {type(s).__name__}")
    if s.strip("01"):
        raise StructureError(f"not a bit string: {s!r}")
    return s


def _check_cap(length: int):
    if length > MAX_CODE_BITS:
        raise InstanceTooLargeError(
            f"a {length}-bit law is past the {MAX_CODE_BITS}-bit cap of "
            f"its integer codes")


def _check_total(total: float):
    # a NaN weight makes the total NaN, which no comparison rejects
    if not math.isfinite(total) or abs(total - 1.0) > VALID_TOL:
        raise StructureError(f"probabilities sum to {total!r}, not 1")


class FiniteDist:
    """Immutable distribution over {0,1}^length.

    The mapping constructor takes bit-string keys, drops zero entries and
    rejects negative entries and totals off from 1 by more than VALID_TOL;
    ``from_codes`` builds the laws the program computes.
    """

    __slots__ = ("length", "codes", "weights")

    def __init__(self, probs: Mapping[str, float]):
        items = sorted((check_bits(k), float(v)) for k, v in probs.items()
                       if v != 0.0)
        if not items:
            raise StructureError("distribution has empty support")
        length, total = len(items[0][0]), 0.0
        for k, v in items:
            if len(k) != length:
                raise StructureError(f"mixed key lengths: {len(k)} vs {length}")
            if v < 0.0:
                raise StructureError(f"negative probability at {k!r}: {v}")
            total += v
        _check_total(total)
        law = FiniteDist.from_codes(length, [int(k or "0", 2) for k, _ in items],
                                    [v for _, v in items])
        self.length, self.codes, self.weights = length, law.codes, law.weights

    @classmethod
    def from_codes(cls, length: int, codes, weights) -> "FiniteDist":
        """Law over {0,1}^length from int codes and their weights, which are
        not validated: repeated codes merge, summed in input order, and zero
        weights are dropped."""
        _check_cap(length)
        codes = np.asarray(codes, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if len(codes) > 1 and not (codes[1:] > codes[:-1]).all():
            # stable: bincount adds equal codes in input order
            order = np.argsort(codes, kind="stable")
            codes, weights = codes[order], weights[order]
            del order  # freed before the merge's arrays: peak memory
            starts, lengths = runs(codes)
            weights = np.bincount(run_numbers(lengths), weights)
            codes = codes[starts]
        if len(codes) and (codes[0] < 0 or int(codes[-1]) >> length):
            raise StructureError(f"codes do not fit in {length} bits")
        if not weights.all():
            codes, weights = codes[weights != 0.0], weights[weights != 0.0]
        if not len(codes):
            raise StructureError("distribution has empty support")
        self = object.__new__(cls)
        self.length, self.codes, self.weights = length, codes, weights
        return self

    # -- basic access -------------------------------------------------------

    def _key(self, code: int) -> str:
        # format(0, "00b") would still emit a digit
        return format(code, f"0{self.length}b") if self.length else ""

    @property
    def support(self) -> list[str]:
        return [self._key(c) for c in self.codes.tolist()]

    def _index(self, s) -> int | None:
        """Position of key s in the support, None for any other value (a
        non-string, a non-bit string, a wrong length)."""
        if not isinstance(s, str) or len(s) != self.length or s.strip("01"):
            return None
        code = int(s or "0", 2)
        i = int(np.searchsorted(self.codes, code))
        return i if i < len(self) and self.codes[i] == code else None

    def prob(self, s: str) -> float:
        i = self._index(s)
        return 0.0 if i is None else float(self.weights[i])

    def items(self) -> list[tuple[str, float]]:
        return list(zip(self.support, self.weights.tolist()))

    def __len__(self) -> int:
        return len(self.codes)

    def __contains__(self, s: str) -> bool:
        return self._index(s) is not None

    def __repr__(self) -> str:
        if len(self) > 6:
            head = ", ".join(f"{k}: {v:.6g}" for k, v in self.items()[:6])
            return f"FiniteDist({{{head}, ...}}, n={self.length}, support={len(self)})"
        body = ", ".join(f"{k}: {v:.6g}" for k, v in self.items())
        return f"FiniteDist({{{body}}})"

    # -- constructors -------------------------------------------------------

    @classmethod
    def point(cls, s: str) -> "FiniteDist":
        check_bits(s)
        return cls.from_codes(len(s), [int(s or "0", 2)], [1.0])

    @classmethod
    def uniform(cls, length: int) -> "FiniteDist":
        if length < 0 or length > 24:
            raise StructureError(f"uniform length {length} out of range")
        return cls.from_codes(length, np.arange(1 << length),
                              np.full(1 << length, 1.0 / (1 << length)))

    # -- sampling -----------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> str:
        cum = np.cumsum(self.weights)
        idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        return self._key(int(self.codes[min(idx, len(self) - 1)]))

    def sample_many(self, rng: np.random.Generator, shots: int) -> list[str]:
        p = self.weights / self.weights.sum()
        picks = rng.choice(len(self), size=shots, p=p)
        keys = self.support
        return [keys[i] for i in picks]

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"length": self.length, "probs": dict(self.items())}

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteDist":
        if not isinstance(obj, dict) or not isinstance(obj.get("probs"), dict):
            raise StructureError("distribution JSON needs a 'probs' object")
        d = cls(obj["probs"])
        declared = obj.get("length", d.length)
        if type(declared) is not int or declared != d.length:  # not a bool
            raise StructureError(
                f"'length' must be the key length {d.length}, got {declared!r}")
        return d


def sd(p: FiniteDist, q: FiniteDist) -> float:
    """Statistical (total variation) distance, 0.5 * sum |p - q|."""
    if p.length != q.length:
        raise StructureError(
            f"length mismatch in sd: {p.length} vs {q.length}")
    # p's atoms in order, then q's atoms outside p: a fixed summation order
    at = np.minimum(np.searchsorted(q.codes, p.codes), len(q) - 1)
    shared = q.codes[at] == p.codes
    total = float(np.cumsum(abs(p.weights - q.weights[at] * shared))[-1])
    rest = np.delete(q.weights, at[shared])
    return 0.5 * (total + float(np.cumsum(rest)[-1]) if len(rest) else total)


def condition(d: FiniteDist, prefix: str) -> FiniteDist:
    """Law of the remaining bits given that the first bits equal prefix."""
    check_bits(prefix)
    if len(prefix) > d.length:
        raise StructureError(
            f"prefix of length {len(prefix)} on a {d.length}-bit law")
    rest, head = d.length - len(prefix), int(prefix or "0", 2)
    # the atoms with this prefix are the codes in [head, head + 1) << rest
    lo, hi = np.searchsorted(d.codes, [head << rest, (head + 1) << rest])
    if lo == hi:
        raise ImpossibleConditionError(f"prefix {prefix!r} has zero mass")
    w = d.weights[lo:hi]
    return FiniteDist.from_codes(rest, d.codes[lo:hi] & ((1 << rest) - 1),
                                 w / np.cumsum(w)[-1])


def push_forward(d: FiniteDist, f: Callable[[str], str]) -> FiniteDist:
    """Image law under a map from bit strings to bit strings."""
    image = [check_bits(f(k)) for k in d.support]
    if len({len(y) for y in image}) > 1:
        raise StructureError("push_forward map produced mixed lengths")
    return FiniteDist.from_codes(
        len(image[0]), [int(y or "0", 2) for y in image], d.weights)


def marginal(d: FiniteDist, positions: Sequence[int]) -> FiniteDist:
    """Law of the selected bit positions, in the order given."""
    codes = np.zeros_like(d.codes)
    for i in positions:
        if not 0 <= i < d.length:
            raise StructureError(f"position {i} out of range for n={d.length}")
        codes = (codes << 1) | ((d.codes >> (d.length - 1 - i)) & 1)
    return FiniteDist.from_codes(len(positions), codes, d.weights)


def product(dists: Iterable[FiniteDist]) -> FiniteDist:
    """Law of the concatenation of independent draws, one per factor."""
    length, codes, weights = 0, np.zeros(1, dtype=np.int64), np.ones(1)
    for d in dists:
        length += d.length
        codes = ((codes[:, None] << d.length) | d.codes).ravel()
        weights = (weights[:, None] * d.weights).ravel()
    return FiniteDist.from_codes(length, codes, weights)


def prefixed_mixture(parts: Iterable[tuple[float, int, FiniteDist]],
                     prefix_len: int) -> FiniteDist:
    """Sum over parts (w, prefix, d) of w * (prefix || d), each prefix a
    prefix_len-bit code and every d of one length; zero-weight parts are
    skipped, and equal codes summed in part order."""
    parts = [(w, prefix, d) for w, prefix, d in parts if w != 0.0]
    lengths = {d.length for _, _, d in parts}
    if len(lengths) != 1:
        raise StructureError(f"mixture of laws of lengths {sorted(lengths)}")
    n = lengths.pop()
    return FiniteDist.from_codes(
        prefix_len + n,
        np.concatenate([(prefix << n) | d.codes for _, prefix, d in parts]),
        np.concatenate([w * d.weights for w, _, d in parts]))


def mixture(weighted: Iterable[tuple[float, FiniteDist]]) -> FiniteDist:
    """Convex combination; weights must sum to 1 within tolerance."""
    parts = [(w, 0, d) for w, d in weighted]
    for w, _, _ in parts:
        if w < 0.0:
            raise StructureError(f"negative mixture weight {w}")
    out = prefixed_mixture(parts, 0)
    _check_total(float(np.cumsum(out.weights)[-1]))
    return out


@dataclass(frozen=True, eq=False)
class EmpiricalDist:
    """Counts from repeated sampling: the distinct sample rows of
    ``width``-bit fields, ascending, and how often each was drawn."""

    rows: np.ndarray
    sizes: np.ndarray
    width: int
    shots: int

    @property
    def counts(self) -> dict[str, int]:
        """The counts keyed by bit string, in ascending order."""
        fmt = f"0{self.width}b"
        return {"".join(format(v, fmt) for v in row): c
                for row, c in zip(self.rows.tolist(), self.sizes.tolist())}

    def to_dist(self) -> FiniteDist:
        length = self.rows.shape[1] * self.width
        _check_cap(length)
        return FiniteDist.from_codes(length, _join(self.rows, self.width),
                                     self.sizes / self.shots)

    def to_json(self) -> dict:
        """``to_dist().to_json()``, also for samples past the code cap."""
        return {"length": self.rows.shape[1] * self.width, "probs": {
            k: c / self.shots for k, c in self.counts.items()}}


def runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal entries in a sorted, non-empty
    array, or of equal rows in a lexsorted 2-D one."""
    new = keys[1:] != keys[:-1]
    if new.ndim > 1:  # a row starts a run where any field changes
        new = new.any(axis=1)
    starts = np.flatnonzero(np.concatenate(([True], new)))
    return starts, np.concatenate((starts[1:], [len(keys)])) - starts


def run_numbers(lengths: np.ndarray) -> np.ndarray:
    """Each entry's run number, for ``np.bincount``, from the run lengths."""
    return np.repeat(np.arange(len(lengths)), lengths)


def ragged_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """arange(starts[i], starts[i] + lengths[i]) for every i, concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) - np.repeat(ends - lengths - starts, lengths)


def ragged_blocks(lengths: np.ndarray):
    """Rows of a ragged array, stored flat in row order, grouped by length.

    Yields ``(rows, at)`` per distinct row length k: the indices of the
    rows of that length, ascending, and the (len(rows), k) positions of
    their entries in the flat array, so ``flat[at]`` is one 2-D block
    whose i-th row is row ``rows[i]``. ``sum`` and ``cumsum`` along axis 1
    of such a block give each row's 1-D result bit for bit, so the
    samplers reduce a group in one call and keep the scalar arithmetic.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if len(lengths) == 0:
        return
    starts = np.cumsum(lengths) - lengths
    order = np.argsort(lengths, kind="stable")
    firsts, counts = runs(lengths[order])
    for lo, hi in zip(firsts.tolist(), (firsts + counts).tolist()):
        rows = order[lo:hi]
        yield rows, starts[rows][:, None] + np.arange(lengths[rows[0]])


def empirical(samples: Iterable[str]) -> EmpiricalDist:
    """``empirical_codes`` of bit-string samples, one field each."""
    samples = [check_bits(s) for s in samples]
    width = len(samples[0]) if samples else 1
    if any(len(s) != width for s in samples):
        raise StructureError("samples have mixed lengths")
    _check_cap(width)
    codes = np.array([int(s or "0", 2) for s in samples], dtype=np.int64)
    return empirical_codes(codes[:, None], width)


def _join(rows: np.ndarray, width: int) -> np.ndarray:
    """Each row's ``width``-bit fields as one int64 code, high field first."""
    codes = rows[:, 0].astype(np.int64)
    for field in rows.T[1:]:
        codes <<= width
        codes |= field.astype(np.int64)
    return codes


def empirical_codes(rows: np.ndarray, width: int) -> EmpiricalDist:
    """Counts of integer-coded samples: every counter of samples ends here.

    Row i is sample i; each column holds a ``width``-bit field, and the
    sample's code is the fields joined in column order. Rows that fit
    MAX_CODE_BITS are sorted as joined codes (ascending codes are ascending
    rows) and split back into fields of the input dtype; wider rows take a
    lexsort over the columns. The counts equal ``empirical`` of the strings.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise StructureError(
            f"expected a (samples, fields) array, got shape {rows.shape}")
    if rows.dtype.kind not in "iu":
        raise StructureError(f"expected integer codes, got {rows.dtype}")
    shots, k = rows.shape
    if shots == 0:
        raise StructureError("no samples")
    if width < 1 or rows.min() < 0 or int(rows.max()) >> width:
        raise StructureError(f"codes do not fit in {width}-bit fields")
    if k * width <= MAX_CODE_BITS:
        ordered = np.sort(_join(rows, width))
    else:
        ordered = rows[np.lexsort(rows.T[::-1])]
    starts, sizes = runs(ordered)
    distinct = ordered[starts]
    if distinct.ndim == 1:  # split the codes back into fields
        distinct = (distinct[:, None] >> width * np.arange(k)[::-1]
                    & (1 << width) - 1).astype(rows.dtype)
    return EmpiricalDist(distinct, sizes, width, shots)
