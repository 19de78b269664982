"""Exact probability distributions over fixed-length bit strings.

Every law in this package (oracle outputs, puzzle joints, collision triples)
is a FiniteDist: sorted distinct integer codes (key bit i is code bit
length-1-i) with float probabilities, on which the law algebra works. Bit
strings appear only at the boundary: the mapping constructor, ``point``,
JSON, ``items``, ``support``, ``repr``, the key of ``prob`` and ``in``,
drawn samples and ``push_forward``'s map. Arithmetic is plain double
precision and every sum runs left to right in code order; a law read from
bit strings is valid when every entry is nonnegative and the total sits
within VALID_TOL of 1.

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
        if length > MAX_CODE_BITS:
            raise InstanceTooLargeError(
                f"a {length}-bit law is past the {MAX_CODE_BITS}-bit cap of "
                f"its integer codes")
        codes = np.asarray(codes, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if len(codes) > 1 and not (codes[1:] > codes[:-1]).all():
            # bincount adds each code's weights in input order
            codes, at = np.unique(codes, return_inverse=True)
            weights = np.bincount(at.ravel(), weights, len(codes))
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
        declared = obj.get("length")
        if declared is not None and declared != d.length:
            raise StructureError(
                f"declared length {declared} != key length {d.length}")
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
    out: dict[str, float] = {}
    length = None
    for k, v in d.items():
        y = check_bits(f(k))
        if length is None:
            length = len(y)
        elif len(y) != length:
            raise StructureError("push_forward map produced mixed lengths")
        out[y] = out.get(y, 0.0) + v
    return FiniteDist(out)


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


@dataclass(frozen=True)
class EmpiricalDist:
    """Counts from repeated sampling, normalizable to a FiniteDist."""

    counts: dict
    shots: int

    def to_dist(self) -> FiniteDist:
        if self.shots <= 0:
            raise StructureError("no samples")
        return FiniteDist(
            {k: c / self.shots for k, c in self.counts.items()})

    def to_json(self) -> dict:
        """``to_dist().to_json()``, also for keys past the code cap."""
        if self.shots <= 0 or not self.counts:
            raise StructureError("no samples")
        probs = {k: self.counts[k] / self.shots for k in sorted(self.counts)}
        return {"length": len(next(iter(probs))), "probs": probs}


def empirical(samples: Iterable[str]) -> EmpiricalDist:
    counts: dict[str, int] = {}
    n = 0
    length = None
    for s in samples:
        check_bits(s)
        if length is None:
            length = len(s)
        elif len(s) != length:
            raise StructureError("samples have mixed lengths")
        counts[s] = counts.get(s, 0) + 1
        n += 1
    if n == 0:
        raise StructureError("no samples")
    return EmpiricalDist(counts=counts, shots=n)


def empirical_codes(rows: np.ndarray, width: int) -> EmpiricalDist:
    """Counts of integer-coded samples, keyed by bit string.

    Row i is sample i; each column holds a ``width``-bit field, and the
    sample's bit string is the fields formatted in column order. One
    lexsort over the columns groups equal rows, and only the distinct rows
    are formatted, so the counts equal ``empirical`` of the per-sample
    strings.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise StructureError(
            f"expected a (samples, fields) array, got shape {rows.shape}")
    if rows.dtype.kind not in "iu":
        raise StructureError(f"expected integer codes, got {rows.dtype}")
    shots = rows.shape[0]
    if shots == 0:
        raise StructureError("no samples")
    if width < 1 or rows.min() < 0 or int(rows.max()) >> width:
        raise StructureError(f"codes do not fit in {width}-bit fields")
    ordered = rows[np.lexsort(rows.T[::-1])]
    starts = np.flatnonzero(np.concatenate(
        ([True], (ordered[1:] != ordered[:-1]).any(axis=1))))
    sizes = np.diff(np.append(starts, shots))
    fmt = f"0{width}b"
    counts = {"".join(format(v, fmt) for v in row): c
              for row, c in zip(ordered[starts].tolist(), sizes.tolist())}
    return EmpiricalDist(counts=counts, shots=shots)
