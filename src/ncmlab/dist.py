"""Exact probability distributions over fixed-length bit strings.

Every law in this package (oracle outputs, puzzle joints, collision triples)
is a FiniteDist: a finite map from equal-length '0'/'1' strings to float
probabilities. Arithmetic is plain double precision; a distribution is valid
when every entry is nonnegative and the total sits within VALID_TOL of 1.

Support always iterates in lexicographic order, so seeded sampling is
reproducible run to run and report bytes do not depend on dict insertion
history.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ImpossibleConditionError, StructureError

VALID_TOL = 1e-9


def check_bits(s: str) -> str:
    """Validate a bit string and hand it back."""
    if not isinstance(s, str):
        raise StructureError(f"expected a bit string, got {type(s).__name__}")
    for ch in s:
        if ch not in "01":
            raise StructureError(f"not a bit string: {s!r}")
    return s


class FiniteDist:
    """Immutable distribution over {0,1}^length.

    Zero-probability entries are dropped at construction; negative entries
    and totals off from 1 by more than VALID_TOL are rejected.
    """

    __slots__ = ("_probs", "_keys", "_weights", "length")

    def __init__(self, probs: Mapping[str, float], *, _validate: bool = True):
        items = [(k, float(v)) for k, v in probs.items() if v != 0.0]
        items.sort()
        if not items:
            raise StructureError("distribution has empty support")
        if _validate:
            length = len(items[0][0])
            total = 0.0
            for k, v in items:
                check_bits(k)
                if len(k) != length:
                    raise StructureError(
                        f"mixed key lengths: {len(k)} vs {length}")
                if v < 0.0:
                    raise StructureError(f"negative probability at {k!r}: {v}")
                total += v
            # a NaN weight makes the total NaN, which no comparison rejects
            if not math.isfinite(total) or abs(total - 1.0) > VALID_TOL:
                raise StructureError(f"probabilities sum to {total!r}, not 1")
        self.length = len(items[0][0])
        self._probs = dict(items)
        self._keys = [k for k, _ in items]
        self._weights = np.array([v for _, v in items])

    # -- basic access -------------------------------------------------------

    @property
    def support(self) -> list[str]:
        return list(self._keys)

    def prob(self, s: str) -> float:
        return self._probs.get(s, 0.0)

    def items(self):
        return self._probs.items()

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, s: str) -> bool:
        return s in self._probs

    def __repr__(self) -> str:
        if len(self._keys) > 6:
            head = ", ".join(f"{k}: {self._probs[k]:.6g}" for k in self._keys[:6])
            return f"FiniteDist({{{head}, ...}}, n={self.length}, support={len(self)})"
        body = ", ".join(f"{k}: {self._probs[k]:.6g}" for k in self._keys)
        return f"FiniteDist({{{body}}})"

    # -- constructors -------------------------------------------------------

    @classmethod
    def point(cls, s: str) -> "FiniteDist":
        return cls({check_bits(s): 1.0}, _validate=False)

    @classmethod
    def uniform(cls, length: int) -> "FiniteDist":
        if length < 0 or length > 24:
            raise StructureError(f"uniform length {length} out of range")
        if length == 0:
            return cls.point("")  # format(0, "00b") would still emit a digit
        p = 1.0 / (1 << length)
        return cls({format(i, f"0{length}b"): p for i in range(1 << length)})

    # -- sampling -----------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> str:
        cum = np.cumsum(self._weights)
        idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        return self._keys[min(idx, len(self._keys) - 1)]

    def sample_many(self, rng: np.random.Generator, shots: int) -> list[str]:
        p = self._weights / self._weights.sum()
        picks = rng.choice(len(self._keys), size=shots, p=p)
        return [self._keys[i] for i in picks]

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"length": self.length,
                "probs": {k: self._probs[k] for k in self._keys}}

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
    # p's atoms in order, then q's atoms outside p: a fixed summation order,
    # so the value does not depend on the process's string hash seed
    total = sum(abs(v - q.prob(k)) for k, v in p.items())
    total += sum(v for k, v in q.items() if k not in p)
    return 0.5 * total


def condition(d: FiniteDist, prefix: str) -> FiniteDist:
    """Law of the remaining bits given that the first bits equal prefix."""
    check_bits(prefix)
    if len(prefix) > d.length:
        raise StructureError(
            f"prefix of length {len(prefix)} on a {d.length}-bit law")
    mass = 0.0
    kept: dict[str, float] = {}
    for k, v in d.items():
        if k.startswith(prefix):
            mass += v
            suffix = k[len(prefix):]
            kept[suffix] = kept.get(suffix, 0.0) + v
    if mass <= 0.0:
        raise ImpossibleConditionError(f"prefix {prefix!r} has zero mass")
    return FiniteDist({k: v / mass for k, v in kept.items()}, _validate=False)


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
    return FiniteDist(out, _validate=False)


def marginal(d: FiniteDist, positions: Sequence[int]) -> FiniteDist:
    """Law of the selected bit positions, in the order given."""
    for i in positions:
        if not 0 <= i < d.length:
            raise StructureError(f"position {i} out of range for n={d.length}")
    return push_forward(d, lambda s: "".join(s[i] for i in positions))


def product(dists: Iterable[FiniteDist]) -> FiniteDist:
    """Law of the concatenation of independent draws, one per factor."""
    acc: dict[str, float] = {"": 1.0}
    for d in dists:
        nxt: dict[str, float] = {}
        for k0, v0 in acc.items():
            for k1, v1 in d.items():
                nxt[k0 + k1] = v0 * v1
        acc = nxt
    return FiniteDist(acc)


def mixture(weighted: Iterable[tuple[float, FiniteDist]]) -> FiniteDist:
    """Convex combination; weights must sum to 1 within tolerance."""
    out: dict[str, float] = {}
    for w, d in weighted:
        if w < 0.0:
            raise StructureError(f"negative mixture weight {w}")
        if w == 0.0:
            continue
        for k, v in d.items():
            out[k] = out.get(k, 0.0) + w * v
    return FiniteDist(out)


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
