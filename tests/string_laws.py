"""The bit-string law algebra that ``ncmlab.dist`` replaced, frozen as a
test reference.

A law here is a dict from bit strings to floats, kept sorted, exactly as
``FiniteDist`` stored it before laws moved to integer codes; the functions
are that version's ``product``, ``mixture``, ``condition``, ``sd``,
``push_forward``, ``marginal`` and ``qsim.readout_dist``, with the input
checks left out. Arguments may be any law with ``items``, ``prob`` and
``in``, so a code-backed ``FiniteDist`` goes in as it is. Tests compare the
code algebra with these atom for atom, with ``==``.
"""

import numpy as np

READOUT_PRUNE_TOL = 1e-14


class StrDist:
    """Sorted string-keyed law; zero entries dropped."""

    def __init__(self, probs):
        items = sorted((k, float(v)) for k, v in probs.items() if v != 0.0)
        self.length = len(items[0][0])
        self.probs = dict(items)

    def items(self):
        return self.probs.items()

    def prob(self, s):
        return self.probs.get(s, 0.0)

    def __contains__(self, s):
        return s in self.probs

    def __len__(self):
        return len(self.probs)

    def sample(self, rng):
        keys = list(self.probs)
        cum = np.cumsum(np.array(list(self.probs.values())))
        idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        return keys[min(idx, len(keys) - 1)]


def readout(amps, n):
    probs = np.abs(amps) ** 2
    return StrDist({format(i, f"0{n}b"): float(p)
                    for i, p in enumerate(probs) if p > READOUT_PRUNE_TOL})


def sd(p, q):
    total = sum(abs(v - q.prob(k)) for k, v in p.items())
    total += sum(v for k, v in q.items() if k not in p)
    return 0.5 * total


def condition(d, prefix):
    mass = 0.0
    kept = {}
    for k, v in d.items():
        if k.startswith(prefix):
            mass += v
            suffix = k[len(prefix):]
            kept[suffix] = kept.get(suffix, 0.0) + v
    return StrDist({k: v / mass for k, v in kept.items()})


def push_forward(d, f):
    out = {}
    for k, v in d.items():
        y = f(k)
        out[y] = out.get(y, 0.0) + v
    return StrDist(out)


def marginal(d, positions):
    return push_forward(d, lambda s: "".join(s[i] for i in positions))


def product(dists):
    acc = {"": 1.0}
    for d in dists:
        nxt = {}
        for k0, v0 in acc.items():
            for k1, v1 in d.items():
                nxt[k0 + k1] = v0 * v1
        acc = nxt
    return StrDist(acc)


def mixture(weighted):
    out = {}
    for w, d in weighted:
        if w == 0.0:
            continue
        for k, v in d.items():
            out[k] = out.get(k, 0.0) + w * v
    return StrDist(out)
