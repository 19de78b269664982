"""The bit-string law algebra that ``ncmlab.dist`` replaced, frozen as a
test reference.

A law here is a dict from bit strings to floats, kept sorted, exactly as
``FiniteDist`` stored it before laws moved to integer codes; the functions
are that version's ``product``, ``mixture``, ``condition``, ``sd``,
``push_forward``, ``marginal`` and ``qsim.readout_dist``, with the input
checks left out. Arguments may be any law with ``items``, ``prob`` and
``in``, so a code-backed ``FiniteDist`` goes in as it is. Tests compare the
code algebra with these atom for atom, with ``==``. ``sign_law`` is the
signing toy's string signer from before ``ToyMac.sign_law`` read the
integer atom rule. ``mac_table``, ``com_table``, ``preimages``,
``classes`` and ``r2`` are the toys' string views of their public tables
and the commitment's string receiver, from before the code arrays became
the only tables. ``hiding_and_correctness_audit`` and
``algorithm_c_com_success`` are the commitment audits from before they
read the code tables: they score every preimage with ``r2``, here on the
string views.
"""

import itertools

import numpy as np

from ncmlab.dist import marginal
from ncmlab.primitives import audit_quantities, com_to_dcrpuzz

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


def sign_law(x, theta, m):
    """The first len(m) qubits of x encoded in bases theta, measured in
    bases m: matching bases read x, the others are coin flips."""
    per_bit = []
    for i in range(len(m)):
        if m[i] == theta[i]:
            per_bit.append((x[i],))
        else:
            per_bit.append(("0", "1"))
    probs = {}
    for combo in itertools.product(*per_bit):
        sigma = "".join(combo)
        probs[sigma] = probs.get(sigma, 0.0) + 1.0
    total = sum(probs.values())
    return StrDist({k: v / total for k, v in probs.items()})


def bits(k):
    return [format(i, f"0{k}b") for i in range(1 << k)]


def _table(codes, key_len, value_len):
    values = bits(value_len)
    return dict(zip(bits(key_len), (values[v] for v in codes.tolist())))


def mac_table(mac):
    """The signing toy's R as bit strings: x || theta -> vk, keys in order."""
    return _table(mac.vk_codes, 2 * mac.n, 2 * mac.n)


def com_table(com):
    """The commitment's R as bit strings: x || theta -> digest."""
    return _table(com.digest_codes, 2 * com.n, com.digest_len)


def preimages(table, n):
    """The signing toy's vk -> its (x, theta) preimages, in key order."""
    out = {}
    for key, vk in table.items():
        out.setdefault(vk, []).append((key[:n], key[n:]))
    return out


def classes(table):
    """The commitment's digest -> its preimages split by the committed bit
    key[0], digests in the order of their first key."""
    out = {}
    for key, y in table.items():
        out.setdefault(y, ([], []))[int(key[0])].append(key)
    return out


def r2(table, y, s2, b):
    """The commitment's receiver: the key hashes to y and opens bit b."""
    return (len(s2) == len(next(iter(table))) and table.get(s2) == y
            and s2[0] == str(b))


def _preimage_lists(table):
    """``ToyCommitment.preimage_list`` on the string view: digest y and
    bit b to y's ascending bit-b keys, none for a digest without keys."""
    split = classes(table)
    return lambda y, b: split.get(y, ([], []))[b]


def hiding_and_correctness_audit(com, p):
    table = com_table(com)
    preimage_list = _preimage_lists(table)
    y_law = com.s1_law(0)
    success0, success1 = {}, {}
    for y in sorted({*com.s1_law(0).support, *com.s1_law(1).support}):
        for b, out in ((0, success0), (1, success1)):
            pre = preimage_list(y, b)
            out[y] = (sum(r2(table, y, s, b) for s in pre) / len(pre)
                      if pre else 0.0)
    return audit_quantities(y_law, success0, success1, com.hiding_sd(), p)


def algorithm_c_com_success(com, form):
    table = com_table(com)
    preimage_list = _preimage_lists(table)
    if form == "literal":
        y_law = com.s1_law(0)
    else:
        scheme_law = com_to_dcrpuzz(com, "coherent").samp_law("")
        y_law = marginal(scheme_law, range(com.digest_len))
    win = 0.0
    for y, w in y_law.items():
        src0 = preimage_list(y, 0)
        src1 = preimage_list(y, 0) if form == "literal" \
            else preimage_list(y, 1)
        if not src0 or not src1:
            continue
        ok0 = sum(r2(table, y, s, 0) for s in src0) / len(src0)
        ok1 = sum(r2(table, y, s, 1) for s in src1) / len(src1)
        win += w * ok0 * ok1
    return win
