"""The toys' integer game tables against the string loops they replaced.

The references below are the bit-string procedures the tables superseded:
the signing law built atom by atom from the frozen string signer
``string_laws.sign_law``, the game values that call ``ToyMac.ver`` and
the frozen string receiver ``string_laws.r2`` per atom, the collision
law's sum, and the collision sampler that draws puzzle, answer and
answer' with three ``FiniteDist.sample`` calls per trial. The tables must
give the same exact values (to 1e-12) and, for the same seed, the same
successes.
"""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import string_laws
from string_laws import bits, com_table, mac_table
from ncmlab.dcrpuzz import ColSampler, DcrScheme, col_law, random_law_scheme
from ncmlab.dist import FiniteDist, marginal, push_forward
from ncmlab.errors import StructureError
from ncmlab.primitives import (
    ToyCommitment,
    ToyMac,
    algorithm_c_com_success,
    balanced_table,
    both_parity_mass,
    com_break_exact,
    com_break_via_collision,
    com_to_dcrpuzz,
    hiding_and_correctness_audit,
    mac_break_exact,
    mac_break_via_collision,
    mac_to_dcrpuzz,
    naive_forge_win_exact,
    toy_commitment,
    toy_mac,
)


# -- string-loop references ------------------------------------------------------

def ref_mac_law(mac) -> FiniteDist:
    n, lm = mac.n, mac.lm
    key_w = 1.0 / (1 << (2 * n))
    m_w = 1.0 / (1 << lm)
    probs = {}
    for key, vk in mac_table(mac).items():
        x, theta = key[:n], key[n:]
        for m in bits(lm):
            for sigma, p in string_laws.sign_law(x, theta, m).items():
                flat = vk + m + sigma
                probs[flat] = probs.get(flat, 0.0) + key_w * m_w * p
    return FiniteDist(probs)


def ref_groups(law: FiniteDist, p_len: int) -> dict:
    groups = {}
    for flat, w in law.items():
        groups.setdefault(flat[:p_len], {})[flat[p_len:]] = w
    return groups


def ref_mac_break_exact(mac) -> float:
    lm = mac.lm
    win = 0.0
    for vk, g in ref_groups(ref_mac_law(mac), 2 * mac.n).items():
        mass = sum(g.values())
        per_m = {}
        total = 0.0
        for ans, joint in g.items():
            m, sigma = ans[:lm], ans[lm:]
            if mac.ver(vk, m, sigma):
                p = joint / mass
                per_m[m] = per_m.get(m, 0.0) + p
                total += p
        win += mass * (total ** 2 - sum(v * v for v in per_m.values()))
    return win


def ref_naive_forge_win_exact(mac) -> float:
    n, lm = mac.n, mac.lm
    m0 = "0" * lm
    m1 = "1" + "0" * (lm - 1)
    key_w = 1.0 / (1 << (2 * n))
    win = 0.0
    for key, vk in mac_table(mac).items():
        x, theta = key[:n], key[n:]
        free = [i for i in range(lm) if theta[i] == "1"]
        for choice in itertools.product("01", repeat=len(free)):
            sigma = list(x[:lm])
            for i, b in zip(free, choice):
                sigma[i] = b
            s = "".join(sigma)
            if mac.ver(vk, m0, s) and mac.ver(vk, m1, s):
                win += key_w / (1 << len(free))
    return win


def ref_com_break_exact(com, scheme) -> float:
    law = col_law(scheme, "")
    table = com_table(com)
    p, a = scheme.puzz_len, scheme.ans_len
    win = 0.0
    for flat, w in law.items():
        y = flat[:p]
        b0, s0 = flat[p], flat[p + 1:p + a]
        b1, s1 = flat[p + a], flat[p + a + 1:]
        if (b0 != b1 and string_laws.r2(table, y, s0, int(b0))
                and string_laws.r2(table, y, s1, int(b1))):
            win += w
    return win


def ref_both_parity_mass(com, form) -> float:
    y_law = push_forward(com_to_dcrpuzz(com, form).samp_law(""),
                         lambda s: s[:com.digest_len])
    classes = string_laws.classes(com_table(com))
    return sum(p for y, p in y_law.items() if all(classes[y]))


def ref_col_draws(law: FiniteDist, p_len: int, trials: int, rng):
    """Three scalar FiniteDist.sample calls per trial."""
    groups = ref_groups(law, p_len)
    marg = {puzz: sum(g.values()) for puzz, g in groups.items()}
    marg_law = FiniteDist(marg)
    conds = {puzz: FiniteDist({a: w / marg[puzz] for a, w in g.items()})
             for puzz, g in groups.items()}
    out = []
    for _ in range(trials):
        puzz = marg_law.sample(rng)
        cond = conds[puzz]
        out.append((puzz, cond.sample(rng), cond.sample(rng)))
    return out


def ref_successes(triples, wins) -> int:
    return sum(1 for t in triples if wins(*t))


def ref_law_of_state(scheme: DcrScheme, amps) -> FiniteDist:
    n = scheme.qubits
    probs = {}
    for i, p in enumerate(np.abs(amps) ** 2):
        if p > 1e-14:
            probs[format(i, f"0{n}b")] = p
    full = FiniteDist(probs)
    if scheme.junk_len == 0:
        return full
    return marginal(full, range(scheme.puzz_len + scheme.ans_len))


# -- the signing toy --------------------------------------------------------------

MAC_CASES = [(n, lm) for n in range(1, 5) for lm in range(1, n + 1)]
MAC_CASES += [(5, 1), (5, 3)]


@pytest.mark.parametrize("n,lm", MAC_CASES)
def test_mac_tables_match_the_string_loops(n, lm):
    rng = np.random.default_rng(1000 + 10 * n + lm)
    mac = toy_mac(n, lm, rng)
    law = ref_mac_law(mac)
    assert mac_to_dcrpuzz(mac).samp_law("").to_json() == law.to_json()
    assert abs(mac_break_exact(mac) - ref_mac_break_exact(mac)) <= 1e-12
    assert abs(naive_forge_win_exact(mac)
               - ref_naive_forge_win_exact(mac)) <= 1e-12
    for source in ("col", "duplicate"):
        seed = 7 * n + lm
        report = mac_break_via_collision(mac, 400, np.random.default_rng(seed),
                                         source=source)
        triples = ref_col_draws(law, 2 * n, 400, np.random.default_rng(seed))

        def wins(vk, a, a2):
            if source == "duplicate":
                a2 = a
            return (a[:lm] != a2[:lm] and mac.ver(vk, a[:lm], a[lm:])
                    and mac.ver(vk, a2[:lm], a2[lm:]))

        assert report.successes == ref_successes(triples, wins)


def test_mac_verification_table_is_ver():
    mac = toy_mac(2, 2, np.random.default_rng(11))
    for vk, m, sigma in itertools.product(bits(4), bits(2), bits(2)):
        assert bool(mac.accepts(int(vk, 2), int(m + sigma, 2))) \
            == mac.ver(vk, m, sigma)


@pytest.mark.parametrize("n", range(1, 5))
def test_sign_law_is_the_string_signer(n):
    for lm in range(1, n + 1):
        mac = ToyMac(n, lm, np.arange(1 << 2 * n))
        for x, theta, m in itertools.product(bits(n), bits(n), bits(lm)):
            got = mac.sign_law(x, theta, m)
            assert list(got.items()) \
                == list(string_laws.sign_law(x, theta, m).items())


# the dense tables the atom law replaced: the sign weights
# w[key, m, sigma], P[vk, m, sigma] built by one block add per key,
# V = P > 0, and the win summed over key chunks

POPCOUNT = np.array([bin(i).count("1") for i in range(64)])


def dense_sign_weights(n, lm, messages) -> np.ndarray:
    """w[k, i, sigma]: probability that signing messages[i] under key code
    k = x || theta reads sigma. Codes are big-endian, like the strings."""
    keys = np.arange(1 << (2 * n))
    x = (keys >> (2 * n - lm)).astype(np.uint16)
    theta = ((keys >> (n - lm)) & ((1 << lm) - 1)).astype(np.uint16)
    agree = ~(messages.astype(np.uint16)[None, :] ^ theta[:, None])
    agree &= np.uint16((1 << lm) - 1)
    free = lm - POPCOUNT[agree]
    sigma = np.arange(1 << lm, dtype=np.uint16)
    valid = ((sigma ^ x[:, None, None]) & agree[:, :, None]) == 0
    return np.where(valid, np.ldexp(1.0, -free)[:, :, None], 0.0)


def dense_mac_law(mac) -> np.ndarray:
    n, lm = mac.n, mac.lm
    w = dense_sign_weights(n, lm, np.arange(1 << lm))
    w *= 2.0 ** -(2 * n + lm)
    law = np.zeros((1 << (2 * n), 1 << lm, 1 << lm))
    for k, vk in enumerate(mac.vk_codes.tolist()):
        law[vk] += w[k]
    return law


def dense_mac_break_exact(law: np.ndarray, lm: int) -> float:
    def seq_last(a):
        return np.cumsum(a, axis=-1)[..., -1]

    law = law.reshape(len(law), -1)
    ok = law > 0.0
    present = np.flatnonzero(law.any(axis=1))
    terms = []
    for rows in np.array_split(present, -(-len(present) // 512)):
        mass = seq_last(law[rows])
        q = np.where(ok[rows], law[rows], 0.0) / mass[:, None]
        per_m = seq_last(q.reshape(len(rows), 1 << lm, -1))
        terms.append(mass * (seq_last(q) ** 2 - seq_last(per_m * per_m)))
    return float(seq_last(np.concatenate(terms)))


def dense_naive_forge_win_exact(mac, law: np.ndarray) -> float:
    n, lm = mac.n, mac.lm
    reads = dense_sign_weights(n, lm, np.array([0]))[:, 0]
    ok = law[mac.vk_codes] > 0.0
    both = ok[:, 0] & ok[:, 1 << (lm - 1)]
    return float(np.sum(reads * both)) * 2.0 ** (-2 * n)


def _macs():
    for n, lm in [(4, 3), (5, 5), (6, 3)]:
        yield f"n{n}lm{lm}", toy_mac(n, lm, np.random.default_rng(n + lm))
    for n, lm in [(3, 2), (4, 4)]:
        yield f"n{n}lm{lm}-constant", ToyMac(n, lm, np.zeros(1 << 2 * n,
                                                             dtype=int))


@pytest.mark.parametrize("name,mac", list(_macs()))
def test_mac_atoms_equal_the_dense_tables(name, mac):
    dense = dense_mac_law(mac)
    flat = dense.reshape(-1)
    atoms = np.flatnonzero(flat)
    assert mac_to_dcrpuzz(mac).samp_law("") is mac.law
    assert np.array_equal(mac.law.codes, atoms)
    assert np.array_equal(mac.law.weights, flat[atoms])
    assert mac_break_exact(mac) == dense_mac_break_exact(dense, mac.lm)
    assert naive_forge_win_exact(mac) == dense_naive_forge_win_exact(mac,
                                                                     dense)
    a = 2 * mac.lm
    codes = np.arange(len(flat))
    assert np.array_equal(mac.accepts(codes >> a, codes & ((1 << a) - 1)),
                          flat > 0.0)


@pytest.mark.parametrize("top", [0, 1])
def test_mac_accepts_codes_past_the_last_atom(top):
    n, lm = 2, 2
    vk = top * ((1 << 2 * n) - 1)
    mac = ToyMac(n, lm, np.full(1 << 2 * n, vk))
    last = int(mac.law.codes[-1])
    vks, ans = np.arange(1 << 2 * n), np.arange(1 << 2 * lm)
    got = mac.accepts(vks[:, None], ans[None, :])
    for v, a in itertools.product(vks.tolist(), ans.tolist()):
        assert got[v, a] == mac.ver(format(v, "04b"), format(a >> lm, "02b"),
                                    format(a & 3, "02b"))
    # every code above the last atom searches past the end of the law
    codes = np.arange(last + 1, 1 << 2 * (n + lm))
    assert not mac.accepts(codes >> 2 * lm, codes & 15).any()
    # the top code is the last atom exactly when the table maps to the top vk
    assert bool(mac.accepts((1 << 2 * n) - 1, (1 << 2 * lm) - 1)) == bool(top)
    assert (last == (1 << 2 * (n + lm)) - 1) == bool(top)


def test_mac_tables_need_no_numpy_2_ufunc(monkeypatch):
    # the package supports numpy>=1.24, which has no bitwise_count
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    mac = toy_mac(3, 3, np.random.default_rng(12))
    assert mac_to_dcrpuzz(mac).samp_law("").to_json() \
        == ref_mac_law(mac).to_json()
    assert abs(naive_forge_win_exact(mac)
               - ref_naive_forge_win_exact(mac)) <= 1e-12


# -- the commitment toy ---------------------------------------------------------

def _commitments():
    for n in range(2, 5):
        for c in range(1, n):
            yield f"n{n}c{c}-random", (n, c, "random")
            try:
                balanced_table(n, c)
            except StructureError:
                continue
            yield f"n{n}c{c}-balanced", (n, c, "balanced")


COM_CASES = dict(_commitments())


@pytest.mark.parametrize("case", sorted(COM_CASES))
@pytest.mark.parametrize("form", ["coherent", "literal"])
def test_commitment_tables_match_the_string_loops(case, form):
    n, c, table = COM_CASES[case]
    rng = np.random.default_rng(2000 + 10 * n + c)
    com = (ToyCommitment(n, c, balanced_table(n, c)) if table == "balanced"
           else toy_commitment(n, c, rng))
    scheme = com_to_dcrpuzz(com, form)
    exact = com_break_exact(com, scheme)
    assert abs(exact - ref_com_break_exact(com, scheme)) <= 1e-12
    assert both_parity_mass(com, form) == ref_both_parity_mass(com, form)
    law = scheme.samp_law("")
    table = com_table(com)
    for source in ("col", "duplicate"):
        seed = 3 * n + c
        report = com_break_via_collision(com, 400,
                                         np.random.default_rng(seed),
                                         form=form, source=source)
        triples = ref_col_draws(law, com.digest_len, 400,
                                np.random.default_rng(seed))

        def wins(y, a, a2):
            if source == "duplicate":
                a2 = a
            return (a[0] != a2[0]
                    and string_laws.r2(table, y, a[1:], int(a[0]))
                    and string_laws.r2(table, y, a2[1:], int(a2[0])))

        assert report.successes == ref_successes(triples, wins)
        assert report.exact == (exact if source == "col" else 0.0)
    if form == "literal":
        assert exact == 0.0


def _audit_tables():
    yield "balanced-n3c1", ToyCommitment(3, 1, balanced_table(3, 1))
    yield "balanced-n4c2", ToyCommitment(4, 2, balanced_table(4, 2))
    # each bit's keys all hash to one digest, and two digests have none
    yield "split-n3c1", ToyCommitment(3, 1, np.repeat([0, 1], 32))
    for n, c in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)):
        for seed in range(20):
            yield f"random-n{n}c{c}-{seed}", toy_commitment(
                n, c, np.random.default_rng(5000 + 100 * seed + 10 * n + c))


def test_commitment_audits_match_the_r2_loops():
    # the audits read parity_counts and opens; the references score every
    # preimage with the string receiver, as the audits once did with r2
    for name, com in _audit_tables():
        for p in (1, 2, 8):
            assert (repr(hiding_and_correctness_audit(com, p))
                    == repr(string_laws.hiding_and_correctness_audit(com, p))
                    ), (name, p)
        for form in ("literal", "coherent"):
            assert (algorithm_c_com_success(com, form).hex()
                    == string_laws.algorithm_c_com_success(com, form).hex()
                    ), (name, form)


# -- the collision sampler and the state law --------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_batched_draws_are_the_scalar_stream(seed):
    rng = np.random.default_rng(3000 + seed)
    scheme = random_law_scheme(rng, pp_len=1, puzz_len=1 + seed % 3,
                               ans_len=2 + seed % 2, density=0.6)
    for pp in scheme.setup_law().support:
        sampler = ColSampler(scheme, pp)
        puzz, ans, ans2 = sampler.draw(np.random.default_rng(seed), 500)
        pf, af = f"0{scheme.puzz_len}b", f"0{scheme.ans_len}b"
        got = [(format(p, pf), format(a, af), format(b, af))
               for p, a, b in zip(puzz.tolist(), ans.tolist(), ans2.tolist())]
        want = ref_col_draws(scheme.samp_law(pp), scheme.puzz_len, 500,
                             np.random.default_rng(seed))
        assert got == want


@pytest.mark.parametrize("seed", range(4))
def test_state_law_matches_the_amplitude_loop(seed):
    rng = np.random.default_rng(4000 + seed)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    amps[rng.random(32) < 0.3] *= 1e-8   # some atoms fall below 1e-14
    amps /= np.linalg.norm(amps)
    junk = seed % 2
    scheme = DcrScheme(puzz_len=2, ans_len=3 - junk, junk_len=junk,
                       setup=FiniteDist.point(""), states={"": amps})
    want = ref_law_of_state(scheme, amps)
    assert scheme.samp_law("").to_json() == want.to_json()


def test_results_do_not_depend_on_asserts():
    script = (
        "import numpy as np\n"
        "from ncmlab.primitives import *\n"
        "mac = toy_mac(3, 2, np.random.default_rng(5))\n"
        "r = mac_break_via_collision(mac, 300, np.random.default_rng(6))\n"
        "com = toy_commitment(3, 1, np.random.default_rng(7))\n"
        "s = com_break_via_collision(com, 300, np.random.default_rng(8))\n"
        "print(repr((r.exact, r.successes, s.exact, s.successes,\n"
        "            naive_forge_win_exact(mac), both_parity_mass(com))))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    outs = {subprocess.run([sys.executable, *flags, "-c", script], env=env,
                           capture_output=True, text=True,
                           check=True).stdout
            for flags in ([], ["-O"])}
    assert len(outs) == 1
