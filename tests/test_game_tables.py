"""The toys' integer game tables against the string loops they replaced.

The references below are the bit-string procedures the tables superseded:
the signing law built atom by atom from ``sign_law``, the game values that
call ``ToyMac.ver`` and ``ToyCommitment.r2`` per atom, the collision law's
sum, and the collision sampler that draws puzzle, answer and answer' with
three ``FiniteDist.sample`` calls per trial. The tables must give the same
exact values (to 1e-12) and, for the same seed, the same successes.
"""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from ncmlab.dcrpuzz import ColSampler, DcrScheme, col_law, random_law_scheme
from ncmlab.dist import FiniteDist, marginal, push_forward
from ncmlab.errors import StructureError
from ncmlab.primitives import (
    ToyCommitment,
    balanced_table,
    bits,
    both_parity_mass,
    com_break_exact,
    com_break_via_collision,
    com_to_dcrpuzz,
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
    for key, vk in mac.table.items():
        x, theta = key[:n], key[n:]
        for m in bits(lm):
            for sigma, p in mac.sign_law(x, theta, m).items():
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
    for key, vk in mac.table.items():
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
    p, a = scheme.puzz_len, scheme.ans_len
    win = 0.0
    for flat, w in law.items():
        y = flat[:p]
        b0, s0 = flat[p], flat[p + 1:p + a]
        b1, s1 = flat[p + a], flat[p + a + 1:]
        if (b0 != b1 and com.r2(y, s0, int(b0))
                and com.r2(y, s1, int(b1))):
            win += w
    return win


def ref_both_parity_mass(com, form) -> float:
    y_law = push_forward(com_to_dcrpuzz(com, form).samp_law(""),
                         lambda s: s[:com.digest_len])
    return sum(p for y, p in y_law.items()
               if com.preimage_list(y, 0) and com.preimage_list(y, 1))


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
    for i, a in enumerate(amps):
        p = (a.conjugate() * a).real
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
        assert bool(mac.accepts[int(vk, 2), int(m, 2), int(sigma, 2)]) \
            == mac.ver(vk, m, sigma)


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
            return (a[0] != a2[0] and com.r2(y, a[1:], int(a[0]))
                    and com.r2(y, a2[1:], int(a2[0])))

        assert report.successes == ref_successes(triples, wins)
        assert report.exact == (exact if source == "col" else 0.0)
    if form == "literal":
        assert exact == 0.0


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


def test_table_sampler_rejects_bad_tables():
    with pytest.raises(StructureError):
        ColSampler.from_table(np.ones(4) / 4)
    with pytest.raises(StructureError):
        ColSampler.from_table(np.zeros((2, 2)))


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
