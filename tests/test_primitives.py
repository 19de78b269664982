"""Games on the toy schemes and their collision attacks.

The signing toy's forgery win under honest collisions is 1 - 2^-lm for any
table: messages are uniform given the verification key and every support
answer verifies, so only the distinctness clause can fail.

The crafted commitment table (two single-parity digest classes of size 2,
two balanced classes of size 30) pins every quantity by hand:

  hiding distance                 1/16
  both-parity digest mass         15/16
  coherent collision break        15/32
  double-opener success           15/16
"""

import ast
import itertools
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import string_laws
from string_laws import bits, com_table, mac_table
from ncmlab import primitives
from ncmlab.dist import FiniteDist, push_forward, sd
from ncmlab.errors import ImpossibleConditionError, StructureError
from ncmlab.dcrpuzz import col_law, col_oracle_gap, random_function_table
from ncmlab.primitives import (
    AuditReport,
    GameReport,
    ToyCommitment,
    ToyMac,
    algorithm_c_com,
    algorithm_c_com_success,
    algorithm_c_mac,
    audit_quantities,
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
from ncmlab.qsim import Circuit, Gate, Step, enumerate_branches


def identity_mac(n: int, lm: int) -> ToyMac:
    return ToyMac(n, lm, np.arange(1 << (2 * n)))


# -- signing: measurement law -----------------------------------------------------

def test_sign_law_frozen_cases():
    mac = identity_mac(2, 2)
    assert sd(mac.sign_law("01", "00", "00"),
              FiniteDist.point("01")) <= 1e-12
    assert sd(mac.sign_law("01", "00", "11"), FiniteDist.uniform(2)) <= 1e-12
    assert sd(mac.sign_law("01", "00", "01"),
              FiniteDist({"00": 0.5, "01": 0.5})) <= 1e-12


@pytest.mark.parametrize("x,theta,m", [
    ("0", "00", "00"),     # short x
    ("011", "00", "00"),   # long x
    ("01", "0", "00"),     # short theta
    ("01", "00", "0a"),    # not a bit string
    ("01", "00", "000"),   # long message
    (1, "00", "00"),       # not a string
])
def test_sign_law_refuses_malformed_bit_strings(x, theta, m):
    mac = identity_mac(2, 2)
    with pytest.raises(StructureError):
        mac.sign_law(x, theta, m)


def test_the_signing_rule_is_written_once():
    # the law, the signer and the forger read one atom rule, and no dense
    # sign weights are picked over with flatnonzero
    imports, flatnonzero, defs, callers = [], [], [], []

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            where = where + (node.name,)
            defs.append(".".join(where))
        if isinstance(node, ast.Import):
            imports.extend(alias.name for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            imports.append(node.module)
        if isinstance(node, ast.Attribute) and node.attr == "flatnonzero":
            flatnonzero.append(".".join(where))
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "_sign_atoms"):
            callers.append(".".join(where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    path = pathlib.Path(primitives.__file__)
    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    assert "itertools" not in imports
    assert flatnonzero == []
    assert "_sign_atoms" in defs and "_sign_weights" not in defs
    assert sorted(callers) == ["ToyMac.law", "ToyMac.sign_law",
                               "naive_forge_win_exact"]


def test_the_code_arrays_are_the_only_tables():
    # no string view of a table is defined, and no method reads one
    tree = ast.parse(pathlib.Path(primitives.__file__).read_text(
        encoding="utf-8"))
    defined = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        defined |= {f"{cls.name}.{node.name}" for node in cls.body
                    if isinstance(node, ast.FunctionDef)}
    assert not defined & {"bits", "ToyMac.table", "ToyMac.preimages",
                          "ToyCommitment.table", "ToyCommitment.classes"}
    reads = [node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "self"
             and node.attr in ("table", "classes")]
    assert reads == []


def test_sign_law_matches_circuit_simulation():
    # encode x in bases theta, then measure in bases m: X gates write x,
    # H gates set the encoding, a second H layer sets the readout basis
    mac = identity_mac(2, 2)
    for x, theta, m in itertools.product(bits(2), bits(2), bits(2)):
        gates = []
        for i in range(2):
            if x[i] == "1":
                gates.append(Gate("x", (i,)))
            if theta[i] == "1":
                gates.append(Gate("h", (i,)))
        for i in range(2):
            if m[i] == "1":
                gates.append(Gate("h", (i,)))
        circuit = Circuit(qubits=2, steps=(Step(gates=tuple(gates),
                                                measure=2),))
        tree = enumerate_branches(circuit)
        outcome = FiniteDist({node.outcomes[0]: node.prob
                              for node in tree.nodes_at(1)})
        assert sd(outcome, mac.sign_law(x, theta, m)) <= 1e-9


def test_matching_bases_reproduce_the_key():
    rng = np.random.default_rng(31)
    mac = toy_mac(3, 2, rng)
    for key in bits(6):
        x, theta = key[:3], key[3:]
        law = mac.sign_law(x, theta, theta[:2])
        assert sd(law, FiniteDist.point(x[:2])) <= 1e-12


def test_honest_signatures_always_verify():
    rng = np.random.default_rng(32)
    mac = toy_mac(3, 2, rng)
    table = mac_table(mac)
    for key in bits(6):
        x, theta = key[:3], key[3:]
        vk = table[key]
        for m in bits(2):
            for sigma in mac.sign_law(x, theta, m).support:
                assert mac.ver(vk, m, sigma)


def test_ver_rejects_flipped_matching_position():
    mac = identity_mac(2, 2)
    # vk = x||theta = "0100"; message equal to theta pins sigma to x
    assert mac.ver("0100", "00", "01")
    assert not mac.ver("0100", "00", "11")
    assert not mac.ver("0100", "00", "0")
    assert not mac.ver("9999", "00", "01")


def _string_ver(mac, vk, m, sigma, pre=None):
    """``ToyMac.ver`` before it read the code rule, frozen as a reference:
    a character loop over vk's preimages that checks only the lengths.
    ``pre`` is the frozen preimage view, built here when not given."""
    if pre is None:
        pre = string_laws.preimages(mac_table(mac), mac.n)
    if len(m) != mac.lm or len(sigma) != mac.lm:
        return False
    for x, theta in pre.get(vk, ()):
        if all(sigma[i] == x[i] for i in range(mac.lm) if m[i] == theta[i]):
            return True
    return False


@pytest.mark.parametrize("m, sigma", [("11", "ab"), ("zz", "01"),
                                      ("1x", "0q")])
def test_ver_refuses_strings_that_are_not_bits(m, sigma):
    mac = identity_mac(2, 2)
    # the character loop never read the characters in these positions
    assert _string_ver(mac, "0100", m, sigma)
    assert not mac.ver("0100", m, sigma)


def test_ver_agrees_with_the_string_rule_on_every_valid_input():
    rng = np.random.default_rng(66)
    for n in (1, 2, 3):
        tables = (np.arange(1 << 2 * n), np.zeros(1 << 2 * n, dtype=int),
                  random_function_table(rng, 2 * n, 2 * n))
        for lm, table in itertools.product(range(1, n + 1), tables):
            mac = ToyMac(n, lm, table)
            pre = string_laws.preimages(mac_table(mac), n)
            for vk, m, sigma in itertools.product(bits(2 * n), bits(lm),
                                                  bits(lm)):
                assert (mac.ver(vk, m, sigma)
                        == _string_ver(mac, vk, m, sigma, pre))


def test_mac_constructor_validation():
    with pytest.raises(StructureError):
        ToyMac(0, 1, np.zeros(1, dtype=np.int64))
    with pytest.raises(StructureError):
        ToyMac(2, 3, np.arange(16))
    # a table that misses keys, and one that is not one code per key
    with pytest.raises(StructureError):
        ToyMac(2, 2, np.arange(8))
    with pytest.raises(StructureError):
        ToyMac(2, 2, np.arange(16).reshape(4, 4))
    # values past 2n bits, negative, or not integer codes
    with pytest.raises(StructureError):
        ToyMac(2, 2, np.arange(1, 17))
    with pytest.raises(StructureError):
        ToyMac(2, 2, -np.arange(16))
    with pytest.raises(StructureError):
        ToyMac(2, 2, np.arange(16) * 1.0)


# -- signing: the collision attack ---------------------------------------------------

def test_mac_scheme_puzzle_marginal_is_the_vk_law():
    rng = np.random.default_rng(33)
    mac = toy_mac(2, 2, rng)
    scheme = mac_to_dcrpuzz(mac)
    marg = push_forward(scheme.samp_law(""), lambda s: s[:4])
    assert sd(marg, mac.vk_law()) <= 1e-12


@pytest.mark.parametrize("n,lm,seed", [(2, 2, 0), (2, 1, 1), (3, 3, 2)])
def test_collision_win_is_one_minus_two_to_minus_lm(n, lm, seed):
    rng = np.random.default_rng(100 + seed)
    mac = toy_mac(n, lm, rng)
    assert mac_break_exact(mac) == pytest.approx(1 - 2 ** -lm, abs=1e-12)
    assert mac_break_exact(identity_mac(n, lm)) == pytest.approx(
        1 - 2 ** -lm, abs=1e-12)


def test_mac_game_empirical_tracks_exact():
    rng = np.random.default_rng(34)
    mac = toy_mac(2, 2, rng)
    report = mac_break_via_collision(mac, 5000, rng)
    assert report.exact == pytest.approx(0.75, abs=1e-12)
    assert abs(report.rate - 0.75) <= 0.03
    assert report.game == "mac-forgery[col]"


def test_duplicate_answers_never_win():
    rng = np.random.default_rng(35)
    mac = toy_mac(2, 2, rng)
    report = mac_break_via_collision(mac, 2000, rng, source="duplicate")
    assert report.successes == 0 and report.exact == 0.0
    with pytest.raises(StructureError):
        mac_break_via_collision(mac, 10, rng, source="telepathy")


def algorithm_c_mac_law(mac) -> FiniteDist:
    """Exact law of the rejection sampler's (vk, m, sigma, m', sigma'),
    from the frozen string signer."""
    n, lm = mac.n, mac.lm
    key_w = 1.0 / (1 << (2 * n))
    m_w = 1.0 / (1 << lm)
    probs: dict[str, float] = {}
    table = mac_table(mac)
    preimages = string_laws.preimages(table, n)
    for key, vk in table.items():
        x, theta = key[:n], key[n:]
        pre = preimages[vk]
        for m in bits(lm):
            first = string_laws.sign_law(x, theta, m)
            for sigma, p1 in first.items():
                base = key_w * m_w * p1
                for x2, theta2 in pre:
                    for m2 in bits(lm):
                        second = string_laws.sign_law(x2, theta2, m2)
                        for sigma2, p2 in second.items():
                            flat = vk + m + sigma + m2 + sigma2
                            w = base * m_w * p2 / len(pre)
                            probs[flat] = probs.get(flat, 0.0) + w
    return FiniteDist(probs)


def test_reference_sampler_law_equals_collisions():
    rng = np.random.default_rng(36)
    mac = toy_mac(2, 1, rng)
    scheme = mac_to_dcrpuzz(mac)
    assert sd(algorithm_c_mac_law(mac), col_law(scheme, "")) <= 1e-9


def test_reference_sampler_retries():
    constant = ToyMac(2, 1, np.zeros(16, dtype=np.int64))
    rng = np.random.default_rng(37)
    for _ in range(20):
        *_, retries = algorithm_c_mac(constant, rng)
        assert retries == 0
    small = toy_mac(1, 1, rng)
    expected = len(small.vk_law()) - 1  # mean of the mixed geometric
    total = sum(algorithm_c_mac(small, rng)[-1] for _ in range(3000))
    assert abs(total / 3000 - expected) <= 0.4


def test_naive_forger_against_brute_force():
    rng = np.random.default_rng(38)
    for mac in (identity_mac(2, 2), toy_mac(2, 2, rng)):
        # independent route: enumerate keys and full single-measurement
        # readouts with their exact weights
        win = 0.0
        table = mac_table(mac)
        for key in bits(4):
            x, theta = key[:2], key[2:]
            vk = table[key]
            for z in bits(2):
                w = 1.0
                for i in range(2):
                    if theta[i] == "0":
                        if z[i] != x[i]:
                            w = 0.0
                    else:
                        w *= 0.5
                if w and mac.ver(vk, "00", z) and mac.ver(vk, "10", z):
                    win += w / 16
        assert naive_forge_win_exact(mac) == pytest.approx(win, abs=1e-12)
        assert win < 1.0
    assert naive_forge_win_exact(identity_mac(2, 2)) == pytest.approx(
        0.75, abs=1e-12)


# -- commitment: structure -----------------------------------------------------------

CRAFTED = ToyCommitment(3, 1, balanced_table(3, 1))


def test_balanced_table_shape():
    table = balanced_table(3, 1)
    assert table.shape == (64,) and table.dtype == np.int64
    # digest codes 0..3 are "00".."11"; keys 0..31 commit to 0, 32..63 to 1
    assert np.bincount(table).tolist() == [30, 30, 2, 2]
    assert np.bincount(table[:32], minlength=4).tolist() == [15, 15, 2, 0]
    assert np.bincount(table[32:], minlength=4).tolist() == [15, 15, 0, 2]
    with pytest.raises(StructureError):
        balanced_table(2, 1)  # only two digests, nothing left to balance


def test_crafted_hiding_distance():
    assert CRAFTED.hiding_sd() == pytest.approx(1 / 16, abs=1e-12)
    assert sd(CRAFTED.s1_law(0), FiniteDist(
        {"00": 15 / 32, "01": 15 / 32, "10": 2 / 32})) <= 1e-12
    assert sd(CRAFTED.s1_law(1), FiniteDist(
        {"00": 15 / 32, "01": 15 / 32, "11": 2 / 32})) <= 1e-12


def test_commitment_correctness_exhaustive():
    for b in (0, 1):
        for y in CRAFTED.s1_law(b).support:
            pre = CRAFTED.preimage_list(y, b)
            assert pre
            for s2 in pre:
                assert CRAFTED.r2(y, s2, b)


def test_receiver_rejects_garbage():
    y = CRAFTED.s1_law(0).support[0]
    s2 = CRAFTED.preimage_list(y, 0)[0]
    assert not CRAFTED.r2(y, s2, 1)          # wrong bit
    other = "11" if y != "11" else "00"
    assert not CRAFTED.r2(other, s2, 0)      # wrong digest
    assert not CRAFTED.r2(y, s2[:-1], 0)     # wrong width


@pytest.mark.parametrize("b", [-1, 2, "1", None, "0", 1.0, np.float64(0.0),
                               np.True_, np.array([0, 1]), 1 + 0j])
def test_committed_bit_must_be_zero_or_one(b):
    # one rule for every method: where the others refuse b, r2 rejects
    rng = np.random.default_rng(45)
    for call in (lambda: CRAFTED.s1_law(b), lambda: CRAFTED.s1(b, rng),
                 lambda: CRAFTED.preimage_list("00", b),
                 lambda: CRAFTED.preimage_list("zz", b)):
        with pytest.raises(StructureError):
            call()
    for bit in (0, 1):
        y = CRAFTED.s1_law(bit).support[0]
        assert not CRAFTED.r2(y, CRAFTED.preimage_list(y, bit)[0], b)


@pytest.mark.parametrize("b", [0, 1, False, True, np.int64(1), np.uint8(0)])
def test_committed_bit_is_any_integer_zero_or_one(b):
    y = CRAFTED.s1_law(int(b)).support[-1]
    keys = CRAFTED.preimage_list(y, b)
    assert keys == CRAFTED.preimage_list(y, int(b))
    assert CRAFTED.s1_law(b).to_json() == CRAFTED.s1_law(int(b)).to_json()
    assert all(CRAFTED.r2(y, k, b) for k in keys)
    assert not any(CRAFTED.r2(y, k, 1 - int(b)) for k in keys)


def test_returned_lists_are_not_shared():
    com = ToyCommitment(3, 1, balanced_table(3, 1))  # CRAFTED's own table
    rng = np.random.default_rng(46)
    want = {(y, b): com.preimage_list(y, b) for y in bits(2) for b in (0, 1)}
    for b in (0, 1):
        for _ in range(20):
            y, support = com.s1(b, rng)
            support.append("000000")
            com.preimage_list(y, b).clear()
            com.preimage_list(y, 1 - b).append("111111")
    assert {key: com.preimage_list(*key) for key in want} == want
    assert len(want["00", 0]) == 15


def test_commitment_constructor_validation():
    with pytest.raises(StructureError):
        ToyCommitment(1, 1, np.zeros(4, dtype=np.int64))
    with pytest.raises(StructureError):
        ToyCommitment(3, 3, balanced_table(3, 1))
    # a table that misses keys, and digests wider than n - c bits
    with pytest.raises(StructureError):
        ToyCommitment(3, 1, np.zeros(1, dtype=np.int64))
    with pytest.raises(StructureError):
        ToyCommitment(3, 1, np.full(64, 4))


def test_random_table_correctness():
    rng = np.random.default_rng(39)
    com = toy_commitment(2, 1, rng)
    for b in (0, 1):
        for y in com.s1_law(b).support:
            for s2 in com.preimage_list(y, b):
                assert com.r2(y, s2, b)


# -- commitment: the collision attack -------------------------------------------------

def test_coherent_scheme_structure():
    scheme = com_to_dcrpuzz(CRAFTED, "coherent")
    samp = scheme.samp_law("")
    table = com_table(CRAFTED)
    y_marg = push_forward(samp, lambda s: s[:2])
    assert sd(y_marg, FiniteDist({"00": 15 / 32, "01": 15 / 32,
                                  "10": 1 / 32, "11": 1 / 32})) <= 1e-12
    for flat in samp.support:
        b, key = flat[2], flat[3:]
        assert b == key[0]                    # the bit rides on the key
        assert table[key] == flat[:2]
    with pytest.raises(StructureError):
        com_to_dcrpuzz(CRAFTED, "diagonal")


def test_literal_scheme_structure():
    scheme = com_to_dcrpuzz(CRAFTED, "literal")
    for flat in scheme.samp_law("").support:
        assert flat[3] == "0"                 # every key opens to bit 0
    b_marg = push_forward(scheme.samp_law(""), lambda s: s[2])
    assert sd(b_marg, FiniteDist.uniform(1)) <= 1e-12


def test_coherent_break_matches_hand_value_and_formula():
    scheme = com_to_dcrpuzz(CRAFTED, "coherent")
    win = com_break_exact(CRAFTED, scheme)
    assert win == pytest.approx(15 / 32, abs=1e-12)
    assert both_parity_mass(CRAFTED) == pytest.approx(15 / 16, abs=1e-12)
    assert win == pytest.approx(0.5 * both_parity_mass(CRAFTED), abs=1e-12)


@pytest.mark.parametrize("n,c,seed", [(2, 1, 0), (3, 1, 1), (3, 2, 2)])
def test_coherent_break_equals_parity_product_formula(n, c, seed):
    rng = np.random.default_rng(200 + seed)
    com = toy_commitment(n, c, rng)
    scheme = com_to_dcrpuzz(com, "coherent")
    # independent route: success is E_y[2 p0(y) p1(y)] over the digest law
    total = 1 << (2 * n)
    expect = 0.0
    for y, (zero, one) in string_laws.classes(com_table(com)).items():
        size = len(zero) + len(one)
        p0, p1 = len(zero) / size, len(one) / size
        expect += (size / total) * 2 * p0 * p1
    assert com_break_exact(com, scheme) == pytest.approx(expect, abs=1e-12)


def test_literal_break_is_exactly_zero():
    scheme = com_to_dcrpuzz(CRAFTED, "literal")
    assert com_break_exact(CRAFTED, scheme) == 0.0
    rng = np.random.default_rng(40)
    com = toy_commitment(3, 1, rng)
    assert com_break_exact(com, com_to_dcrpuzz(com, "literal")) == 0.0


def test_commitment_game_empirical_tracks_exact():
    rng = np.random.default_rng(41)
    report = com_break_via_collision(CRAFTED, 5000, rng, form="coherent")
    assert report.exact == pytest.approx(15 / 32, abs=1e-12)
    assert abs(report.rate - 15 / 32) <= 0.03
    dup = com_break_via_collision(CRAFTED, 1000, rng, source="duplicate")
    assert dup.successes == 0
    with pytest.raises(StructureError):
        com_break_via_collision(CRAFTED, 10, rng, source="osmosis")


def test_coherent_scheme_matches_oracle_pipeline():
    scheme = com_to_dcrpuzz(CRAFTED, "coherent")
    assert col_oracle_gap(scheme, "") <= 1e-9
    literal = com_to_dcrpuzz(CRAFTED, "literal")
    assert col_oracle_gap(literal, "") <= 1e-9


# -- the double-opener ---------------------------------------------------------------

def test_double_opener_literal_always_fails_the_second_check():
    rng = np.random.default_rng(42)
    for _ in range(50):
        y, s2, s2p = algorithm_c_com(CRAFTED, rng, form="literal")
        assert CRAFTED.r2(y, s2, 0)
        assert not CRAFTED.r2(y, s2p, 1)
    assert algorithm_c_com_success(CRAFTED, "literal") == 0.0


def test_double_opener_coherent_succeeds_on_both_parity_digests():
    rng = np.random.default_rng(43)
    seen_pair = False
    for _ in range(60):
        try:
            y, s2, s2p = algorithm_c_com(CRAFTED, rng, form="coherent")
        except ImpossibleConditionError:
            continue
        assert CRAFTED.r2(y, s2, 0) and CRAFTED.r2(y, s2p, 1)
        seen_pair = True
    assert seen_pair
    assert algorithm_c_com_success(CRAFTED, "coherent") == pytest.approx(
        15 / 16, abs=1e-12)
    with pytest.raises(StructureError):
        algorithm_c_com(CRAFTED, rng, form="sideways")


def test_double_opener_raises_on_single_parity_digests():
    # a table whose digest is the committed bit itself: conditioning the
    # superposed sender on (digest, bit 1) is impossible for digest 0
    com = ToyCommitment(2, 1, np.arange(16) >> 3)
    rng = np.random.default_rng(44)
    with pytest.raises(ImpossibleConditionError):
        for _ in range(10):
            algorithm_c_com(com, rng, form="coherent")
    assert both_parity_mass(com) == 0.0
    assert com_break_exact(com, com_to_dcrpuzz(com, "coherent")) == 0.0


# -- the audit ------------------------------------------------------------------------

def test_audit_on_the_crafted_table():
    report = hiding_and_correctness_audit(CRAFTED, p=8)
    # digests are scanned under the bit-0 commit law, so "11" never enters
    assert report.g0 == ("00", "01", "10")
    assert report.g1 == ("00", "01")
    assert report.good_mass == pytest.approx(15 / 16, abs=1e-12)
    assert report.bound == pytest.approx(15 / 16 * (7 / 8) ** 2, abs=1e-12)
    assert report.both_open == pytest.approx(15 / 16, abs=1e-12)
    assert report.hiding_sd == pytest.approx(1 / 16, abs=1e-12)
    assert report.holds


def test_audit_does_not_depend_on_the_hash_seed():
    script = (
        "import numpy as np\n"
        "from ncmlab.primitives import *\n"
        "for com in (ToyCommitment(3, 1, balanced_table(3, 1)),\n"
        "            toy_commitment(4, 2, np.random.default_rng(9))):\n"
        "    print(repr(hiding_and_correctness_audit(com, p=8)))\n")
    outs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        outs.add(subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True,
                                check=True).stdout)
    assert len(outs) == 1
    ordered = "success0={'00': 1.0, '01': 1.0, '10': 1.0, '11': 0.0}"
    assert ordered in outs.pop()


def test_audit_degenerate_threshold():
    report = hiding_and_correctness_audit(CRAFTED, p=1)
    assert report.bound == 0.0
    assert report.good_mass == 1.0
    assert report.holds


def test_audit_abstract_ideal_scheme():
    y_law = FiniteDist.uniform(1)
    ones = {y: 1.0 for y in y_law.support}
    report = audit_quantities(y_law, ones, ones, hiding=0.0, p=4)
    assert report.bound == pytest.approx(9 / 16, abs=1e-12)
    assert report.both_open == 1.0
    assert report.holds
    with pytest.raises(StructureError):
        audit_quantities(y_law, ones, ones, hiding=0.0, p=0.5)


def test_game_report_validation():
    with pytest.raises(StructureError):
        GameReport(game="g", trials=2, successes=3)
    report = GameReport(game="g", trials=0, successes=0, exact=0.25)
    assert report.rate == 0.25
    with pytest.raises(StructureError):
        GameReport(game="g", trials=0, successes=0).rate
