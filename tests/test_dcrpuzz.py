"""Collision-law arithmetic and the two-read oracle identity.

Hand-frozen values:

  samp {000: 1/2, 001: 1/4, 111: 1/4} with a 1-bit puzzle gives the
  collision law {00000: 1/3, 00001: 1/6, 00100: 1/6, 00101: 1/12,
  11111: 1/4}; a constant guesser pinned to 00000 sits at distance 2/3.

  the 3-point state (|00> + |01> + |10>)/sqrt(3) gives collisions
  {000, 001, 010, 011} at 1/6 each plus {100} at 1/3.
"""

import numpy as np
import pytest

from ncmlab.dist import FiniteDist, push_forward, sd
from ncmlab.errors import InstanceTooLargeError, ParseError, StructureError
from ncmlab.dcrpuzz import (
    CollisionTriple,
    DcrScheme,
    FixedTripleAdversary,
    HonestColAdversary,
    OracleColAdversary,
    col,
    col_law,
    col_oracle_gap,
    col_sample,
    dcr_advantage,
    distinct_answer_prob,
    dpp_instance,
    function_scheme,
    load_scheme,
    oracle_col_law,
    random_function_table,
    random_law_scheme,
    save_scheme,
    scheme_from_json,
    scheme_to_json,
    split_triple,
)
from ncmlab.ncmo import oracle_exact


def tiny_scheme():
    samp = FiniteDist({"000": 0.5, "001": 0.25, "111": 0.25})
    return DcrScheme(puzz_len=1, ans_len=2, setup=FiniteDist.point(""),
                     samp_laws={"": samp})


FROZEN_COL = FiniteDist({
    "00000": 1 / 3, "00001": 1 / 6, "00100": 1 / 6, "00101": 1 / 12,
    "11111": 1 / 4,
})


def test_frozen_collision_law():
    assert sd(col_law(tiny_scheme(), ""), FROZEN_COL) <= 1e-12


def test_col_marginals_and_exchangeability():
    scheme = tiny_scheme()
    law = col_law(scheme, "")
    p, a = scheme.puzz_len, scheme.ans_len
    first = push_forward(law, lambda s: s[:p + a])
    second = push_forward(law, lambda s: s[:p] + s[p + a:])
    assert sd(first, scheme.samp_law("")) <= 1e-12
    assert sd(second, scheme.samp_law("")) <= 1e-12
    swapped = push_forward(law, lambda s: s[:p] + s[p + a:] + s[p:p + a])
    assert sd(swapped, law) <= 1e-12


def test_deterministic_sampler_repeats_its_answer():
    scheme = DcrScheme(puzz_len=1, ans_len=1, setup=FiniteDist.point(""),
                       samp_laws={"": FiniteDist.point("10")})
    assert sd(col_law(scheme, ""), FiniteDist.point("100")) <= 1e-12
    rng = np.random.default_rng(0)
    triple = col_sample(scheme, "", rng)
    assert triple.ans == triple.ans2 == "0"


def test_col_dispatcher_modes():
    scheme = tiny_scheme()
    assert isinstance(col(scheme, "", "exact"), FiniteDist)
    triple = col(scheme, "", "sample", np.random.default_rng(1))
    assert isinstance(triple, CollisionTriple)
    with pytest.raises(StructureError):
        col(scheme, "", "sample")
    with pytest.raises(StructureError):
        col(scheme, "", "laplace")


def test_col_sampling_matches_law():
    scheme = tiny_scheme()
    rng = np.random.default_rng(4)
    draws = [col_sample(scheme, "", rng).flat() for _ in range(20000)]
    from ncmlab.dist import empirical
    assert sd(empirical(draws).to_dist(), col_law(scheme, "")) <= 0.02


def test_split_triple_round_trip():
    scheme = tiny_scheme()
    t = split_triple(scheme, "00101")
    assert (t.puzz, t.ans, t.ans2) == ("0", "01", "01")
    assert t.flat() == "00101"
    with pytest.raises(StructureError):
        split_triple(scheme, "0010")


# -- oracle pipeline -------------------------------------------------------------

def test_identity_preparation_gives_all_zero_triples():
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1.0
    scheme = DcrScheme(puzz_len=1, ans_len=1, setup=FiniteDist.point(""),
                       states={"": amps})
    assert sd(oracle_col_law(scheme, ""), FiniteDist.point("000")) <= 1e-12


def test_three_point_state_matches_hand_law():
    amps = np.zeros(4, dtype=complex)
    amps[0b00] = amps[0b01] = amps[0b10] = 1 / np.sqrt(3)
    scheme = DcrScheme(puzz_len=1, ans_len=1, setup=FiniteDist.point(""),
                       states={"": amps})
    want = FiniteDist({"000": 1 / 6, "001": 1 / 6, "010": 1 / 6,
                       "011": 1 / 6, "100": 1 / 3})
    assert sd(col_law(scheme, ""), want) <= 1e-12
    assert sd(oracle_col_law(scheme, ""), want) <= 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_oracle_reproduces_collisions_on_random_schemes(seed):
    rng = np.random.default_rng(3000 + seed)
    scheme = random_law_scheme(rng, pp_len=1, puzz_len=1, ans_len=2)
    for pp in scheme.setup_law().support:
        assert col_oracle_gap(scheme, pp) <= 1e-9


def test_junk_register_is_traced_out():
    # puzzle 0 carries an answer entangled with junk; the reads only see
    # the answer marginal, independently twice
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = 0.5
    amps[0b011] = 0.5
    amps[0b110] = 1 / np.sqrt(2)
    scheme = DcrScheme(puzz_len=1, ans_len=1, junk_len=1,
                       setup=FiniteDist.point(""), states={"": amps})
    assert sd(scheme.samp_law(""),
              FiniteDist({"00": 0.25, "01": 0.25, "11": 0.5})) <= 1e-12
    want = FiniteDist({"000": 0.125, "001": 0.125, "010": 0.125,
                       "011": 0.125, "111": 0.5})
    assert sd(col_law(scheme, ""), want) <= 1e-12
    assert col_oracle_gap(scheme, "") <= 1e-12


def test_dpp_instance_requires_a_state():
    scheme = DcrScheme(puzz_len=1, ans_len=1, junk_len=1,
                       setup=FiniteDist.point(""),
                       samp_laws={"": FiniteDist.uniform(2)})
    assert scheme.state("") is None
    with pytest.raises(StructureError):
        dpp_instance(scheme, "")


def test_law_backed_scheme_purifies_lazily():
    scheme = tiny_scheme()
    circuit = dpp_instance(scheme, "")
    joint = oracle_exact(circuit)
    reads = push_forward(joint, lambda s: s[:3])
    assert sd(reads, scheme.samp_law("")) <= 1e-12


# -- adversaries and advantage ----------------------------------------------------

def test_honest_adversary_has_zero_advantage():
    scheme = tiny_scheme()
    assert dcr_advantage(scheme, HonestColAdversary(scheme)) <= 1e-12


def test_oracle_adversary_has_zero_advantage():
    scheme = tiny_scheme()
    assert dcr_advantage(scheme, OracleColAdversary(scheme)) <= 1e-9


def test_fixed_triple_advantage_is_two_thirds():
    scheme = tiny_scheme()
    adv = FixedTripleAdversary(CollisionTriple("0", "00", "00"))
    assert dcr_advantage(scheme, adv) == pytest.approx(2 / 3, abs=1e-12)
    rng = np.random.default_rng(8)
    emp = dcr_advantage(scheme, adv, mode="empirical", shots=20000, rng=rng)
    assert abs(emp - 2 / 3) <= 0.03
    with pytest.raises(StructureError):
        dcr_advantage(scheme, adv, mode="empirical")
    with pytest.raises(StructureError):
        dcr_advantage(scheme, adv, mode="roughly")


def test_multi_pp_advantage_averages():
    # pp 0 is deterministic (fixed guess perfect there), pp 1 is the tiny
    # scheme's law (fixed guess at distance 2/3); uniform setup averages
    laws = {
        "0": FiniteDist.point("000"),
        "1": FiniteDist({"000": 0.5, "001": 0.25, "111": 0.25}),
    }
    scheme = DcrScheme(puzz_len=1, ans_len=2, setup=FiniteDist.uniform(1),
                       samp_laws=laws)
    adv = FixedTripleAdversary(CollisionTriple("0", "00", "00"))
    assert dcr_advantage(scheme, adv) == pytest.approx(1 / 3, abs=1e-12)


# -- function schemes --------------------------------------------------------------

def test_parity_function_collisions():
    scheme = function_scheme(np.array([0, 1, 1, 0]), 2, 1)
    assert distinct_answer_prob(scheme, "") == pytest.approx(0.5, abs=1e-12)
    assert col_oracle_gap(scheme, "") <= 1e-12


def test_constant_function_collisions():
    scheme = function_scheme(np.zeros(4, dtype=np.int64), 2, 1)
    assert distinct_answer_prob(scheme, "") == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_distinct_preimage_probability_against_brute_force(seed):
    rng = np.random.default_rng(4000 + seed)
    table = random_function_table(rng, 3, 2)
    scheme = function_scheme(table, 3, 2)
    # independent route: enumerate ordered preimage pairs directly
    from collections import Counter
    sizes = Counter(table.tolist())
    brute = 1.0 - sum(count / 8 * (1 / count) for count in sizes.values())
    assert distinct_answer_prob(scheme, "") == pytest.approx(brute, abs=1e-12)


def test_function_table_validation():
    # too few inputs, then an image wider than the puzzle register
    with pytest.raises(StructureError):
        function_scheme(np.zeros(1, dtype=np.int64), 2, 1)
    with pytest.raises(StructureError):
        function_scheme(np.array([2, 0, 0, 0]), 2, 1)


# -- construction and serialization -------------------------------------------------

def test_scheme_validation_rejects_mismatches():
    with pytest.raises(StructureError):
        DcrScheme(puzz_len=1, ans_len=1, setup=FiniteDist.point(""))
    bad_norm = np.ones(4, dtype=complex)
    with pytest.raises(StructureError):
        DcrScheme(puzz_len=1, ans_len=1, setup=FiniteDist.point(""),
                  states={"": bad_norm})
    with pytest.raises(StructureError):
        DcrScheme(puzz_len=1, ans_len=1, setup=FiniteDist.point(""),
                  samp_laws={"": FiniteDist.uniform(3)})
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1.0
    with pytest.raises(StructureError):
        DcrScheme(puzz_len=1, ans_len=1, setup=FiniteDist.point(""),
                  samp_laws={"": FiniteDist.uniform(2)}, states={"": amps})


def test_scheme_json_round_trip_law(tmp_path):
    scheme = tiny_scheme()
    path = tmp_path / "scheme.json"
    save_scheme(scheme, str(path))
    loaded = load_scheme(str(path))
    assert loaded.puzz_len == 1 and loaded.ans_len == 2
    assert sd(loaded.samp_law(""), scheme.samp_law("")) <= 1e-12


def test_scheme_json_round_trip_multi_pp(tmp_path):
    laws = {"0": FiniteDist.point("00"), "1": FiniteDist.uniform(2)}
    scheme = DcrScheme(puzz_len=1, ans_len=1, setup=FiniteDist.uniform(1),
                       samp_laws=laws)
    path = tmp_path / "multi.json"
    save_scheme(scheme, str(path))
    loaded = load_scheme(str(path))
    assert sd(loaded.setup_law(), scheme.setup_law()) <= 1e-12
    for pp in ("0", "1"):
        assert sd(loaded.samp_law(pp), scheme.samp_law(pp)) <= 1e-12


def test_scheme_json_round_trip_junked_state(tmp_path):
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = 0.5
    amps[0b011] = 0.5
    amps[0b110] = 1 / np.sqrt(2)
    scheme = DcrScheme(puzz_len=1, ans_len=1, junk_len=1,
                       setup=FiniteDist.point(""), states={"": amps})
    path = tmp_path / "junked.json"
    save_scheme(scheme, str(path))
    loaded = load_scheme(str(path))
    assert loaded.junk_len == 1
    assert sd(loaded.samp_law(""), scheme.samp_law("")) <= 1e-9
    assert col_oracle_gap(loaded, "") <= 1e-9


def test_scheme_json_round_trip_keeps_a_named_pp():
    # scheme_to_json writes "pp" beside a single law or a circuit source,
    # and the loader's field rules take it back
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = amps[0b011] = 0.5
    amps[0b110] = 1 / np.sqrt(2)
    schemes = [
        DcrScheme(puzz_len=1, ans_len=1, setup=FiniteDist.point("01"),
                  samp_laws={"01": FiniteDist.uniform(2)}),
        DcrScheme(puzz_len=1, ans_len=1, junk_len=1,
                  setup=FiniteDist.point("10"), states={"10": amps}),
    ]
    for scheme in schemes:
        obj = scheme_to_json(scheme)
        pp = obj["pp"]
        loaded = scheme_from_json(obj)
        assert sd(loaded.samp_law(pp), scheme.samp_law(pp)) <= 1e-9


def test_scheme_json_parse_errors():
    with pytest.raises(ParseError):
        scheme_from_json(["not", "a", "dict"])
    with pytest.raises(ParseError):
        scheme_from_json({"puzz_len": 1})
    with pytest.raises(ParseError):
        scheme_from_json({"puzz_len": 1, "ans_len": 2, "source": {}})
    with pytest.raises(ParseError):
        scheme_from_json({"puzz_len": 1, "ans_len": 2,
                          "source": {"laws": {}}})
    good = scheme_to_json(tiny_scheme())
    bad = dict(good)
    bad["source"] = {"law": {"length": 3, "probs": {"000": 2.0}}}
    with pytest.raises(ParseError):
        scheme_from_json(bad)


def test_circuit_source_validation():
    from ncmlab.qsim import circuit_to_json, bell_circuit
    two_step = circuit_to_json(bell_circuit(1, 1))
    with pytest.raises(ParseError):
        scheme_from_json({"puzz_len": 1, "ans_len": 1,
                          "source": {"circuit": two_step,
                                     "puzz_register": 1}})
    prep = circuit_to_json(bell_circuit(0, 0))
    with pytest.raises(ParseError):
        scheme_from_json({"puzz_len": 1, "ans_len": 1,
                          "source": {"circuit": prep, "puzz_register": 2}})
    scheme = scheme_from_json({"puzz_len": 1, "ans_len": 1,
                               "source": {"circuit": prep,
                                          "puzz_register": 1}})
    want = FiniteDist({"00": 0.5, "11": 0.5})
    assert sd(scheme.samp_law(""), want) <= 1e-12


def test_collision_support_guard():
    big = DcrScheme(puzz_len=0, ans_len=12, setup=FiniteDist.point(""),
                    samp_laws={"": FiniteDist.uniform(12)})
    with pytest.raises(InstanceTooLargeError):
        col_law(big, "")
