import ast
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncmlab
from ncmlab.dist import (
    EmpiricalDist,
    FiniteDist,
    condition,
    empirical,
    empirical_codes,
    marginal,
    mixture,
    product,
    push_forward,
    ragged_arange,
    ragged_blocks,
    run_numbers,
    runs,
    sd,
)
from ncmlab.errors import (
    ImpossibleConditionError,
    InstanceTooLargeError,
    StructureError,
)

import string_laws

ATOL = 1e-9


def dist_strategy(length: int, max_support: int = 8):
    """Random FiniteDist over {0,1}^length with small support."""
    keys = [format(i, f"0{length}b") for i in range(1 << length)]

    @st.composite
    def build(draw):
        support = draw(st.lists(st.sampled_from(keys), min_size=1,
                                max_size=min(max_support, len(keys)),
                                unique=True))
        weights = [draw(st.integers(min_value=1, max_value=20))
                   for _ in support]
        total = sum(weights)
        return FiniteDist({k: w / total for k, w in zip(support, weights)})

    return build()


def test_validity_rejects_bad_input():
    with pytest.raises(StructureError):
        FiniteDist({"0": 0.5, "1": 0.6})          # sums to 1.1
    with pytest.raises(StructureError):
        FiniteDist({"0": -0.1, "1": 1.1})         # negative entry
    with pytest.raises(StructureError):
        FiniteDist({"0": 0.5, "01": 0.5})         # mixed lengths
    with pytest.raises(StructureError):
        FiniteDist({"0x": 1.0})                   # non-bit key
    with pytest.raises(StructureError):
        FiniteDist({})                            # empty support


def test_validity_rejects_non_finite_weights():
    # a NaN total compares False against the tolerance, so it needs its own
    # check
    for bad in (float("nan"), float("inf")):
        with pytest.raises(StructureError):
            FiniteDist({"0": bad, "1": 1.0})
    for probs in ([0.5, 0.5], "01"):
        with pytest.raises(StructureError):
            FiniteDist.from_json({"length": 1, "probs": probs})


def test_validity_tolerance_boundary():
    FiniteDist({"0": 0.5, "1": 0.5 + 0.9e-9})     # inside 1e-9, accepted
    with pytest.raises(StructureError):
        FiniteDist({"0": 0.5, "1": 0.5 + 1e-8})   # outside, rejected


def test_zero_entries_dropped():
    d = FiniteDist({"00": 1.0, "01": 0.0})
    assert d.support == ["00"]
    assert d.prob("01") == 0.0


def test_condition_worked_example():
    # Brute force by hand: keys starting with '0' are 00 (1/2) and 01 (1/4),
    # mass 3/4, so the suffix law is {0: 2/3, 1: 1/3}.
    d = FiniteDist({"00": 0.5, "01": 0.25, "11": 0.25})
    c = condition(d, "0")
    assert c.length == 1
    assert abs(c.prob("0") - 2.0 / 3.0) <= ATOL
    assert abs(c.prob("1") - 1.0 / 3.0) <= ATOL


def test_condition_zero_mass_prefix():
    d = FiniteDist({"00": 0.5, "01": 0.5})
    with pytest.raises(ImpossibleConditionError):
        condition(d, "1")


def test_condition_full_length_prefix():
    d = FiniteDist({"00": 0.5, "01": 0.5})
    c = condition(d, "01")
    assert c.length == 0
    assert c.prob("") == 1.0


def test_push_forward_marginalization():
    # Dropping the second bit of a product law recovers the first marginal.
    d = FiniteDist({"00": 0.12, "01": 0.28, "10": 0.18, "11": 0.42})
    m = push_forward(d, lambda s: s[0])
    assert abs(m.prob("0") - 0.4) <= ATOL
    assert abs(m.prob("1") - 0.6) <= ATOL
    m2 = marginal(d, [0])
    assert sd(m, m2) <= ATOL


def test_push_forward_rejects_mixed_lengths():
    d = FiniteDist({"00": 0.5, "01": 0.5})
    with pytest.raises(StructureError):
        push_forward(d, lambda s: s[1:] if s == "00" else s)


def test_product_and_mixture():
    a = FiniteDist({"0": 0.25, "1": 0.75})
    b = FiniteDist({"0": 0.5, "1": 0.5})
    p = product([a, b])
    assert abs(p.prob("10") - 0.375) <= ATOL
    m = mixture([(0.5, a), (0.5, b)])
    assert abs(m.prob("0") - 0.375) <= ATOL
    assert abs(m.prob("1") - 0.625) <= ATOL


def test_sd_length_mismatch_is_structural():
    with pytest.raises(StructureError):
        sd(FiniteDist({"0": 1.0}), FiniteDist({"00": 1.0}))


def test_sd_does_not_depend_on_the_string_hash_seed():
    # Reports carry sd values, and equal configurations must give equal
    # bytes in every process, whatever PYTHONHASHSEED is.
    script = (
        "import numpy as np\n"
        "from ncmlab.dist import FiniteDist, sd\n"
        "rng = np.random.default_rng(4)\n"
        "def law():\n"
        "    w = rng.random(64) * (rng.random(64) < 0.7)\n"
        "    return FiniteDist({format(i, '06b'): v for i, v in\n"
        "                       enumerate(w / w.sum())})\n"
        "print(repr(sum(sd(law(), law()) for _ in range(20))))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    outs = set()
    for hash_seed in ("0", "1", "2", "3"):
        env["PYTHONHASHSEED"] = hash_seed
        outs.add(subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True,
                                check=True).stdout)
    assert len(outs) == 1


def test_sampling_deterministic_for_fixed_seed():
    d = FiniteDist({"00": 0.5, "01": 0.25, "10": 0.125, "11": 0.125})
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(12345)
        runs.append([d.sample(rng) for _ in range(50)])
    assert runs[0] == runs[1]
    rng = np.random.default_rng(12345)
    assert d.sample_many(rng, 50) == d.sample_many(np.random.default_rng(12345), 50)


def test_sampling_law_of_large_numbers():
    # 1e5 draws from a known 3-bit law land within 0.01 of the truth.
    rng = np.random.default_rng(7)
    probs = {format(i, "03b"): w for i, w in enumerate(
        [0.05, 0.10, 0.15, 0.20, 0.05, 0.05, 0.25, 0.15])}
    d = FiniteDist(probs)
    emp = empirical(d.sample_many(rng, 100_000)).to_dist()
    assert sd(emp, d) <= 0.01


def test_empirical_counts():
    e = empirical(["01", "01", "10", "01"])
    assert e.shots == 4
    assert e.counts == {"01": 3, "10": 1}
    assert abs(e.to_dist().prob("01") - 0.75) <= ATOL
    with pytest.raises(StructureError):
        empirical([])
    with pytest.raises(StructureError):
        empirical(["0", "00"])


@pytest.mark.parametrize("width,fields,high", [
    (1, 1, 2), (3, 2, 8), (4, 3, 3), (12, 2, 1 << 12), (5, 4, 32)])
def test_empirical_codes_equals_empirical_of_strings(width, fields, high):
    rng = np.random.default_rng(width * 10 + fields)
    rows = rng.integers(0, high, size=(5000, fields))
    strings = ["".join(format(v, f"0{width}b") for v in row)
               for row in rows.tolist()]
    coded = empirical_codes(rows, width)
    plain = empirical(strings)
    assert coded.shots == plain.shots == 5000
    assert coded.counts == plain.counts
    assert list(coded.counts) == sorted(plain.counts)
    assert coded.to_dist().to_json() == plain.to_dist().to_json()


def test_empirical_codes_rejects_bad_input():
    with pytest.raises(StructureError):
        empirical_codes(np.empty((0, 2), dtype=np.int64), 3)
    with pytest.raises(StructureError):
        empirical_codes(np.zeros((4, 0), dtype=np.int64), 3)
    with pytest.raises(StructureError):
        empirical_codes(np.zeros(4, dtype=np.int64), 3)
    with pytest.raises(StructureError):
        empirical_codes(np.array([[0, 8]]), 3)
    with pytest.raises(StructureError):
        empirical_codes(np.array([[0, -1]]), 3)
    with pytest.raises(StructureError):
        empirical_codes(np.array([[0.0, 1.0]]), 3)


def test_json_round_trip():
    d = FiniteDist({"00": 0.5, "01": 0.25, "11": 0.25})
    blob = json.dumps(d.to_json())
    d2 = FiniteDist.from_json(json.loads(blob))
    assert sd(d, d2) == 0.0
    assert d2.length == 2
    with pytest.raises(StructureError):
        FiniteDist.from_json({"length": 3, "probs": {"00": 1.0}})


# -- metric and calculus properties ----------------------------------------

@settings(max_examples=60, deadline=None)
@given(dist_strategy(3), dist_strategy(3))
def test_sd_is_a_bounded_metric(p, q):
    v = sd(p, q)
    assert -ATOL <= v <= 1.0 + ATOL
    assert abs(sd(p, q) - sd(q, p)) <= ATOL
    assert sd(p, p) <= ATOL


@settings(max_examples=60, deadline=None)
@given(dist_strategy(3), dist_strategy(3), dist_strategy(3))
def test_sd_triangle_inequality(p, q, r):
    assert sd(p, r) <= sd(p, q) + sd(q, r) + ATOL


@settings(max_examples=60, deadline=None)
@given(dist_strategy(3), dist_strategy(3))
def test_data_processing_inequality(p, q):
    # Any deterministic map contracts statistical distance.
    for f in (lambda s: s[:2], lambda s: s[::-1],
              lambda s: "1" if s.count("1") % 2 else "0",
              lambda s: "00"):
        assert sd(push_forward(p, f), push_forward(q, f)) <= sd(p, q) + ATOL


@settings(max_examples=60, deadline=None)
@given(dist_strategy(2), dist_strategy(2), dist_strategy(2), dist_strategy(2))
def test_sd_chain_rule_on_products(p1, p2, q1, q2):
    # sd(p1 x p2, q1 x q2) <= sd(p1, q1) + sd(p2, q2)
    lhs = sd(product([p1, p2]), product([q1, q2]))
    assert lhs <= sd(p1, q1) + sd(p2, q2) + ATOL


@settings(max_examples=40, deadline=None)
@given(dist_strategy(3))
def test_condition_reconstructs_joint(d):
    # Mixing the prefix marginal with the conditional suffix laws restores d.
    pre = marginal(d, [0])
    parts = []
    for u in pre.support:
        suf = condition(d, u)
        parts.append((pre.prob(u), push_forward(suf, lambda s, u=u: u + s)))
    assert sd(mixture(parts), d) <= ATOL


# -- the code algebra against the frozen string algebra ----------------------

def _same_atoms(got, want):
    assert list(got.items()) == list(want.items())


@settings(max_examples=60, deadline=None)
@given(dist_strategy(3), dist_strategy(2), dist_strategy(3),
       st.floats(min_value=0.0, max_value=1.0))
def test_code_algebra_equals_the_string_algebra(p, q, r, w):
    _same_atoms(product([p, q, r]), string_laws.product([p, q, r]))
    _same_atoms(product([]), string_laws.product([]))
    assert sd(p, r) == string_laws.sd(p, r)
    assert sd(r, p) == string_laws.sd(r, p)
    parts = [(w, p), (1.0 - w, r)]
    _same_atoms(mixture(parts), string_laws.mixture(parts))
    for positions in ([0], [2, 0], [1, 2], [0, 1, 2], [2, 2]):
        _same_atoms(marginal(p, positions),
                    string_laws.marginal(p, positions))
    for key in p.support:
        for prefix in (key[:1], key[:2], key):
            _same_atoms(condition(p, prefix),
                        string_laws.condition(p, prefix))


@pytest.mark.parametrize("key", [None, 0, 1, b"01", ["0", "1"], "x", "0b1",
                                 " 01", "0_1", "+1", "-1", "0", "000", "",
                                 "٠١"])
def test_prob_and_in_take_any_key(key):
    d = FiniteDist({"01": 0.5, "11": 0.5})
    assert d.prob(key) == 0.0
    assert key not in d
    assert d.prob("01") == 0.5 and "11" in d


def test_code_constructor_merges_in_input_order():
    d = FiniteDist.from_codes(2, [3, 1, 3, 0, 1], [0.1, 0.2, 0.3, 0.0, 0.4])
    assert d.support == ["01", "11"]
    assert list(d.items()) == [("01", 0.2 + 0.4), ("11", 0.1 + 0.3)]
    # each code's float sum depends on the order of its many weights, and
    # the runs are long enough that an unstable sort reorders them
    rng = np.random.default_rng(11)
    codes = rng.integers(0, 3, size=400)
    weights = rng.random(400) * 10.0 ** rng.integers(-17, 1, size=400)
    d = FiniteDist.from_codes(2, codes, weights)
    for code in range(3):
        total = 0.0
        for w in weights[codes == code].tolist():
            total += w
        assert d.weights[code] == total
        assert total != sum(sorted(weights[codes == code].tolist()))
    with pytest.raises(StructureError):
        FiniteDist.from_codes(2, [4], [1.0])
    with pytest.raises(StructureError):
        FiniteDist.from_codes(2, [1], [0.0])
    with pytest.raises(InstanceTooLargeError):
        FiniteDist.from_codes(63, [0], [1.0])
    with pytest.raises(InstanceTooLargeError):
        FiniteDist({"0" * 63: 1.0})
    with pytest.raises(StructureError):
        FiniteDist.point(5)


@pytest.mark.parametrize("keys", [[5], [1, 1, 1], [0, 0, 2, 3, 3, 3, 9]])
def test_runs_group_a_sorted_array(keys):
    keys = np.array(keys)
    starts, lengths = runs(keys)
    assert np.array_equal(keys[starts], np.unique(keys))
    assert np.array_equal(lengths, np.unique(keys, return_counts=True)[1])
    assert np.array_equal(run_numbers(lengths),
                          np.unique(keys, return_inverse=True)[1])


@pytest.mark.parametrize("fields", [1, 2, 3])
def test_runs_group_lexsorted_rows(fields):
    rng = np.random.default_rng(fields)
    rows = rng.integers(0, 3, size=(60, fields))
    rows = rows[np.lexsort(rows.T[::-1])]
    starts, lengths = runs(rows)
    distinct, counts = np.unique(rows, axis=0, return_counts=True)
    assert np.array_equal(rows[starts], distinct)
    assert np.array_equal(lengths, counts)


def test_ragged_arange_concatenates_each_range():
    rng = np.random.default_rng(3)
    starts = rng.integers(0, 50, size=40)
    lengths = rng.integers(0, 6, size=40)
    lengths[:2] = 0
    expect = []
    for s, k in zip(starts.tolist(), lengths.tolist()):
        expect.extend(range(s, s + k))
    assert ragged_arange(starts, lengths).tolist() == expect
    assert ragged_arange(np.array([7]), np.array([3])).tolist() == [7, 8, 9]


def test_ragged_blocks_reduce_like_each_row():
    rng = np.random.default_rng(5)
    lengths = rng.integers(0, 300, size=80)
    lengths[:3] = (0, 7, 7)
    flat = rng.random(int(lengths.sum())) ** 3
    starts = np.cumsum(lengths) - lengths
    seen = []
    for rows, at in ragged_blocks(lengths):
        assert len(set(lengths[rows].tolist())) == 1
        assert list(rows) == sorted(rows)
        block = flat[at]
        for i, r in enumerate(rows.tolist()):
            row = flat[starts[r]:starts[r] + lengths[r]]
            assert np.array_equal(block[i], row)
            assert block[i].sum() == block.sum(axis=1)[i] == row.sum()
            assert np.array_equal(np.cumsum(block, axis=1)[i], np.cumsum(row))
        seen.extend(rows.tolist())
    assert sorted(seen) == list(range(len(lengths)))
    assert list(ragged_blocks(np.zeros(0, dtype=np.int64))) == []


def test_runs_and_ragged_indices_are_found_only_in_dist():
    # one run finder and one ragged index: no module cuts sorted codes with
    # np.unique or defines its own copy of the helpers
    uniques, helpers = [], []
    for path in sorted(pathlib.Path(ncmlab.__file__).parent.glob("*.py")):
        module = path.stem
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "unique"
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")):
                uniques.append(module)
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.lstrip("_") in ("runs", "run_numbers",
                                                  "ragged_arange")):
                helpers.append((module, node.name))
    assert uniques == []
    assert sorted(helpers) == [("dist", "ragged_arange"),
                               ("dist", "run_numbers"), ("dist", "runs")]
