"""Sampled counts held as codes: the cap at the code width, the packed
counter against a lexsort over the columns, and the sampled ``run-oracle``
and ``run-dcr`` reports against counts made independently here."""

import json

import numpy as np
import pytest

import ncmlab.cli as cli
from ncmlab.dcrpuzz import (
    ColSampler,
    col_law,
    function_scheme,
    load_scheme,
    random_function_table,
    random_law_scheme,
    save_scheme,
)
from ncmlab.dist import (
    MAX_CODE_BITS,
    FiniteDist,
    empirical,
    empirical_codes,
    sd,
)
from ncmlab.errors import InstanceTooLargeError, StructureError
from ncmlab.ncmo import oracle_exact, oracle_read_codes
from ncmlab.qsim import circuit_to_json, random_circuit


def test_empirical_past_the_code_cap_is_too_large():
    wide = MAX_CODE_BITS + 2
    with pytest.raises(InstanceTooLargeError):
        empirical(["1" * wide, "0" * wide])
    # at the cap the strings still count
    at_cap = empirical(["1" * MAX_CODE_BITS, "0" * MAX_CODE_BITS])
    assert at_cap.to_dist().length == MAX_CODE_BITS


def test_empirical_of_empty_strings_is_a_structure_error():
    with pytest.raises(StructureError):
        empirical(["", ""])


def test_counts_past_the_cap_give_json_but_no_law():
    rows = np.array([[3, 0], [1, 2], [3, 0], [0, 0]], dtype=np.int64)
    emp = empirical_codes(rows, 32)
    with pytest.raises(InstanceTooLargeError):
        emp.to_dist()
    blob = emp.to_json()
    f = "032b"
    assert blob == {"length": 64, "probs": {
        format(0, f) * 2: 0.25,
        format(1, f) + format(2, f): 0.25,
        format(3, f) + format(0, f): 0.5}}
    assert list(blob["probs"]) == list(emp.counts)


def test_counts_join_fields_high_first():
    rows = np.array([[1, 2], [0, 3], [1, 2]], dtype=np.uint16)
    emp = empirical_codes(rows, 2)
    assert emp.shots == 3 and emp.width == 2
    assert emp.counts == {"0011": 1, "0110": 2}
    law = emp.to_dist()
    assert law.codes.tolist() == [0b0011, 0b0110]
    assert law.weights.tolist() == [1 / 3, 2 / 3]


def _lexsort_counts(rows):
    """Reference counter: distinct rows by one lexsort over the columns."""
    ordered = rows[np.lexsort(rows.T[::-1])]
    starts = np.flatnonzero(np.concatenate(
        ([True], (ordered[1:] != ordered[:-1]).any(axis=1))))
    return ordered[starts], np.diff(np.append(starts, len(rows)))


def _assert_counts_match(rows, width):
    emp = empirical_codes(rows, width)
    want_rows, want_sizes = _lexsort_counts(rows)
    assert emp.rows.dtype == rows.dtype
    assert np.array_equal(emp.rows, want_rows)
    assert emp.sizes.tolist() == want_sizes.tolist()
    assert emp.shots == len(rows) and emp.width == width
    fmt = f"0{width}b"
    assert emp.counts == {"".join(format(v, fmt) for v in row): int(c)
                          for row, c in zip(want_rows.tolist(), want_sizes)}


DTYPES = (np.uint16, np.int32, np.int64, np.uint64)
# (fields, width): k * width of 61 to 64 straddles the one-word boundary
SHAPES = ((61, 1), (62, 1), (63, 1), (64, 1), (5, 12), (6, 12), (1, 31),
          (2, 31), (3, 21), (2, 32), (1, 62), (1, 64))
# each dtype with every width whose largest field it holds
CASES = [(k, w, dt) for k, w in SHAPES for dt in DTYPES
         if np.iinfo(dt).max >= (1 << w) - 1]


@pytest.mark.parametrize("k,width,dtype", CASES,
                         ids=[f"{k}x{w}-{np.dtype(dt).name}"
                              for k, w, dt in CASES])
def test_packed_counts_match_the_lexsort(k, width, dtype):
    rng = np.random.default_rng([k, width, np.dtype(dtype).itemsize])
    top = (1 << width) - 1
    for _ in range(4):
        distinct = rng.integers(0, top, (int(rng.integers(1, 12)), k),
                                dtype=dtype, endpoint=True)
        distinct[0] = top  # a row of fields at 2**width - 1
        rows = distinct[rng.integers(0, len(distinct), 400)]
        _assert_counts_match(rows, width)
        if k * width <= MAX_CODE_BITS:
            emp = empirical_codes(rows, width)
            assert emp.to_dist().support == list(emp.counts)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("k,width", ((3, 12), (1, 12), (2, 31)))
def test_packed_counts_edge_rows(dtype, k, width):
    top = min((1 << width) - 1, int(np.iinfo(dtype).max))
    single = np.full((1, k), top, dtype=dtype)
    _assert_counts_match(single, width)
    equal = np.full((50, k), top // 3, dtype=dtype)
    _assert_counts_match(equal, width)
    assert empirical_codes(equal, width).sizes.tolist() == [50]
    corners = np.array([[top] * k, [0] * k, [top] * k], dtype=dtype)
    _assert_counts_match(corners, width)


def test_run_oracle_sample_report_counts_the_oracle_reads(tmp_path):
    shots, seed = 3000, 9
    rng = np.random.default_rng(10)
    circuit = random_circuit(rng, max_qubits=3)
    while circuit.depth != 3 or circuit.qubits != 3:
        circuit = random_circuit(rng, max_qubits=3)
    exact = oracle_exact(circuit)
    assert len(exact) == 16
    path, out = tmp_path / "circuit.json", tmp_path / "sample.json"
    path.write_text(json.dumps(circuit_to_json(circuit)))
    assert cli.main(["run-oracle", "--circuit", str(path), "--mode",
                     "sample", "--shots", str(shots), "--seed", str(seed),
                     "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    reads = oracle_read_codes(circuit, shots, np.random.default_rng(seed))
    rows, counts = np.unique(reads, axis=0, return_counts=True)
    n, steps = circuit.qubits, circuit.depth
    fmt = f"0{n}b"
    assert report["payload"]["empirical"] == {
        "length": n * steps,
        "probs": {"".join(format(v, fmt) for v in row): c / shots
                  for row, c in zip(rows.tolist(), counts.tolist())}}
    codes = [sum(v << n * (steps - 1 - j) for j, v in enumerate(row))
             for row in rows.tolist()]
    value = sd(FiniteDist.from_codes(n * steps, np.array(codes),
                                     counts / shots), exact)
    tol = 5.0 * (len(exact) / shots) ** 0.5
    assert report["checks"] == [{
        "name": f"oracle/sampling-tv[{shots} shots]",
        "value": value, "tolerance": tol, "pass": value <= tol}]


def _schemes(tmp_path):
    table = random_function_table(np.random.default_rng(5), 3, 2)
    laws = random_law_scheme(np.random.default_rng(11), pp_len=1,
                             puzz_len=2, ans_len=2)
    for name, scheme in (("function", function_scheme(table, 3, 2)),
                         ("laws", laws)):
        path = tmp_path / f"{name}.json"
        save_scheme(scheme, str(path))
        yield str(path)


def test_run_dcr_sample_report_counts_the_sampler_draws(tmp_path):
    shots, seed = 1500, 4
    for path in _schemes(tmp_path):
        scheme = load_scheme(path)
        exact_out, out = tmp_path / "exact.json", tmp_path / "sample.json"
        assert cli.main(["run-dcr", "--scheme", path,
                         "--out", str(exact_out)]) == 0
        assert cli.main(["run-dcr", "--scheme", path, "--mode", "sample",
                         "--shots", str(shots), "--seed", str(seed),
                         "--out", str(out)]) == 0
        want = json.loads(exact_out.read_text())
        want["config"].update(mode="sample", seed=seed, shots=shots)
        # each pp's sampled check follows its marginal check
        pps = scheme.setup_law().support
        checks = []
        for pp, marginal_check in zip(pps, want["checks"]):
            law = col_law(scheme, pp)
            a = scheme.ans_len
            puzz, ans, ans2 = ColSampler(scheme, pp).draw(
                np.random.default_rng(seed), shots)
            codes, counts = np.unique((puzz << 2 * a) | (ans << a) | ans2,
                                      return_counts=True)
            value = sd(FiniteDist.from_codes(law.length, codes,
                                             counts / shots), law)
            tol = 5.0 * (len(law) / shots) ** 0.5
            checks += [marginal_check, {
                "name": f"dcr/sampled-collision-tv[pp={pp or 'e'}, "
                        f"{shots} shots]",
                "value": value, "tolerance": tol, "pass": value <= tol}]
        want["checks"] = checks + want["checks"][len(pps):]
        want["passed"] = all(c["pass"] for c in checks)
        assert json.loads(out.read_text()) == want
