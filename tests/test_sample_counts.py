"""Sampled counts held as codes: the cap at the code width, and the
sampled ``run-dcr`` report against counts made independently here."""

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
