"""Exit codes, report shape, and byte determinism of the command line."""

import json
import warnings

import numpy as np
import pytest

import ncmlab.cli as cli
from ncmlab.acceptance import Check
from ncmlab.dcrpuzz import function_scheme, random_function_table, save_scheme
from ncmlab.qsim import bell_circuit, circuit_to_json


@pytest.fixture()
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(circuit_to_json(bell_circuit(0, 1))))
    return str(path)


@pytest.fixture()
def instance_file(tmp_path):
    circ = tmp_path / "bell_m1.json"
    circ.write_text(json.dumps(circuit_to_json(bell_circuit(1, 1))))
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps({"circuit": "bell_m1.json", "x": "01"}))
    return str(inst)


@pytest.fixture()
def scheme_file(tmp_path):
    table = random_function_table(np.random.default_rng(5), 3, 2)
    path = tmp_path / "scheme.json"
    save_scheme(function_scheme(table, 3, 2), str(path))
    return str(path)


def run(args, out=None):
    argv = list(args) + (["--out", out] if out else [])
    return cli.main(argv)


def test_run_oracle_exact_reports_the_correlated_uniform(bell_file, tmp_path):
    out = tmp_path / "report.json"
    assert run(["run-oracle", "--circuit", bell_file], str(out)) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["command"] == "run-oracle"
    probs = report["payload"]["law"]["probs"]
    assert sorted(probs) == ["0000", "0011", "1100", "1111"]
    for p in probs.values():
        assert abs(p - 0.25) <= 1e-9
    names = [c["name"] for c in report["checks"]]
    assert "oracle/branch-mass-deficit" in names


def test_same_config_gives_identical_bytes(bell_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["run-oracle", "--circuit", bell_file, "--mode", "sample",
            "--shots", "2000", "--seed", "42"]
    assert run(argv, str(a)) == 0
    assert run(argv, str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sample_mode_requires_a_seed(bell_file, capsys):
    assert run(["run-oracle", "--circuit", bell_file,
                "--mode", "sample"]) == 3
    assert "--seed" in capsys.readouterr().err


def test_malformed_circuit_leaves_no_report(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    out = tmp_path / "never.json"
    assert run(["run-oracle", "--circuit", str(bad)], str(out)) == 3
    assert not out.exists()
    shallow = tmp_path / "shallow.json"
    shallow.write_text(json.dumps({"qubits": 2}))
    assert run(["run-oracle", "--circuit", str(shallow)], str(out)) == 3
    assert not out.exists()


def test_missing_file_is_an_input_error(tmp_path):
    assert run(["run-oracle", "--circuit",
                str(tmp_path / "ghost.json")]) == 3


def test_cap_exceeded_exit_code(tmp_path):
    from ncmlab.qsim import Circuit, Gate, Step
    big = Circuit(qubits=8, steps=tuple(
        Step(gates=(Gate("x", (0,)),), measure=0) for _ in range(3)))
    path = tmp_path / "big.json"
    path.write_text(json.dumps(circuit_to_json(big)))
    assert run(["run-oracle", "--circuit", str(path)]) == 4


def test_run_oracle_samples_reads_past_the_law_code_cap(tmp_path):
    # 8 qubits x 8 steps: 64-bit reads, past the exact cap and past the
    # 62-bit codes of a FiniteDist, so only the empirical counts are kept
    from ncmlab.qsim import Circuit, Gate, Step
    big = Circuit(qubits=8, steps=tuple(
        Step(gates=(Gate("h", (0,)),), measure=0) for _ in range(8)))
    path = tmp_path / "big.json"
    path.write_text(json.dumps(circuit_to_json(big)))
    out = tmp_path / "report.json"
    assert run(["run-oracle", "--circuit", str(path), "--mode", "sample",
                "--shots", "200", "--seed", "3"], str(out)) == 0
    payload = json.loads(out.read_text())["payload"]
    assert payload["exact_comparison"] is False
    probs = payload["empirical"]["probs"]
    assert payload["empirical"]["length"] == 64
    assert list(probs) == sorted(probs) and len(probs) > 1
    assert abs(sum(probs.values()) - 1.0) <= 1e-12


def test_branch_guard_env_override(instance_file, tmp_path, monkeypatch):
    inst = json.loads(open(instance_file).read())
    monkeypatch.setenv("NCMO_MAX_BRANCHES", "1")
    assert run(["check-hybrid", "--instance", instance_file]) == 4
    monkeypatch.delenv("NCMO_MAX_BRANCHES")
    assert run(["check-hybrid", "--instance", instance_file]) == 0
    assert inst["x"] == "01"


def test_check_hybrid_report_lists_the_gap_ladder(instance_file, tmp_path):
    out = tmp_path / "hybrid.json"
    code = run(["check-hybrid", "--instance", instance_file,
                "--adversary", "oblivious"], str(out))
    assert code == 0
    report = json.loads(out.read_text())
    gaps = report["payload"]["per_step_sds"]
    assert gaps == pytest.approx([0.5, 0.75], abs=1e-9)
    assert report["payload"]["endpoint_sd"] == pytest.approx(0.875, abs=1e-9)
    assert report["payload"]["telescoped"] == pytest.approx(1.25, abs=1e-9)


def test_check_hybrid_rejects_unknown_adversaries(instance_file, capsys):
    assert run(["check-hybrid", "--instance", instance_file,
                "--adversary", "psychic"]) == 3


def test_reduction_mac_report(tmp_path):
    out = tmp_path / "mac.json"
    code = run(["run-reduction", "--primitive", "mac", "--params", "n=2,lm=2",
                "--trials", "400", "--seed", "3"], str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["payload"]["exact_win"] == pytest.approx(0.75, abs=1e-12)
    assert report["payload"]["successes"] <= 400


def test_reduction_mac_rejects_variants_and_bad_params(tmp_path):
    assert run(["run-reduction", "--primitive", "mac", "--variant",
                "literal", "--seed", "1"]) == 3
    assert run(["run-reduction", "--primitive", "mac", "--params",
                "bogus=1", "--seed", "1"]) == 3
    assert run(["run-reduction", "--primitive", "commitment", "--params",
                "table=banana", "--seed", "1"]) == 3
    assert run(["run-reduction", "--primitive", "mac"]) == 3  # no seed


def test_reduction_commitment_variants(tmp_path):
    out = tmp_path / "com.json"
    code = run(["run-reduction", "--primitive", "commitment", "--variant",
                "literal", "--trials", "300", "--seed", "9"], str(out))
    assert code == 0
    report = json.loads(out.read_text())
    names = [c["name"] for c in report["checks"]]
    assert "commitment/literal-form-win-is-exactly-zero" in names
    assert report["payload"]["exact_win"] == 0.0
    code = run(["run-reduction", "--primitive", "commitment", "--params",
                "n=2,c=1,table=random", "--trials", "300", "--seed", "9"],
               str(out))
    assert code == 0
    report = json.loads(out.read_text())
    names = [c["name"] for c in report["checks"]]
    assert "commitment/exact-win-matches-parity-product" in names


def test_run_dcr_exact_and_sample(scheme_file, tmp_path):
    out = tmp_path / "dcr.json"
    assert run(["run-dcr", "--scheme", scheme_file], str(out)) == 0
    report = json.loads(out.read_text())
    assert report["payload"]["oracle_route_available"] is True
    row = report["payload"]["per_pp"][0]
    assert row["oracle_gap"] <= 1e-9
    assert run(["run-dcr", "--scheme", scheme_file, "--mode", "sample",
                "--shots", "1500", "--seed", "2"], str(out)) == 0
    assert run(["run-dcr", "--scheme", scheme_file, "--mode", "sample"]) == 3
    assert run(["run-dcr", "--scheme", scheme_file, "--pp", "1"]) == 3


def test_suite_subcommand(tmp_path, capsys):
    out = tmp_path / "suite.json"
    assert run(["suite", "adaptive-replacement"], str(out)) == 0
    report = json.loads(out.read_text())
    assert report["config"]["suite"] == "adaptive-replacement"
    assert report["passed"] is True
    assert run(["suite", "no-such-suite"]) == 3


def test_failing_checks_exit_two(monkeypatch, tmp_path):
    broken = [Check(name="forced", value=1.0, tolerance=0.0, passed=False)]
    monkeypatch.setattr(cli, "run_suite", lambda name, seed: broken)
    out = tmp_path / "fail.json"
    assert run(["suite", "all"], str(out)) == 2
    report = json.loads(out.read_text())
    assert report["passed"] is False


def test_help_and_missing_subcommand(capsys):
    assert cli.main([]) == 3
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("argv", [
    ["run-oracle", "--circuit", "{circuit}", "--mode", "sample", "--seed",
     "1", "--shots", "0"],
    ["run-oracle", "--circuit", "{circuit}", "--mode", "sample", "--seed",
     "1", "--shots", "-1"],
    ["run-reduction", "--primitive", "mac", "--params", "n=2,lm=2",
     "--seed", "1", "--trials", "0"],
    ["run-dcr", "--scheme", "{scheme}", "--mode", "sample", "--seed", "1",
     "--shots", "0"],
])
def test_counts_below_one_are_input_errors(argv, bell_file, scheme_file,
                                           tmp_path, capsys):
    argv = [a.format(circuit=bell_file, scheme=scheme_file) for a in argv]
    out = tmp_path / "never.json"
    assert run(argv, str(out)) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("primitive,params,code", [
    ("mac", "n=x", 3),
    ("mac", "n=true", 3),
    ("mac", "lm=1.5", 3),
    ("commitment", "c=x", 3),
    ("commitment", "n=2.0,table=random", 3),
    ("mac", "n=0", 3),
    ("commitment", "n=1,table=random", 3),
    ("mac", "n=7", 4),
    ("mac", "n=50,lm=1", 4),
    ("commitment", "n=5", 4),
    ("commitment", "n=5,table=random", 4),
    ("commitment", "n=40,c=1", 4),
    ("mac", "n=4,n=6", 3),
    ("commitment", "c=1,n=3, c=2", 3),
])
def test_reduction_params_exit_codes(primitive, params, code, tmp_path,
                                     capsys):
    out = tmp_path / "never.json"
    assert run(["run-reduction", "--primitive", primitive, "--params",
                params, "--trials", "50", "--seed", "1"], str(out)) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_reduction_integer_params_stay_integers_in_the_report(tmp_path):
    out = tmp_path / "mac.json"
    assert run(["run-reduction", "--primitive", "mac", "--params",
                "n=2, lm=+1", "--trials", "50", "--seed", "1"],
               str(out)) == 0
    assert json.loads(out.read_text())["config"]["params"] == {"n": 2,
                                                               "lm": 1}


def _one_gate(gate, measure=1):
    return {"qubits": 2, "steps": [{"gates": [gate], "measure": measure}]}


IDENTITY_4 = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]


@pytest.mark.parametrize("text,field", [
    (json.dumps(_one_gate({"name": "h", "targets": ["a"]})), "'targets'"),
    (json.dumps(_one_gate({"name": "h", "targets": [True]})), "'targets'"),
    (json.dumps(_one_gate({"name": "u1q", "targets": [0],
                           "matrix": [[[1, 0], [0, 0]], [[0, 0]]]})),
     "'matrix'"),
    (json.dumps(_one_gate({"name": "u1q", "targets": [0],
                           "matrix": [[[1, 0], [0, 0]], 5]})), "'matrix'"),
    (json.dumps(_one_gate({"name": "cphase", "targets": [0, 1],
                           "theta": "x"})), "'theta'"),
    ('{"qubits": 2, "steps": [{"gates": [{"name": "cphase", '
     '"targets": [0, 1], "theta": NaN}], "measure": 1}]}', "'theta'"),
    (json.dumps(_one_gate({"name": "cphase", "targets": [0, 1],
                           "theta": 10 ** 400})), "'theta'"),
    (json.dumps({"qubits": 2, "steps": [{"gates": 5, "measure": 1}]}),
     "'gates'"),
    (json.dumps({"qubits": True, "steps": [{"gates": [], "measure": 0}]}),
     "'qubits'"),
    (json.dumps({"qubits": 2.0, "steps": [{"gates": [], "measure": 0}]}),
     "'qubits'"),
    (json.dumps(_one_gate({"name": "h", "targets": [0]}, measure=1.9)),
     "'measure'"),
    (json.dumps(_one_gate({"name": ["h"], "targets": [0]})), "no name"),
    (json.dumps(_one_gate({"name": "dense", "targets": [],
                           "matrix": IDENTITY_4})), "unknown gate 'dense'"),
], ids=["target-a", "target-true", "ragged-matrix", "matrix-row-5",
        "theta-x", "theta-nan", "theta-huge", "gates-5", "qubits-true",
        "qubits-float", "measure-float", "name-list", "dense-gate"])
def test_malformed_circuit_fields_are_input_errors(text, field, tmp_path,
                                                   capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    out = tmp_path / "never.json"
    assert run(["run-oracle", "--circuit", str(path)], str(out)) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err
    assert not out.exists()


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


# finite entries whose unitarity defect overflows to NaN
HUGE_U1Q = {"name": "u1q", "targets": [0],
            "matrix": [[[1e200, 1e200], [1e200, -1e200]],
                       [[1e200, -1e200], [1e200, 1e200]]]}


@pytest.mark.parametrize("command,measure", [
    ("exact", 0), ("exact", 1), ("sample", 0), ("sample", 1),
    ("check-hybrid", 1), ("run-dcr", 0)])
def test_u1q_with_a_nan_defect_is_refused_before_the_run(command, measure,
                                                         tmp_path, capsys):
    (tmp_path / "huge.json").write_text(json.dumps(
        {"qubits": 2, "steps": [{"gates": [HUGE_U1Q], "measure": measure}]}))
    source = tmp_path / "source.json"
    if command in ("exact", "sample"):
        argv = ["run-oracle", "--circuit", str(tmp_path / "huge.json"),
                "--mode", command, "--seed", "1"]
    elif command == "check-hybrid":
        source.write_text(json.dumps({"circuit": "huge.json", "x": "01"}))
        argv = ["check-hybrid", "--instance", str(source)]
    else:
        source.write_text(json.dumps(_law_scheme(
            source={"circuit": "huge.json", "puzz_register": 1})))
        argv = ["run-dcr", "--scheme", str(source)]
    out = tmp_path / "never.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv, str(out)) == 3
    assert "u1q matrix is not unitary (defect nan)" in _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("adversary", ["rejection:abc", "rejection:-3",
                                       "rejection:0", "rejection:1.5"])
def test_check_hybrid_rejects_bad_rejection_budgets(adversary, instance_file,
                                                    tmp_path, capsys):
    out = tmp_path / "never.json"
    assert run(["check-hybrid", "--instance", instance_file,
                "--adversary", adversary], str(out)) == 3
    assert "budget" in _one_line_error(capsys)
    assert not out.exists()
    assert run(["check-hybrid", "--instance", instance_file,
                "--adversary", "rejection:5000"], str(out)) == 0


@pytest.mark.parametrize("adversary", ["perfect:3", "oblivious:x",
                                       "perfect:", "oblivious:0"])
def test_check_hybrid_refuses_an_argument_to_an_argless_adversary(
        adversary, instance_file, tmp_path, capsys):
    out = tmp_path / "never.json"
    assert run(["check-hybrid", "--instance", instance_file,
                "--adversary", adversary], str(out)) == 3
    assert repr(adversary) in _one_line_error(capsys)
    assert not out.exists()


def test_check_hybrid_rejection_budget_does_not_change_the_laws(
        instance_file, tmp_path):
    # check-hybrid computes exact laws, and a rejection adversary's law is
    # the perfect adversary's: the budget never enters the payload
    payloads = []
    for adversary in ("perfect", "rejection:1"):
        out = tmp_path / f"{adversary.replace(':', '-')}.json"
        assert run(["check-hybrid", "--instance", instance_file,
                    "--adversary", adversary], str(out)) == 0
        payloads.append(json.loads(out.read_text())["payload"])
    assert payloads[0] == payloads[1]


def _law_scheme(**fields):
    obj = {"puzz_len": 1, "ans_len": 1,
           "source": {"law": {"length": 2,
                              "probs": {"00": 0.5, "11": 0.5}}}}
    obj.update(fields)
    return obj


# a valid one-step circuit source for puzz_len = ans_len = 1
PREP_SOURCE = {"circuit": circuit_to_json(bell_circuit(0, 0)),
               "puzz_register": 1}


def _with_probs(probs):
    return _law_scheme(source={"law": {"length": 2, "probs": probs}})


@pytest.mark.parametrize("obj,field", [
    (_law_scheme(junk_len="x"), "'junk_len'"),
    (_law_scheme(puzz_len=True), "'puzz_len'"),
    (_law_scheme(puzz_len="1"), "'puzz_len'"),
    (_law_scheme(ans_len=1.0), "'ans_len'"),
    (_with_probs({"00": "x", "11": 0.5}), "probability of '00'"),
    (_with_probs({"00": "0.5", "11": 0.5}), "probability of '00'"),
    (_with_probs({"00": float("nan"), "11": 1.0}), "probability of '00'"),
    (_with_probs({"00": float("inf"), "11": 0.5}), "probability of '00'"),
    (_with_probs([0.5, 0.5]), "'probs'"),
    (_with_probs("00"), "'probs'"),
    (_law_scheme(setup={"probs": {"0": 0.5, "1": None}},
                 source={"laws": {}}), "probability of '1'"),
    (_law_scheme(setup=3), "'setup'"),
    (_law_scheme(setup={"length": 0, "probs": {"": 1.0}},
                 source=PREP_SOURCE), "'setup'"),
    (_law_scheme(pp="0", setup={"length": 1, "probs": {"0": 1.0}},
                 source={"laws": {"0": {"length": 2,
                                        "probs": {"00": 1.0}}}}), "'pp'"),
    (_law_scheme(pp=5), "'pp'"),
    (_law_scheme(pp="0a"), "'pp'"),
    (_law_scheme(pp=5, source=PREP_SOURCE), "'pp'"),
    (_law_scheme(setup={"length": 1, "probs": {"0": 1.0}},
                 source={"laws": {"0": {"length": 2, "probs": {"00": 1.0}},
                                  "x": {"length": 2, "probs": {"11": 1.0}}}}),
     "'x'"),
    (_law_scheme(pp_len=3), "'pp_len'"),
    (_law_scheme(pp="0", pp_len=0), "'pp_len'"),
    (_law_scheme(pp_len=True), "'pp_len'"),
    (_law_scheme(pp_len="0"), "'pp_len'"),
    (_law_scheme(pp_len=0.0), "'pp_len'"),
    (_law_scheme(pp_len=2, source=PREP_SOURCE), "'pp_len'"),
    (_law_scheme(pp_len=0, setup={"length": 1, "probs": {"0": 1.0}},
                 source={"laws": {"0": {"length": 2,
                                        "probs": {"00": 1.0}}}}), "'pp_len'"),
    (_law_scheme(source={"law": {"length": 2.0,
                                 "probs": {"00": 0.5, "11": 0.5}}}),
     "'length'"),
    (_law_scheme(source={"law": {"length": "2",
                                 "probs": {"00": 0.5, "11": 0.5}}}),
     "'length'"),
    (_law_scheme(puzz_len=0, source={"law": {"length": True,
                                             "probs": {"0": 0.5, "1": 0.5}}}),
     "'length'"),
], ids=["junk-x", "puzz-true", "puzz-string", "ans-float", "prob-x",
        "prob-string", "prob-nan", "prob-inf", "probs-list", "probs-string",
        "setup-null", "setup-beside-law", "setup-beside-circuit",
        "pp-beside-laws", "pp-int-law", "pp-not-bits", "pp-int-circuit",
        "laws-key-outside-setup", "pp-len-3", "pp-len-0-beside-pp",
        "pp-len-true", "pp-len-string", "pp-len-float", "pp-len-circuit",
        "pp-len-laws", "length-float", "length-string", "length-true"])
def test_malformed_scheme_fields_are_input_errors(obj, field, tmp_path,
                                                  capsys):
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "never.json"
    assert run(["run-dcr", "--scheme", str(path)], str(out)) == 3
    assert field in _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("obj", [
    _law_scheme(pp_len=0),
    _law_scheme(pp="1", pp_len=1),
    _law_scheme(pp="10", pp_len=2, source=PREP_SOURCE),
])
def test_a_matching_pp_len_is_accepted(obj, tmp_path):
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(obj))
    assert run(["run-dcr", "--scheme", str(path)],
               str(tmp_path / "out.json")) == 0


def test_a_repeated_param_is_named(tmp_path, capsys):
    assert run(["run-reduction", "--primitive", "mac", "--params",
                "n=2,lm=2,n=3", "--seed", "1"],
               str(tmp_path / "never.json")) == 3
    assert "parameter n " in _one_line_error(capsys)


@pytest.mark.parametrize("pp", ["x", "00", "0b1", ""])
def test_run_dcr_pp_outside_the_setup_is_an_input_error(pp, tmp_path,
                                                         capsys):
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(_law_scheme(pp="1")))
    out = tmp_path / "never.json"
    assert run(["run-dcr", "--scheme", str(path), "--pp", pp], str(out)) == 3
    assert repr(pp) in _one_line_error(capsys)
    assert not out.exists()
    assert run(["run-dcr", "--scheme", str(path), "--pp", "1"], str(out)) == 0


def test_unreadable_scheme_files_are_input_errors(tmp_path, capsys):
    out = tmp_path / "never.json"
    missing = tmp_path / "missing.json"
    assert run(["run-dcr", "--scheme", str(missing)], str(out)) == 3
    assert str(missing) in _one_line_error(capsys)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run(["run-dcr", "--scheme", str(broken)], str(out)) == 3
    assert str(broken) in _one_line_error(capsys)
    # a circuit reference is read by the same reader, relative to the scheme
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps(_law_scheme(
        source={"circuit": "ghost.json", "puzz_register": 1})))
    assert run(["run-dcr", "--scheme", str(ref)], str(out)) == 3
    assert str(tmp_path / "ghost.json") in _one_line_error(capsys)
    assert not out.exists()


def test_unwritable_out_is_refused_before_the_run(tmp_path, monkeypatch,
                                                  capsys):
    def never(*args):
        raise AssertionError("the tables were built for an unwritable --out")

    monkeypatch.setattr(cli, "toy_mac", never)
    out = tmp_path / "missing" / "x.json"
    assert run(["run-reduction", "--primitive", "mac", "--params",
                "n=5,lm=5", "--seed", "1"], str(out)) == 3
    assert f"cannot write {out}" in _one_line_error(capsys)
    assert not out.parent.exists()
    # a report path under a file is refused the same way
    plain = tmp_path / "plain"
    plain.write_text("")
    assert run(["run-reduction", "--primitive", "mac", "--seed", "1"],
               str(plain / "x.json")) == 3
    assert "cannot write" in _one_line_error(capsys)


def test_out_naming_a_directory_is_refused_before_the_run(
        bell_file, tmp_path, monkeypatch, capsys):
    def never(args):
        raise AssertionError("the subcommand ran for an unwritable --out")

    monkeypatch.setattr(cli, "_cmd_run_oracle", never)
    # a fresh parser binds the patched subcommand
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert run(["run-oracle", "--circuit", bell_file, "--mode", "sample",
                "--seed", "1"], str(tmp_path)) == 3
    assert f"cannot write {tmp_path}" in _one_line_error(capsys)
