"""The one-pass hybrid chain, the shared parser and the input bounds.

``puzzles.hybrid_laws`` folds every genuine prefix once and extends it by
the guess levels, where ``hybrid_b_law(k)`` folds each B(k) on its own:
every law must be the same to the bit (codes and weight bytes). ``cli.main``
builds its parser once per process, so a call after a usage error must
give the report a fresh process gives. Negative seeds are usage errors,
and shot or trial counts whose arrays would pass the byte cap exit 4; the
cap is lowered here, never reached by allocating.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ncmlab.cli as cli
import ncmlab.qsim as qsim
from ncmlab.dcrpuzz import (
    ColSampler,
    DcrScheme,
    function_scheme,
    random_function_table,
    save_scheme,
)
from ncmlab.dist import FiniteDist
from ncmlab.errors import InstanceTooLargeError, ParseError, StructureError
from ncmlab.ncmo import oracle_read_codes, sample_byte_bound
from ncmlab.puzzles import (
    ConstantAdversary,
    ObliviousAdversary,
    PerfectAdversary,
    RejectionAdversary,
    hybrid_b_law,
    hybrid_laws,
    per_step_sd,
)
from ncmlab.qsim import (
    Level,
    bell_circuit,
    circuit_to_json,
    enumerate_branches,
    load_json,
)
from test_ncmo import _dense
from test_walk_folds import (
    CIRCUITS,
    PRUNED,
    _LeaningAdversary,
    _WideAdversary,
)

ADVERSARIES = (PerfectAdversary(), RejectionAdversary(5), ObliviousAdversary(),
               ConstantAdversary("0"), ConstantAdversary("1"),
               _LeaningAdversary())

# the exact-chain shapes: dense readouts, so the fold order shows in the
# last bit of the weights
DENSE = [_dense(np.random.default_rng([7, i]), n, measures)
         for i, (n, measures) in enumerate([
             (3, (1, 2, 1)), (3, (1, 1, 1, 1)), (4, (2, 1, 2)),
             (4, (1, 1, 1)), (2, (1, 0, 2))])]

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def _bits_equal(got, want):
    assert got.length == want.length
    assert got.codes.tobytes() == want.codes.tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()


# -- the one-pass chain -------------------------------------------------------

@pytest.mark.parametrize("adv", ADVERSARIES,
                         ids=lambda adv: getattr(adv, "bit", adv.kind))
def test_every_law_of_the_pass_is_hybrid_b_law(adv):
    for c in CIRCUITS + DENSE + [PRUNED]:
        laws = hybrid_laws("0", c, adv)
        assert len(laws) == c.depth + 1
        for k, law in enumerate(laws):
            _bits_equal(law, hybrid_b_law(k, "0", c, adv))


def test_the_pass_asks_each_level_once(monkeypatch):
    law_calls, read_calls = [], []

    class Counting(_LeaningAdversary):
        def law(self, x, circuit, t, tau):
            law_calls.append((t, tau))
            return super().law(x, circuit, t, tau)

    reads = Level.reads

    def counting_reads(level):
        read_calls.append(level)
        return reads(level)

    monkeypatch.setattr(Level, "reads", counting_reads)
    for c in CIRCUITS + DENSE:
        levels = enumerate_branches(c).levels
        law_calls.clear()
        read_calls.clear()
        hybrid_laws("0", c, Counting())
        # once per node per level
        assert sorted(law_calls) == sorted(
            (t, node.outcomes) for t in range(1, c.depth + 1)
            for node in levels[t].nodes)
        assert sorted(map(id, read_calls)) == sorted(map(id, levels[1:]))


def test_a_guess_of_the_wrong_width_raises_in_the_pass():
    for c in CIRCUITS:
        w = c.qubits - c.steps[0].measure
        wrong = f"step 1 guess law is {w + 1} bits wide"
        with pytest.raises(StructureError, match=wrong):
            hybrid_laws("0", c, _WideAdversary())
        with pytest.raises(StructureError, match=wrong):
            per_step_sd("0", c, _WideAdversary())


def test_the_pass_keeps_the_output_cap():
    c = _dense(np.random.default_rng(1), 7, (1, 1, 1))
    with pytest.raises(InstanceTooLargeError, match="hybrid_laws"):
        hybrid_laws("0", c, PerfectAdversary())


# -- one parser per process ---------------------------------------------------

def test_main_builds_its_parser_once(monkeypatch, tmp_path, capsys):
    cli._parser()
    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or pytest.fail("rebuilt"))
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(circuit_to_json(bell_circuit(0, 1))))
    for _ in range(3):
        assert cli.main(["run-oracle", "--circuit", str(path)]) == 0
        assert cli.main(["run-oracle"]) == 3
    assert built == []
    assert cli._parser() is cli._parser()


def _fresh_report(argv, tmp_path):
    out = tmp_path / "fresh.json"
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-m", "ncmlab", *argv,
                           "--out", str(out)], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr
    return out.read_bytes()


def test_a_call_after_a_usage_error_reports_as_a_fresh_process(tmp_path):
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps({"circuit": circuit_to_json(DENSE[0]),
                                "x": "101"}))
    circuit = tmp_path / "bell.json"
    circuit.write_text(json.dumps(circuit_to_json(bell_circuit(1, 1))))
    calls = [["check-hybrid", "--instance", str(inst),
              "--adversary", "oblivious"],
             ["run-oracle", "--circuit", str(circuit), "--mode", "sample",
              "--shots", "500", "--seed", "3"]]
    for argv in calls:
        out = tmp_path / "here.json"
        assert cli.main(argv + ["--seed", "-1", "--bogus"]) == 3
        assert cli.main(["run-oracle", "--circuit"]) == 3
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == _fresh_report(argv, tmp_path)


# -- negative seeds, sample arrays past the cap, broken JSON text -------------

@pytest.fixture()
def inputs(tmp_path):
    circuit = tmp_path / "bell.json"
    circuit.write_text(json.dumps(circuit_to_json(bell_circuit(1, 1))))
    scheme = tmp_path / "scheme.json"
    save_scheme(function_scheme(
        random_function_table(np.random.default_rng(5), 3, 2), 3, 2),
        str(scheme))
    return {"circuit": str(circuit), "scheme": str(scheme)}


def _commands(inputs, seed, count):
    return [
        ["run-oracle", "--circuit", inputs["circuit"], "--mode", "sample",
         "--seed", seed, "--shots", count],
        ["run-reduction", "--primitive", "mac", "--params", "n=2,lm=1",
         "--seed", seed, "--trials", count],
        ["run-reduction", "--primitive", "commitment", "--seed", seed,
         "--trials", count],
        ["run-dcr", "--scheme", inputs["scheme"], "--mode", "sample",
         "--seed", seed, "--shots", count],
        ["suite", "reductions", "--seed", seed],
    ]


@pytest.mark.parametrize("seed", ["-1", "-5", str(-(1 << 70))])
def test_a_negative_seed_is_a_usage_error(inputs, tmp_path, capsys, seed):
    out = tmp_path / "report.json"
    for argv in _commands(inputs, seed, "100"):
        assert cli.main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "--seed: must be at least 0" in err
        assert "Traceback" not in err
        assert not out.exists()


def test_counts_whose_arrays_pass_the_cap_exit_4(inputs, tmp_path,
                                                 monkeypatch, capsys):
    out = tmp_path / "report.json"
    monkeypatch.setattr(qsim, "MAX_TREE_BYTES", 1 << 20)
    for argv in _commands(inputs, "3", "100")[:4]:
        assert cli.main(argv + ["--out", str(out)]) == 0
        out.unlink()
    for argv in _commands(inputs, "3", str(1 << 40))[:4]:
        assert cli.main(argv + ["--out", str(out)]) == 4
        assert "over the cap of 1048576" in capsys.readouterr().err
        assert not out.exists()


def test_the_sample_bounds_are_checked_before_drawing(monkeypatch):
    c = bell_circuit(1, 1)
    assert sample_byte_bound(c, 1000) == 16 * 1000 * (c.depth + 2)
    monkeypatch.setattr(qsim, "MAX_TREE_BYTES", sample_byte_bound(c, 1000))
    rng = np.random.default_rng(0)
    assert oracle_read_codes(c, 1000, rng).shape == (1000, 2)
    state = rng.bit_generator.state
    with pytest.raises(InstanceTooLargeError, match="1001 oracle calls"):
        oracle_read_codes(c, 1001, rng)
    draw = ColSampler(DcrScheme(puzz_len=1, ans_len=1,
                                setup=FiniteDist.point(""),
                                samp_laws={"": FiniteDist.uniform(2)}), "")
    with pytest.raises(InstanceTooLargeError, match="collision draws"):
        draw.draw(rng, 1 << 40)
    # nothing was drawn
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("text", [b'{"qubits": 1\xff}', b"[" * 5000],
                         ids=["not-utf8", "too-deep"])
def test_unreadable_json_text_is_a_parse_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    with pytest.raises(ParseError, match="not valid JSON"):
        load_json(str(path))
    out = tmp_path / "report.json"
    assert cli.main(["run-oracle", "--circuit", str(path),
                     "--out", str(out)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()
