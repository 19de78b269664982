"""The exit-code contract under mutated inputs.

Circuit, instance and scheme files are mutated (values replaced, keys
dropped or added, the text cut short, made invalid UTF-8 or nested past the
parser's depth) and so is argv (negative and huge seeds, shot and trial
counts over a lowered byte cap, unknown options). Every ``cli.main`` call
must exit 0, 2, 3 or 4 without a traceback, and a run that exits 3 or 4
writes no report file. All examples run in one process, so the parser
that ``main`` builds once is shared by every call. Hypothesis is
derandomized, so the examples are the same on every run.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ncmlab.cli as cli
from ncmlab import qsim
from ncmlab.dcrpuzz import (
    function_scheme,
    random_function_table,
    scheme_to_json,
)
from ncmlab.qsim import bell_circuit, circuit_to_json

# lowered so that a few thousand shots or trials cross it and no tree
# that a mutated circuit asks for takes long to build
CAP = 1 << 22

_ROT = [[[0.6, 0.0], [-0.8, 0.0]], [[0.8, 0.0], [0.6, 0.0]]]

CIRCUITS = [
    circuit_to_json(bell_circuit(1, 1)),
    {"qubits": 3, "steps": [
        {"gates": [{"name": "h", "targets": [0]},
                   {"name": "u1q", "targets": [1], "matrix": _ROT},
                   {"name": "cphase", "targets": [1, 2], "theta": 0.7}],
         "measure": 1},
        {"gates": [{"name": "cnot", "targets": [1, 0]},
                   {"name": "swap", "targets": [1, 2]}], "measure": 2}]},
    {"qubits": 2, "steps": [
        {"gates": [{"name": "prep", "targets": [0, 1],
                    "matrix": [[0.5, 0.0], [0.0, 0.5], [0.5, 0.0],
                               [0.0, -0.5]]}], "measure": 0}]},
]

SCHEMES = [
    scheme_to_json(function_scheme(
        random_function_table(np.random.default_rng(5), 2, 1), 2, 1)),
    {"puzz_len": 1, "ans_len": 1, "pp_len": 1, "junk_len": 0,
     "setup": {"length": 1, "probs": {"0": 0.5, "1": 0.5}},
     "source": {"laws": {
         "0": {"length": 2, "probs": {"00": 0.5, "01": 0.25, "11": 0.25}},
         "1": {"length": 2, "probs": {"10": 1.0}}}}},
    {"puzz_len": 1, "ans_len": 1, "junk_len": 0,
     "source": {"circuit": CIRCUITS[2], "puzz_register": 1}},
]

KEYS = ["qubits", "steps", "gates", "name", "targets", "matrix", "theta",
        "measure", "circuit", "x", "puzz_len", "ans_len", "junk_len",
        "pp_len", "pp", "setup", "source", "law", "laws", "length", "probs",
        "puzz_register", "0", "01"]

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 13),
    st.sampled_from([1 << 70, -(1 << 63), 1 << 62]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "0", "01", "2", "h", "u1q", "prep", "cnot",
                     "circuit.json", "instance.json", "scheme.json",
                     "missing.json"]))
VALUES = st.one_of(
    SCALARS, st.lists(SCALARS, max_size=4),
    st.dictionaries(st.sampled_from(KEYS), SCALARS, max_size=3))
PERCENT = st.integers(0, 99)


def _slots(doc):
    """(container, key) of every value inside doc, doc's own slot last."""
    out = []
    stack = [doc]
    while stack:
        node = stack.pop()
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else ())
        for key, value in items:
            out.append((node, key))
            stack.append(value)
    return out + [(None, None)]


def _percent(draw, p):
    """True p times in 100 (a wide range, so Hypothesis's pull towards
    the ends of a range barely moves the odds)."""
    return draw(PERCENT) < p


@st.composite
def mutated(draw, bases):
    """One base document, changed in up to three places."""
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(0 if _percent(draw, 40) else draw(st.integers(1, 3))):
        slots = _slots(doc)
        parent, key = slots[draw(st.integers(0, len(slots) - 1))]
        action = draw(st.sampled_from(["replace", "drop", "add"]))
        if parent is None:
            if action == "replace":
                doc = draw(VALUES)
        elif action == "replace":
            parent[key] = draw(VALUES)
        elif action == "drop":
            del parent[key]
            if isinstance(parent, list):
                break  # the other slots of this list have moved
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(KEYS))] = draw(VALUES)
        else:
            parent.append(draw(VALUES))
    return doc


@st.composite
def file_bytes(draw, bases):
    """A mutated document as JSON text, sometimes broken as text."""
    text = json.dumps(draw(mutated(bases))).encode()
    if _percent(draw, 85):
        return text
    how = draw(st.sampled_from(["cut", "utf8", "deep"]))
    if how == "cut":
        return text[:draw(st.integers(0, len(text)))]
    if how == "utf8":
        at = draw(st.integers(0, len(text)))
        return text[:at] + b"\xff\xfe" + text[at:]
    return b"[" * 5000 + b"]" * 5000


def _mostly(valid, invalid):
    """valid four times in five."""
    return PERCENT.flatmap(lambda k: valid if k < 80 else invalid)


SEEDS = _mostly(st.integers(0, 3), st.one_of(
    st.integers(-(1 << 70), -1),
    st.sampled_from([str(1 << 70), "1 << 70", "x", "", "1.5"])))
# a count over the lowered cap gives exit 4
COUNTS = PERCENT.flatmap(
    lambda k: (st.integers(1, 40) if k < 70
               else st.integers(CAP, 1 << 40) if k < 85
               else st.one_of(st.integers(-5, 0),
                              st.sampled_from(["ten", "1e3"]))))
ADVERSARIES = _mostly(
    st.sampled_from(["perfect", "oblivious", "constant:0", "constant:1",
                     "rejection:8"]),
    st.sampled_from(["constant", "constant:2", "rejection", "rejection:0",
                     "rejection:-1", "rejection:x", "bogus", "",
                     "rejection:", "constant:", "perfect:", "oblivious:"]))
PARAMS = _mostly(
    st.sampled_from(["n=3,lm=2", "n=2,lm=1", "n=2,c=1",
                     "n=3,c=1,table=random", "n=3,c=2,table=balanced", ""]),
    st.one_of(
        st.sampled_from(["n=7", "n=-1", "lm=0", "n=x", "=3", "k", "n=3,,",
                         "table=odd"]),
        st.lists(st.sampled_from(["n", "lm", "c", "table", "q"]),
                 max_size=3)
        .map(lambda keys: ",".join(f"{k}={v}"
                                   for v, k in enumerate(keys, 1)))))

# per subcommand: its positional choices and (option, values) pairs
COMMANDS = {
    "run-oracle": ([], [
        ("--circuit", _mostly(st.just("circuit.json"), st.sampled_from(
            ["instance.json", "missing.json", "."]))),
        ("--mode", _mostly(st.sampled_from(["exact", "sample"]),
                           st.just("fast"))),
        ("--shots", COUNTS), ("--seed", SEEDS)]),
    "check-hybrid": ([], [
        ("--instance", _mostly(st.just("instance.json"), st.sampled_from(
            ["circuit.json", "missing.json"]))),
        ("--adversary", ADVERSARIES)]),
    "run-reduction": ([], [
        ("--primitive", _mostly(st.sampled_from(["mac", "commitment"]),
                                st.just("hash"))),
        ("--variant", _mostly(st.sampled_from(["literal", "coherent"]),
                              st.just("loose"))),
        ("--params", PARAMS), ("--trials", COUNTS), ("--seed", SEEDS)]),
    "run-dcr": ([], [
        ("--scheme", _mostly(st.just("scheme.json"), st.sampled_from(
            ["circuit.json", "missing.json"]))),
        ("--pp", st.sampled_from(["", "0", "1", "2"])),
        ("--mode", _mostly(st.sampled_from(["exact", "sample"]),
                           st.just("fast"))),
        ("--shots", COUNTS), ("--seed", SEEDS)]),
    # the two quickest suites
    "suite": (["adaptive-replacement", "dcr-equivalence", "bogus"],
              [("--seed", SEEDS)]),
}


@st.composite
def argvs(draw):
    """argv for one subcommand, each option present 85 times in 100,
    then at times one token dropped, a stray one added or an unwritable
    report path given."""
    command = draw(st.sampled_from(sorted(COMMANDS) + ["bogus"]))
    positional, options = COMMANDS.get(command, ([], []))
    argv = [command]
    if positional:
        argv.append(draw(st.sampled_from(positional)))
    for name, values in options:
        if _percent(draw, 85):
            argv += [name, str(draw(values))]
    if not _percent(draw, 85):
        del argv[draw(st.integers(0, len(argv) - 1))]
    elif not _percent(draw, 85):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(
            ["--out", "--bogus", "--seed", "-1", "sub/none/report.json"])))
    elif not _percent(draw, 90):
        # a report path that cannot be written
        argv += ["--out", "sub/none/report.json"]
    return argv


def _run(workdir, argv):
    """main's exit code, stderr and report file, with paths in workdir."""
    argv = [os.path.join(workdir, a) if a.endswith(".json") or a == "."
            else a for a in argv]
    out = os.path.join(workdir, "report.json")
    if "--out" not in argv:
        argv += ["--out", out]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(
            io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue(), os.path.exists(out)


# the documents a run may read; circuit.json is written for every run, as
# the instance and scheme files may name it
BASES = {"circuit.json": CIRCUITS,
         "instance.json": [{"circuit": "circuit.json", "x": "01"},
                           {"circuit": CIRCUITS[1]}],
         "scheme.json": SCHEMES}


@st.composite
def cases(draw):
    """argv and the files it names, mutated."""
    argv = draw(argvs())
    names = {"circuit.json"} | (set(argv) & set(BASES))
    return argv, {name: draw(file_bytes(BASES[name]))
                  for name in sorted(names)}


@settings(derandomize=True, max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(case=cases())
def test_every_run_exits_with_a_documented_code(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as workdir, \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(qsim, "MAX_TREE_BYTES", CAP)
        for name, data in files.items():
            with open(os.path.join(workdir, name), "wb") as fh:
                fh.write(data)
        code, err, wrote = _run(workdir, argv)
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    assert wrote == (code in (0, 2)), (code, err)
