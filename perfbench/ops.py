"""One benchmark operation: execute it against the program, then check it.

An op is one user-level verification. ``execute`` does only the program's
work and is the part that is timed. ``check`` and ``compare`` run after it,
with the clock stopped, and decide whether the op passed: every exit code
is 0, every report says it passed, the op's own checks hold, and its exact
values agree with ``reference.json`` to ``REFERENCE_TOL``.

CLI ops run in-process through ``ncmlab.cli.main(argv)``. The tree op calls
the library, because no subcommand reaches past the 20-bit exact cap.
Program functions are looked up on their modules at call time, so a tracer
that patches module attributes sees every call.

This module imports only the standard library at load time: the measured
process must not import numpy or ncmlab before its set-up clock starts.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import time

REFERENCE_TOL = 1e-12
BRANCH_MASS_TOL = 1e-9
SAMPLE_SIGMAS = 5.0


class OpFailed(Exception):
    pass


# -- input files ----------------------------------------------------------------

def write_inputs(ops: list[dict], workdir: str) -> None:
    """Write each op's input file once, before any timing starts."""
    os.makedirs(os.path.join(workdir, "in"), exist_ok=True)
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    for i, spec in enumerate(ops):
        if spec["kind"] in ("oracle", "tree"):
            obj = spec["circuit"]
        elif spec["kind"] == "hybrid":
            obj = {"circuit": spec["circuit"], "x": spec["x"]}
        else:
            continue
        with open(_input_path(workdir, i), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)


def _input_path(workdir: str, i: int) -> str:
    return os.path.join(workdir, "in", f"{i:04d}.json")


def out_path(workdir: str, k: int) -> str:
    return os.path.join(workdir, "out", f"report{k}.json")


def report_indices(spec: dict) -> range:
    """Which report files the op writes."""
    return range({"oracle": 2, "tree": 0}.get(spec["kind"], 1))


# -- execution (timed) ------------------------------------------------------------

def execute(spec: dict, i: int, workdir: str) -> tuple[float, dict]:
    """Run op i of the plan; returns its wall seconds and raw results."""
    if spec["kind"] == "tree":
        return _execute_tree(spec, i, workdir)
    calls = _cli_calls(spec, i, workdir)
    cli = sys.modules["ncmlab.cli"]
    codes = []
    with contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        for argv in calls:
            codes.append(cli.main(argv))
        seconds = time.perf_counter() - start
    return seconds, {"codes": codes,
                     "outs": [argv[argv.index("--out") + 1] for argv in calls]}


def _cli_calls(spec: dict, i: int, workdir: str) -> list[list[str]]:
    kind = spec["kind"]
    if kind == "oracle":
        path = _input_path(workdir, i)
        return [
            ["run-oracle", "--circuit", path, "--mode", "exact",
             "--out", out_path(workdir, 0)],
            ["run-oracle", "--circuit", path, "--mode", "sample",
             "--shots", str(spec["shots"]), "--seed", str(spec["seed"]),
             "--out", out_path(workdir, 1)],
        ]
    if kind == "hybrid":
        return [["check-hybrid", "--instance", _input_path(workdir, i),
                 "--adversary", spec["adversary"],
                 "--out", out_path(workdir, 0)]]
    if kind == "reduction":
        return [["run-reduction", *spec["argv"], "--out",
                 out_path(workdir, 0)]]
    raise OpFailed(f"unknown op kind {kind!r}")


def _execute_tree(spec: dict, i: int, workdir: str) -> tuple[float, dict]:
    qsim = sys.modules["ncmlab.qsim"]
    ncmo = sys.modules["ncmlab.ncmo"]
    np = sys.modules["numpy"]
    with open(_input_path(workdir, i), encoding="utf-8") as fh:
        obj = json.load(fh)
    start = time.perf_counter()
    circuit = qsim.circuit_from_json(obj)
    tree = qsim.enumerate_branches(circuit)
    step_laws = [ncmo.q_t_law(circuit, t, tree)
                 for t in range(1, circuit.depth + 1)]
    remaining = ncmo.q1_law(circuit, (), tree)
    leaves = tree.leaves()
    picked = [leaves[0], leaves[len(leaves) // 2], leaves[-1]]
    read_laws = [ncmo.q2_law(circuit, leaf.outcomes, tree)
                 for leaf in picked]
    shots = ncmo.oracle_sample_many(circuit, spec["shots"],
                                    np.random.default_rng(spec["seed"]))
    seconds = time.perf_counter() - start
    return seconds, {"circuit": circuit, "leaves": leaves,
                     "step_laws": step_laws, "remaining": remaining,
                     "read_laws": read_laws, "shots": shots}


# -- verification (untimed) -------------------------------------------------------

def check(spec: dict, raw: dict) -> list[float]:
    """Check one op's exit codes, reports and own identities; returns its
    exact values or raises OpFailed."""
    if spec["kind"] == "tree":
        return _check_tree(spec, raw)
    return _check_cli(spec, raw)


def compare(spec: dict, exact: list[float], reference: dict) -> None:
    """Exact values must match the reference entry of the same input."""
    entry = reference.get(spec["id"])
    if entry is None:
        raise OpFailed(f"{spec['id']}: no reference entry")
    if entry["fp"] != spec["fp"]:
        raise OpFailed(f"{spec['id']}: input differs from the reference's")
    want = entry["exact"]
    if len(want) != len(exact) or any(
            abs(a - b) > REFERENCE_TOL for a, b in zip(want, exact)):
        raise OpFailed(f"{spec['id']}: exact values {exact} differ from "
                       f"the reference {want}")


def _check_cli(spec: dict, raw: dict) -> list[float]:
    if any(code != 0 for code in raw["codes"]):
        raise OpFailed(f"{spec['id']}: exit codes {raw['codes']}")
    reports = []
    for path in raw["outs"]:
        with open(path, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    if not all(r["passed"] for r in reports):
        raise OpFailed(f"{spec['id']}: a report did not pass")
    payload = reports[0]["payload"]
    if spec["kind"] == "oracle":
        if not reports[1]["payload"]["exact_comparison"]:
            raise OpFailed(f"{spec['id']}: sample run skipped the exact law")
        law = payload["law"]
        return law_digest(law["length"], law["probs"].items())
    if spec["kind"] == "hybrid":
        return [payload["endpoint_sd"], *payload["hybrid_gaps"],
                *payload["per_step_sds"], payload["telescoped"]]
    keys = (("exact_win", "closed_form") if "closed_form" in payload
            else ("exact_win", "hiding_sd", "both_parity_mass"))
    return [payload[k] for k in keys]


def _check_tree(spec: dict, raw: dict) -> list[float]:
    circuit, leaves = raw["circuit"], raw["leaves"]
    mass = sum(leaf.prob for leaf in leaves)
    if abs(mass - 1.0) > BRANCH_MASS_TOL:
        raise OpFailed(f"{spec['id']}: branch mass {mass!r}")
    widths = [step.measure for step in circuit.steps]
    remaining = raw["remaining"]
    first = widths[0]
    counts: dict[str, int] = {}
    for out in raw["shots"]:
        tau = "".join(v[:m] for v, m in zip(out.reads, widths))
        if remaining.prob(tau) <= 0.0:
            raise OpFailed(f"{spec['id']}: sampled transcript {tau} is not "
                           f"a branch of the tree")
        counts[tau[:first]] = counts.get(tau[:first], 0) + 1
    # the step-1 transcript marginal against the tree, atom by atom
    marginal: dict[str, float] = {}
    for tau, p in remaining.items():
        marginal[tau[:first]] = marginal.get(tau[:first], 0.0) + p
    shots = len(raw["shots"])
    for u, p in marginal.items():
        slack = SAMPLE_SIGMAS * math.sqrt(shots * p * (1.0 - p)) + 5.0
        if abs(counts.get(u, 0) - shots * p) > slack:
            raise OpFailed(f"{spec['id']}: step-1 outcome {u} drawn "
                           f"{counts.get(u, 0)} times, expected {shots * p}")
    exact = [float(len(leaves)), mass]
    for law in (*raw["step_laws"], remaining, *raw["read_laws"]):
        exact += law_digest(law.length, law.items())
    return exact


def law_digest(length: int, items) -> list[float]:
    """Atoms, key length, total mass, collision mass, and mass weighted by a
    fixed pseudo-random value of each key: five numbers that move when any
    atom's probability moves."""
    atoms = total = square = spread = 0.0
    for key, p in items:
        atoms += 1.0
        total += p
        square += p * p
        code = int(key, 2) if key else 0
        spread += p * (((code + 1) * 0x9E3779B97F4A7C15) % (1 << 64)) / 2.0 ** 64
    return [atoms, float(length), total, square, spread]
