"""Seeded instance pools and per-run plans for the four workloads.

Every workload draws its operations from a fixed pool of candidate
instances. A candidate is generated here, from ``POOL_SEED`` and its own
index, with numpy alone: the program under test never generates its own
inputs. ``reference.json`` lists the candidates admitted to each pool
together with the exact values they produced when the reference was made,
so every operation the benchmark runs has an exact answer to be compared
against. ``--seed`` chooses which admitted candidates a run uses and in
what order; the same seed always gives the same plan.

A pool is split into classes of fixed input size, and a class's candidates
come in groups that share one instance and differ only in a variant (the
adversary, or the commitment form and table). A plan takes a fixed number
of whole groups from every class and interleaves the classes, so each run
holds the same mix of sizes and variants and its percentiles do not depend
on the seed's luck in drawing large or small instances.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

POOL_SEED = 20261017

# default workload seed, and one kept back for re-checking a claimed gain
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

ORACLE_SHOTS = 10_000
REDUCTION_TRIALS = 500
EXACT_LAW_ATOMS_MAX = 16  # criterion 1's filter on the exact output law

ADVERSARIES = ("perfect", "oblivious", "constant:0")
ALL_FORMS = (("coherent", "balanced"), ("literal", "balanced"),
             ("coherent", "random"), ("literal", "random"))
RANDOM_FORMS = ALL_FORMS[2:]
ONE = (None,)

# -- class tables -------------------------------------------------------------
# Each class: name, groups in the pool, groups per run, the variants every
# group is run under, and its input sizes ("measure" lists each step's
# collapsed qubits). Per-run shares are chosen so that the 50th and 90th
# percentiles of op time fall inside a cluster of similar ops, not on the
# edge between two, where they would jump from seed to seed.

CLASSES = {
    "oracle-sample": [
        {"name": "crit1", "size": 240, "per_run": 100, "variants": ONE},
    ],
    "exact-chain": [
        {"name": "3q3s", "size": 24, "per_run": 12, "variants": ADVERSARIES,
         "qubits": 3, "measure": (1, 2, 1)},
        {"name": "3q4s", "size": 24, "per_run": 12, "variants": ADVERSARIES,
         "qubits": 3, "measure": (1, 1, 1, 1)},
        {"name": "4q3s", "size": 24, "per_run": 12, "variants": ADVERSARIES,
         "qubits": 4, "measure": (2, 1, 2)},
    ],
    "reductions": [
        {"name": "mac-n4-lm3", "size": 64, "per_run": 40, "variants": ONE,
         "primitive": "mac", "params": "n=4,lm=3"},
        {"name": "com-n3-c1", "size": 12, "per_run": 6, "variants": ALL_FORMS,
         "primitive": "commitment", "params": "n=3,c=1"},
        {"name": "com-n4-c1", "size": 12, "per_run": 5, "variants": ALL_FORMS,
         "primitive": "commitment", "params": "n=4,c=1"},
        # the balanced n=4, c=2 table costs three times a random one and
        # would form a small cluster right at the 90th percentile
        {"name": "com-n4-c2", "size": 24, "per_run": 8,
         "variants": RANDOM_FORMS, "primitive": "commitment",
         "params": "n=4,c=2"},
    ],
    "wide-tree": [
        {"name": "6q-5+5", "size": 40, "per_run": 25, "variants": ONE,
         "qubits": 6, "measure": (5, 5)},
        {"name": "7q-4+5", "size": 40, "per_run": 25, "variants": ONE,
         "qubits": 7, "measure": (4, 5)},
        {"name": "8q-4+4", "size": 40, "per_run": 25, "variants": ONE,
         "qubits": 8, "measure": (4, 4)},
        {"name": "8q-3+5", "size": 40, "per_run": 25, "variants": ONE,
         "qubits": 8, "measure": (3, 5)},
    ],
}

WORKLOADS = tuple(CLASSES)


# -- circuit pieces -----------------------------------------------------------

def _unitary_2x2(rng: np.random.Generator) -> list:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    q = q * (r.diagonal() / np.abs(r.diagonal()))
    return [[[float(v.real), float(v.imag)] for v in row] for row in q]


def _small_random_circuit(rng: np.random.Generator) -> dict:
    """The shape of acceptance criterion 1: 1-4 qubits, 1-3 steps, at most
    two support-spreading gates, random measure widths."""
    n = int(rng.integers(1, 5))
    depth = int(rng.integers(1, 4))
    spreaders = 2
    steps = []
    for _ in range(depth):
        gates = []
        for _ in range(int(rng.integers(1, 5))):
            pool = ["x", "y", "z", "s"]
            if n >= 2:
                pool += ["cnot", "swap", "cphase"]
            if spreaders > 0:
                pool += ["h", "u1q"]
            name = pool[int(rng.integers(len(pool)))]
            if name in ("cnot", "swap", "cphase"):
                a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
                gate = {"name": name, "targets": [a, b]}
                if name == "cphase":
                    gate["theta"] = float(rng.uniform(0.0, 2.0 * math.pi))
            else:
                gate = {"name": name, "targets": [int(rng.integers(n))]}
                if name in ("h", "u1q"):
                    spreaders -= 1
                if name == "u1q":
                    gate["matrix"] = _unitary_2x2(rng)
            gates.append(gate)
        steps.append({"gates": gates, "measure": int(rng.integers(0, n + 1))})
    return {"qubits": n, "steps": steps}


def _dense_circuit(rng: np.random.Generator, n: int,
                   measures: tuple[int, ...]) -> dict:
    """A random single-qubit unitary on every qubit, then a CNOT chain, in
    every step: readout laws keep their full 2^(n-m) support."""
    steps = []
    for m in measures:
        gates = [{"name": "u1q", "targets": [q], "matrix": _unitary_2x2(rng)}
                 for q in range(n)]
        gates += [{"name": "cnot", "targets": [q, q + 1]}
                  for q in range(n - 1)]
        steps.append({"gates": gates, "measure": int(m)})
    return {"qubits": n, "steps": steps}


def _bits(rng: np.random.Generator, k: int) -> str:
    return "".join(str(int(b)) for b in rng.integers(0, 2, k))


# -- candidates -----------------------------------------------------------------

def candidate(workload: str, class_index: int, group: int,
              variant: int) -> dict:
    """The op spec of one pool candidate; a pure function of its position."""
    cls = CLASSES[workload][class_index]
    wl = WORKLOADS.index(workload)
    rng = np.random.default_rng([POOL_SEED, wl, class_index, group])
    cid = f"{cls['name']}/{group:03d}.{variant}"
    if workload == "oracle-sample":
        return {"id": cid, "kind": "oracle",
                "circuit": _small_random_circuit(rng),
                "shots": ORACLE_SHOTS, "seed": int(rng.integers(1 << 31))}
    if workload == "exact-chain":
        return {"id": cid, "kind": "hybrid",
                "circuit": _dense_circuit(rng, cls["qubits"], cls["measure"]),
                "x": _bits(rng, 3),
                "adversary": cls["variants"][variant]}
    if workload == "reductions":
        argv = ["--primitive", cls["primitive"]]
        params = cls["params"]
        if cls["primitive"] == "commitment":
            form, table = cls["variants"][variant]
            argv += ["--variant", form]
            params += ",table=" + table
        argv += ["--params", params, "--trials", str(REDUCTION_TRIALS),
                 "--seed", str(int(rng.integers(1 << 31)))]
        return {"id": cid, "kind": "reduction", "argv": argv}
    if workload == "wide-tree":
        circuit = _dense_circuit(rng, cls["qubits"], cls["measure"])
        return {"id": cid, "kind": "tree", "circuit": circuit,
                "shots": 1 << sum(cls["measure"]),
                "seed": int(rng.integers(1 << 31))}
    raise KeyError(workload)


def fingerprint(spec: dict) -> str:
    text = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def all_candidates(workload: str):
    for ci, cls in enumerate(CLASSES[workload]):
        for g in range(cls["size"]):
            for v in range(len(cls["variants"])):
                yield candidate(workload, ci, g, v)


# -- plans ----------------------------------------------------------------------

def plan(workload: str, seed: int, admitted) -> list[dict]:
    """The run's op cycle: per_run admitted groups from every class, drawn
    by the seed, interleaved class by class. A group is admitted when all
    of its variants are."""
    # SeedSequence takes non-negative entropy; fold negative seeds in
    rng = np.random.default_rng([seed % (1 << 63), WORKLOADS.index(workload)])
    per_class = []
    for ci, cls in enumerate(CLASSES[workload]):
        groups = [g for g in range(cls["size"])
                  if all(f"{cls['name']}/{g:03d}.{v}" in admitted
                         for v in range(len(cls["variants"])))]
        if len(groups) < cls["per_run"]:
            raise ValueError(f"{workload}: class {cls['name']} has only "
                             f"{len(groups)} admitted groups")
        picks = rng.choice(len(groups), size=cls["per_run"], replace=False)
        per_class.append([candidate(workload, ci, groups[int(p)], v)
                          for p in picks
                          for v in range(len(cls["variants"]))])
    longest = max(len(ops) for ops in per_class)
    return [ops[i] for i in range(longest) for ops in per_class
            if i < len(ops)]


def warmup(workload: str, admitted) -> dict:
    """The fixed, untimed first op of every run of a workload: the same for
    every seed, so set-up time does not depend on the seed."""
    cls = CLASSES[workload][0]
    group = min(int(k.split("/")[1].split(".")[0]) for k in admitted
                if k.startswith(cls["name"] + "/"))
    return candidate(workload, 0, group, 0)
