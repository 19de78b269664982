"""Executable acceptance checks.

Ten numbered criteria cover the oracle core, the hybrid-chain identities,
the collision/oracle equivalence, both toy reductions, adaptive query
replacement, and the preimage-pair demonstration. Each criterion returns a
list of Check rows (value measured against a tolerance); suites group the
criteria under stable names.

Every criterion is deterministic given its seed. Empirical tolerances are
sized so the seeded runs clear them with multiple-sigma margins; exact
identities use 1e-9 throughout.

Criterion 1 keeps only seeded random circuits whose exact output law has at
most 16 atoms. A total-variation budget of 0.01 at 1e5 shots can only be
met when the support is small: the expected empirical TV scales like
0.4 * sqrt(support / shots), which crosses 0.01 near support 60. The
filtered circuits still range over the full cap box (4 qubits, 3 steps,
random per-step measure widths).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dist import FiniteDist, empirical_codes, sd
from .errors import StructureError
from .ncmo import (
    FinalOutput,
    FnMachine,
    NextQuery,
    oracle_exact,
    oracle_read_codes,
    session_law,
)
from .qsim import (
    Circuit,
    Gate,
    Step,
    bell_circuit,
    enumerate_branches,
    random_circuit,
)
from .puzzles import (
    adaptive_replacement_law,
    hybrid_b_law,
    hybrid_laws,
    per_step_sd,
    step_adversary,
)
from .dcrpuzz import (
    col_oracle_gap,
    distinct_answer_prob,
    dpp_instance,
    function_scheme,
    oracle_col_law,
    random_function_table,
    random_law_scheme,
    read_triples,
)
from .primitives import (
    ToyCommitment,
    balanced_table,
    both_parity_mass,
    com_break_exact,
    com_break_via_collision,
    com_to_dcrpuzz,
    mac_break_via_collision,
    toy_mac,
)

BASE_SEED = 20260819
EXACT_TOL = 1e-9


@dataclass(frozen=True)
class Check:
    """One named measurement; passes when value <= tolerance."""

    name: str
    value: float
    tolerance: float
    passed: bool


def _leq(name: str, value: float, tol: float) -> Check:
    value = float(value)
    tol = float(tol)
    return Check(name=name, value=value, tolerance=tol, passed=value <= tol)


# -- criterion 1: oracle sampling agrees with the exact law --------------------------

def criterion_1(seed: int = BASE_SEED) -> list[Check]:
    start = time.perf_counter()
    rng = np.random.default_rng(seed + 1)
    worst_tv = 0.0
    worst_norm = 0.0
    kept = 0
    while kept < 50:
        circuit = random_circuit(rng)
        exact = oracle_exact(circuit)
        if len(exact) > 16:
            continue
        kept += 1
        leaves = enumerate_branches(circuit).levels[-1]
        norm = abs(sum(leaves.probs.tolist()) - 1.0)
        worst_norm = max(worst_norm, norm)
        codes = oracle_read_codes(circuit, 100_000, rng)
        emp = empirical_codes(codes, circuit.qubits).to_dist()
        worst_tv = max(worst_tv, sd(emp, exact))
    elapsed = time.perf_counter() - start
    return [
        _leq("oracle-core/sampling-tv[50 circuits, 1e5 shots]",
             worst_tv, 0.01),
        _leq("oracle-core/branch-mass-deficit", worst_norm, EXACT_TOL),
        # the measured seconds stay out of the report to keep its bytes
        # seed-determined; only the budget indicator is recorded
        _leq("oracle-core/runtime-within-60s",
             0.0 if elapsed <= 60.0 else 1.0, 0.0),
    ]


# -- criterion 2: the non-collapse signature ------------------------------------------

def criterion_2(seed: int = BASE_SEED) -> list[Check]:
    free = oracle_exact(bell_circuit(0, 1))
    uniform4 = FiniteDist({"0000": 0.25, "0011": 0.25,
                           "1100": 0.25, "1111": 0.25})
    collapsed = oracle_exact(bell_circuit(1, 1))
    mirrored = FiniteDist({"0000": 0.5, "1111": 0.5})
    tree = enumerate_branches(bell_circuit(1, 1))
    branch_dev = 0.0
    for leaf in tree.leaves():
        first, second = tree.path(leaf.outcomes)
        spread = 1.0 - max(p for _, p in first.readout.items())
        branch_dev = max(branch_dev, spread, sd(first.readout,
                                                second.readout))
    return [
        _leq("bell/unmeasured-joint-is-uniform-on-correlated-pairs",
             sd(free, uniform4), EXACT_TOL),
        _leq("bell/measured-joint-mirrors-the-branch",
             sd(collapsed, mirrored), EXACT_TOL),
        _leq("bell/per-branch-reads-deterministic-and-equal",
             branch_dev, EXACT_TOL),
    ]


# -- criteria 3..5: the hybrid chain ---------------------------------------------------

ENDPOINT_ADVERSARIES = ("perfect", "oblivious", "rejection:64", "constant:0")
STEP_ADVERSARIES = ("perfect", "oblivious", "rejection:64")


def _corpus(seed: int, count: int = 20) -> list[tuple[str, Circuit]]:
    rng = np.random.default_rng(seed)
    return [(format(i, "05b"), random_circuit(rng, max_qubits=3))
            for i in range(count)]


def criterion_3(seed: int = BASE_SEED) -> list[Check]:
    worst_top = 0.0
    worst_bottom = 0.0
    for x, circuit in _corpus(seed + 3):
        genuine = oracle_exact(circuit)
        for kind in ENDPOINT_ADVERSARIES:
            adv = step_adversary(kind)
            top = hybrid_b_law(circuit.depth, x, circuit, adv)
            worst_top = max(worst_top, sd(top, genuine))
            # B(0) by its own fold against the one-pass chain's B(0), the
            # law check-hybrid reports from
            bottom = hybrid_b_law(0, x, circuit, adv)
            worst_bottom = max(worst_bottom,
                               sd(bottom, hybrid_laws(x, circuit, adv)[0]))
    return [
        _leq("hybrid/full-chain-equals-oracle[20x4]", worst_top, EXACT_TOL),
        _leq("hybrid/empty-chain-equals-guess-machine[20x4]",
             worst_bottom, EXACT_TOL),
    ]


def criterion_4(seed: int = BASE_SEED) -> list[Check]:
    worst = 0.0
    for x, circuit in _corpus(seed + 4):
        for kind in STEP_ADVERSARIES:
            report = per_step_sd(x, circuit, step_adversary(kind))
            for h, s in zip(report.hybrid_gaps, report.step_gaps):
                worst = max(worst, abs(h - s))
    return [
        _leq("hybrid/adjacent-gap-equals-single-step-gap[20x3]",
             worst, EXACT_TOL),
    ]


def criterion_5(seed: int = BASE_SEED) -> list[Check]:
    worst_slack = 0.0
    worst_perfect = 0.0
    for x, circuit in _corpus(seed + 4):    # criterion 4's corpus, by contract
        for kind in STEP_ADVERSARIES:
            report = per_step_sd(x, circuit, step_adversary(kind))
            worst_slack = max(worst_slack,
                              report.endpoint_gap - report.telescoped)
            if kind == "perfect":
                worst_perfect = max(worst_perfect, report.endpoint_gap,
                                    report.telescoped)
    return [
        _leq("hybrid/telescoping-slack[20x3]", worst_slack, EXACT_TOL),
        _leq("hybrid/perfect-guesses-close-the-chain", worst_perfect,
             EXACT_TOL),
    ]


# -- criterion 6: collision law equals the two-read pipeline ---------------------------

def criterion_6(seed: int = BASE_SEED) -> list[Check]:
    rng = np.random.default_rng(seed + 6)
    shapes = [(1, 2), (2, 2), (2, 1), (1, 1), (2, 3)]
    worst = 0.0
    for i in range(10):
        puzz_len, ans_len = shapes[i % len(shapes)]
        scheme = random_law_scheme(rng, pp_len=1, puzz_len=puzz_len,
                                   ans_len=ans_len)
        for pp in scheme.setup_law().support:
            worst = max(worst, col_oracle_gap(scheme, pp))
    return [
        _leq("dcr/oracle-pipeline-reproduces-collisions[10 schemes]",
             worst, EXACT_TOL),
    ]


# -- criteria 7..8: the toy reductions --------------------------------------------------

def criterion_7(seed: int = BASE_SEED) -> list[Check]:
    rng = np.random.default_rng(seed + 7)
    mac = toy_mac(4, 4, rng)
    report = mac_break_via_collision(mac, 10_000, rng)
    return [
        _leq("mac/exact-forgery-win-hits-15-16", abs(report.exact - 0.9375),
             EXACT_TOL),
        _leq("mac/empirical-win[1e4 trials]", abs(report.rate - 0.9375),
             0.02),
    ]


def criterion_8(seed: int = BASE_SEED) -> list[Check]:
    com = ToyCommitment(3, 1, balanced_table(3, 1))
    rng = np.random.default_rng(seed + 8)
    report = com_break_via_collision(com, 10_000, rng, form="coherent")
    exact = report.exact
    target = 0.5 * both_parity_mass(com)
    literal = com_break_exact(com, com_to_dcrpuzz(com, "literal"))
    return [
        _leq("commitment/exact-win-is-half-the-both-parity-mass",
             abs(exact - target), EXACT_TOL),
        _leq("commitment/empirical-win[1e4 trials]",
             abs(report.rate - exact), 0.02),
        # the answer bit rides on a bit-0 key, so the second opening can
        # never verify: recorded expected behavior, not a defect
        _leq("commitment/literal-form-win-is-exactly-zero", literal, 0.0),
    ]


# -- criterion 9: replacing adaptive queries one at a time ------------------------------

def _two_query_machine() -> FnMachine:
    first = bell_circuit(1, 0)
    followup_a = bell_circuit(1, 1)
    followup_b = Circuit(qubits=2, steps=(
        Step(gates=(Gate("h", (0,)),), measure=1),))

    def fn(x, eps, history):
        if len(history) == 0:
            return NextQuery(first)
        if len(history) == 1:
            branch = history[0].reads[0][0]
            return NextQuery(followup_a if branch == "0" else followup_b)
        return FinalOutput(history[0].reads[0] + history[1].reads[-1])

    return FnMachine(fn, query_bound=2)


def criterion_9(seed: int = BASE_SEED) -> list[Check]:
    machine = _two_query_machine()
    x = "00"
    truth = session_law(machine, x, 0.25,
                        lambda circuit, k: oracle_exact(circuit))
    perfect = step_adversary("perfect")
    worst = 0.0
    for i in range(machine.query_bound + 1):
        law = adaptive_replacement_law(machine, x, 0.25, i, perfect)
        worst = max(worst, sd(law, truth))
    return [
        _leq("adaptive/perfect-solver-swap-preserves-session-law[i=0..2]",
             worst, EXACT_TOL),
    ]


# -- criterion 10: two reads give two preimages ------------------------------------------

def criterion_10(seed: int = BASE_SEED) -> list[Check]:
    rng = np.random.default_rng(seed + 10)
    shots = 50_000
    worst_col = 0.0
    worst_oracle = 0.0
    worst_emp = 0.0
    for _ in range(10):
        table = random_function_table(rng, 3, 2)
        scheme = function_scheme(table, 3, 2)
        counts = Counter(table.tolist())
        brute = 1.0 - sum((c / 8) * (1 / c) for c in counts.values())
        worst_col = max(worst_col,
                        abs(distinct_answer_prob(scheme, "") - brute))
        p, a = scheme.puzz_len, scheme.ans_len
        law = oracle_col_law(scheme, "")
        via_oracle = sum(w for flat, w in law.items()
                         if flat[p:p + a] != flat[p + a:])
        worst_oracle = max(worst_oracle, abs(via_oracle - brute))
        reads = oracle_read_codes(dpp_instance(scheme, ""), shots, rng)
        _, ans, ans2 = read_triples(scheme, reads)
        hits = int(np.count_nonzero(ans != ans2))
        worst_emp = max(worst_emp, abs(hits / shots - brute))
    return [
        _leq("preimages/collision-law-distinct-prob[10 functions]",
             worst_col, EXACT_TOL),
        _leq("preimages/oracle-route-distinct-prob[10 functions]",
             worst_oracle, EXACT_TOL),
        _leq("preimages/sampled-distinct-prob[5e4 shots]",
             worst_emp, 0.01),
    ]


# -- suites ------------------------------------------------------------------------------

CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
}

SUITES = {
    "oracle-core": (1, 2),
    "hybrid-identities": (3, 4, 5),
    "dcr-equivalence": (6,),
    "reductions": (7, 8),
    "adaptive-replacement": (9,),
    "preimage-pairs": (10,),
    "all": tuple(range(1, 11)),
}


def run_criterion(k: int, seed: int = BASE_SEED) -> list[Check]:
    if k not in CRITERIA:
        raise StructureError(f"no criterion numbered {k}")
    return CRITERIA[k](seed)


def run_suite(name: str, seed: int = BASE_SEED) -> list[Check]:
    if name not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise StructureError(f"unknown suite {name!r}; choose from {known}")
    checks: list[Check] = []
    for k in SUITES[name]:
        checks.extend(run_criterion(k, seed))
    return checks
