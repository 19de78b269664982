"""Every numbered acceptance criterion, one test each, one line per check."""

import time

import pytest

from ncmlab import acceptance
from ncmlab.acceptance import CRITERIA, SUITES, run_criterion, run_suite
from ncmlab.errors import StructureError

TITLES = {
    1: "oracle sampling matches the exact law",
    2: "repeated reads on the Bell state",
    3: "hybrid chain endpoints",
    4: "adjacent hybrids collapse to single-step distances",
    5: "telescoping bound",
    6: "collision law equals the two-read pipeline",
    7: "signing toy forgery via collisions",
    8: "commitment toy double-opening via collisions",
    9: "adaptive query replacement",
    10: "two reads give two preimages",
}


@pytest.mark.parametrize("k", sorted(CRITERIA))
def test_criterion(k):
    start = time.perf_counter()
    checks = run_criterion(k)
    elapsed = time.perf_counter() - start
    assert checks, f"criterion {k} produced no checks"
    for c in checks:
        verdict = "PASS" if c.passed else "FAIL"
        print(f"criterion {k:2d} [{verdict}] {c.name}: "
              f"{c.value:.3e} <= {c.tolerance:.3e}")
    failed = [c.name for c in checks if not c.passed]
    assert not failed, f"criterion {k} ({TITLES[k]}) failed: {failed}"
    if k == 1:
        assert elapsed <= 60.0, f"criterion 1 took {elapsed:.1f}s"


def test_suites_cover_every_criterion():
    named = [n for n in SUITES if n != "all"]
    covered = sorted(k for name in named for k in SUITES[name])
    assert covered == sorted(CRITERIA)
    assert SUITES["all"] == tuple(sorted(CRITERIA))


def test_suite_runner_rejects_unknown_names():
    with pytest.raises(StructureError):
        run_suite("renormalization")
    with pytest.raises(StructureError):
        run_criterion(11)


def test_fast_suite_is_deterministic():
    first = run_suite("adaptive-replacement")
    second = run_suite("adaptive-replacement")
    assert first == second


def test_empty_chain_check_reads_the_one_pass_chain(monkeypatch):
    # B(0) is checked against hybrid_laws' B(0), so a chain whose first law
    # is wrong fails the check
    real = acceptance.hybrid_laws

    def off_by_one(x, circuit, adv):
        laws = real(x, circuit, adv)
        return (laws[-1], *laws[1:])

    monkeypatch.setattr(acceptance, "hybrid_laws", off_by_one)
    checks = {c.name: c for c in run_criterion(3)}
    assert not checks["hybrid/empty-chain-equals-guess-machine[20x4]"].passed
    assert checks["hybrid/full-chain-equals-oracle[20x4]"].passed
