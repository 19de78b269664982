"""One read rule: ``qsim.born_weights`` gives every non-collapsing read its
weights, and no other code compares against READOUT_PRUNE_TOL.

At the tolerance a weight is dropped and the next float above it is kept,
the same way in the readout law of a state, the atoms of a tree level, the
batched sampler's cdfs and a scheme's state law. Checks that guard the
read's inputs (unitarity, prep and scheme norms) refuse a NaN, because the
read would drop its mass without a word.
"""

import ast
import pathlib
import warnings

import numpy as np
import pytest

import ncmlab
import ncmlab.qsim as qsim
from ncmlab.dcrpuzz import DcrScheme
from ncmlab.dist import FiniteDist
from ncmlab.errors import StructureError
from ncmlab.ncmo import _readout_cdfs
from ncmlab.qsim import (
    Circuit,
    Gate,
    Step,
    born_weights,
    enumerate_branches,
    readout_dist,
)


def _boundary(tol):
    """Real amplitudes (at, above): the square of ``at`` is the largest
    square not above ``tol`` and that of ``above`` is the next square."""
    at = np.sqrt(tol)
    while at * at > tol:
        at = np.nextafter(at, 0.0)
    return at, np.nextafter(at, 1.0)


def _exact_boundary():
    """A tolerance that is a square, ``at * at``, whose next float above is
    the square of ``above`` (no float squares to 1e-14 itself)."""
    at = np.sqrt(qsim.READOUT_PRUNE_TOL)
    while np.nextafter(at, 1.0) ** 2 != np.nextafter(at * at, 1.0):
        at = np.nextafter(at, 0.0)
    return at * at, at, np.nextafter(at, 1.0)


def _boundary_cases():
    at, above = _boundary(qsim.READOUT_PRUNE_TOL)
    yield qsim.READOUT_PRUNE_TOL, at, above
    yield _exact_boundary()


@pytest.mark.parametrize("tol,at,above", list(_boundary_cases()),
                         ids=["real-tolerance", "square-tolerance"])
def test_every_read_drops_the_tolerance_and_keeps_the_next_float(
        tol, at, above, monkeypatch):
    monkeypatch.setattr(qsim, "READOUT_PRUNE_TOL", tol)
    assert at * at <= tol and above * above == np.nextafter(tol, 1.0)
    rest = np.sqrt((1.0 - at * at - above * above) / 2.0)
    amps = np.array([at, above, rest, rest], dtype=complex)
    born = born_weights(amps)
    assert born[0] == 0.0 and born[1] == above * above
    # the readout law of a state
    assert readout_dist(amps, 2).codes.tolist() == [1, 2, 3]
    # the atoms of a prep circuit's tree level
    circuit = Circuit(qubits=2, steps=(
        Step(gates=(Gate("prep", (0, 1), matrix=amps),), measure=0),))
    _, cols, weights = enumerate_branches(circuit).levels[1].atoms()
    assert cols.tolist() == [1, 2, 3]
    assert weights[0] == above * above
    # the batched sampler's cdf: a zero-width step, then a positive one
    cdf = _readout_cdfs(amps[None])[0]
    assert cdf[0] == 0.0 and cdf[1] > 0.0
    # a scheme's state law
    scheme = DcrScheme(puzz_len=1, ans_len=1, setup=FiniteDist.point(""),
                       states={"": amps})
    assert scheme.samp_law("").support == ["01", "10", "11"]


def test_born_weights_drop_nan_and_keep_shape():
    amps = np.array([[np.nan, 0.6], [0.8, 1e-8]], dtype=complex)
    born = born_weights(amps)
    assert born.shape == (2, 2)
    assert born.tolist() == [[0.0, np.abs(amps[0, 1]) ** 2],
                             [np.abs(amps[1, 0]) ** 2, 0.0]]


def _tolerance_comparisons():
    """(module, function) of every comparison in the package that names
    READOUT_PRUNE_TOL."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Compare):
            for side in (node.left, *node.comparators):
                names = {n.id for n in ast.walk(side)
                         if isinstance(n, ast.Name)}
                names |= {n.attr for n in ast.walk(side)
                          if isinstance(n, ast.Attribute)}
                if "READOUT_PRUNE_TOL" in names:
                    found.append((module, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(pathlib.Path(ncmlab.__file__).parent.glob("*.py")):
        module = path.stem
        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_only_born_weights_compares_against_the_read_tolerance():
    assert _tolerance_comparisons() == [("qsim", "born_weights")]


# -- NaN fails the checks that guard a read's inputs -----------------------------

HUGE_U1Q = np.array([[1e200 + 1e200j, 1e200 - 1e200j],
                     [1e200 - 1e200j, 1e200 + 1e200j]])


@pytest.mark.parametrize("matrix", [HUGE_U1Q, np.full((2, 2), np.nan)],
                         ids=["huge", "nan"])
def test_u1q_with_a_nan_defect_is_not_unitary(matrix):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StructureError, match="not unitary"):
            Circuit(qubits=1, steps=(
                Step(gates=(Gate("u1q", (0,), matrix=matrix),)),))


@pytest.mark.parametrize("amps", [[np.nan, 0.0], [1e200, 1e200j]],
                         ids=["nan", "huge"])
def test_prep_vector_with_a_nan_norm_is_refused(amps):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StructureError, match="prep vector norm"):
            Circuit(qubits=1, steps=(Step(gates=(
                Gate("prep", (0,), matrix=np.array(amps, dtype=complex)),)),))


def test_scheme_state_with_a_nan_amplitude_is_not_normalized():
    amps = np.array([np.nan, 0.6, 0.8, 0.0], dtype=complex)
    with pytest.raises(StructureError, match="not normalized"):
        DcrScheme(puzz_len=1, ans_len=1, setup=FiniteDist.point(""),
                  states={"": amps})
