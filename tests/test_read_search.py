"""The batched sampler's one search per step.

``oracle_read_codes`` places every read of a step with one branchless
search over the children's stacked readout cdfs (``ncmo._search_reads``).
Its rows are all 2^(n - m) wide and end at exactly 1.0, so the search
makes the comparisons of a right ``searchsorted`` in each child's row. The
codes, and the generator's state after them, must equal the per-child
loop's (``per_child_reads``) byte for byte, with and without a built tree.
"""

import ast
import pathlib
import tracemalloc

import numpy as np
import pytest

import ncmlab.dist as dist
import ncmlab.ncmo as ncmo
import ncmlab.qsim as qsim
import per_child_reads
from ncmlab.ncmo import oracle_read_codes, sample_byte_bound
from ncmlab.qsim import enumerate_branches
from test_ncmo import _dense
from test_sampler_tree import _cases, _copy, _leaning


def _same_reads(c, shots, seed):
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = oracle_read_codes(c, shots, a)
    want = per_child_reads.oracle_read_codes(c, shots, b)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert a.bit_generator.state == b.bit_generator.state


def test_the_cases_sum_rows_over_at_least_eight_outcomes():
    # a split row of 2^m >= 8 outcomes is where a pairwise row sum could
    # differ from the stacked one
    assert any(step.measure >= 4 for c, _ in _cases() for step in c.steps)


@pytest.mark.parametrize("m", range(9))
def test_stacked_split_rows_normalise_like_each_row(m):
    # a draw seldom moves when p moves by one ulp, so check the division
    # the sampler stacks directly: cond / cond.sum(axis=1) against each
    # row's own cond[g] / cond[g].sum()
    cond = np.random.default_rng(m).random((7, 1 << m)) ** 3
    stacked = cond / cond.sum(axis=1)[:, None]
    for g in range(len(cond)):
        assert stacked[g].tobytes() == (cond[g] / cond[g].sum()).tobytes()


@pytest.mark.parametrize("i", range(len(_cases())))
@pytest.mark.parametrize("tree", [False, True], ids=["evolved", "tree"])
def test_reads_equal_the_per_child_loop(i, tree):
    c, planned = _cases()[i]
    for shots in (1, 7, planned):
        c = _copy(c)
        if tree:
            enumerate_branches(c)
        _same_reads(c, shots, i)


@pytest.mark.parametrize("step", [1, 2])
def test_reads_past_a_pruned_node_equal_the_per_child_loop(monkeypatch,
                                                           step):
    c = _leaning(step)
    # a tree built with a coarser prune keeps no node for the 0.32 outcomes
    with monkeypatch.context() as patch:
        patch.setattr(qsim, "BRANCH_PRUNE_TOL", 0.4)
        enumerate_branches(c)
    _same_reads(c, 2000, 5)


# -- crafted rows -------------------------------------------------------------

def _per_row(cdf, sizes, highs, u):
    out, lo = np.empty(len(u), dtype=np.int64), 0
    for c, size in enumerate(sizes):
        out[lo:lo + size] = highs[c] | cdf[c].searchsorted(u[lo:lo + size],
                                                           side="right")
        lo += size
    return out


def _searched(cdf, sizes, u):
    highs = np.arange(len(sizes), dtype=np.int64) << 20
    out = np.full(len(u), -1, dtype=np.int64)
    ncmo._search_reads(cdf, sizes, highs, u, out)
    assert out.tobytes() == _per_row(cdf, sizes, highs, u).tobytes()
    return out


def _pruned_cdf(rng, rows, w):
    """Readout cdfs of random blocks with about a third of their atoms
    zero, so entries repeat: even rows start on a zero atom (entry 0.0),
    odd rows end on one (1.0 twice)."""
    blocks = rng.normal(size=(rows, w)) + 1j * rng.normal(size=(rows, w))
    blocks[rng.random((rows, w)) < 1 / 3] = 0.0
    blocks[::2, 0], blocks[::2, -1] = 0.0, 1.0
    blocks[1::2, 0], blocks[1::2, -1] = 1.0, 0.0
    return ncmo._readout_cdfs(blocks)


def _on_entries(cdf, rng, per_row):
    """Uniforms for per_row shots of each row: every entry of the row
    below 1.0, 0.0 and the largest double below 1.0, then random ones."""
    sizes, parts = [], []
    for row in cdf:
        at = np.concatenate((row[row < 1.0], [0.0, np.nextafter(1.0, 0.0)],
                             rng.random(per_row)))
        sizes.append(len(at))
        parts.append(at)
    return sizes, np.concatenate(parts)


@pytest.mark.parametrize("w", [2, 4, 16, 1 << 12])
def test_uniforms_on_repeated_entries_land_where_the_row_search_does(w):
    rng = np.random.default_rng(w)
    cdf = _pruned_cdf(rng, 5, w)
    assert np.all(cdf[:, -1] == 1.0) and np.all(cdf[::2, 0] == 0.0)
    assert np.all(cdf[1::2, -2] == 1.0)
    sizes, u = _on_entries(cdf, rng, 50)
    _searched(cdf, sizes, u)


def test_a_one_atom_row_takes_no_round():
    cdf = np.ones((4, 1))
    u = np.array([0.0, 0.5, np.nextafter(1.0, 0.0), 0.25, 0.0])
    out = _searched(cdf, [2, 1, 0, 2], u)
    assert out.tolist() == [0, 0, 1 << 20, 3 << 20, 3 << 20]


def test_a_search_past_one_chunk_lands_where_the_row_search_does():
    rng = np.random.default_rng(15)
    cdf = _pruned_cdf(rng, 3, 8)
    sizes = [ncmo.SEARCH_CHUNK - 3, 7, ncmo.SEARCH_CHUNK + 11]
    u = rng.random(sum(sizes))
    u[::97] = 0.0
    # row 1's shots straddle the chunk boundary; put them on its entries
    entries = cdf[1][cdf[1] < 1.0]
    u[sizes[0]:sizes[0] + len(entries)] = entries
    assert sum(sizes) > 2 * ncmo.SEARCH_CHUNK
    _searched(cdf, sizes, u)


# -- memory -------------------------------------------------------------------

@pytest.mark.parametrize("measures", [(2,), (1, 2), (1, 0, 2)],
                         ids=["depth1", "depth2", "depth3"])
@pytest.mark.parametrize("tree", [False, True], ids=["evolved", "tree"])
def test_the_peak_stays_under_the_sample_bound(measures, tree):
    c = _dense(np.random.default_rng(len(measures)), 3, measures)
    if tree:
        enumerate_branches(c)
    shots = 1 << 18
    tracemalloc.start()
    try:
        reads = oracle_read_codes(c, shots, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reads.shape == (shots, c.depth)
    assert reads.nbytes <= peak <= sample_byte_bound(c, shots)


# -- one search site ----------------------------------------------------------

_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _calls(module, attr):
    """(function, receiver, loop depth in the function) of every call of
    the attribute ``attr`` in ``module``."""
    found = []

    def visit(node, where, loops):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where, loops = node.name, 0
        if isinstance(node, _LOOPS):
            loops += 1
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == attr):
            found.append((where, ast.unparse(node.func.value), loops))
        for child in ast.iter_child_nodes(node):
            visit(child, where, loops)

    path = pathlib.Path(module.__file__)
    visit(ast.parse(path.read_text(encoding="utf-8")), None, 0)
    return found


def test_reads_are_placed_without_a_loop_over_children():
    # the only search in the sampler finds the tree rows of a step's
    # children, once per step; the reads have no per-child search
    assert _calls(ncmo, "searchsorted") == [
        ("oracle_read_codes", "level.taus", 1)]
    # ragged_blocks slices its runs instead of np.split
    assert [call for call in _calls(dist, "split")
            if call[0] == "ragged_blocks"] == []
