"""Function tables as code arrays, and the collision sampler's row search.

``random_function_table`` draws a whole table in one ``integers`` call; it
must be the stream of the per-key scalar calls it replaced, and leave the
generator where they left it. ``ColSampler.draw`` places each answer with
one segmented binary search; the reference here is the lexicographic
``searchsorted`` over (row, cum) records that it replaced, which makes the
same comparisons.
"""

import numpy as np
import pytest

from ncmlab.dcrpuzz import (
    ColSampler,
    DcrScheme,
    random_function_table,
    random_law_scheme,
    segmented_search,
)
from ncmlab.dist import FiniteDist
from ncmlab.primitives import (
    bits,
    com_to_dcrpuzz,
    mac_to_dcrpuzz,
    toy_commitment,
    toy_mac,
)

ROW_CUM = np.dtype([("row", np.int64), ("cum", np.float64)])


# -- the table draw ------------------------------------------------------------------

TOY_SHAPES = ([(2 * n, 2 * n) for n in range(1, 7)]
              + [(2 * n, n - c) for n in range(2, 5) for c in range(1, n)])


@pytest.mark.parametrize("in_len,out_len", TOY_SHAPES)
def test_table_draw_is_the_scalar_stream(in_len, out_len):
    seed = 100 * in_len + out_len
    scalar = np.random.default_rng(seed)
    want = [int(scalar.integers(1 << out_len)) for _ in range(1 << in_len)]
    rng = np.random.default_rng(seed)
    table = random_function_table(rng, in_len, out_len)
    assert table.dtype == np.int64 and table.tolist() == want
    assert rng.random() == scalar.random()


def test_string_views_follow_the_codes():
    mac = toy_mac(2, 1, np.random.default_rng(8))
    assert mac.table == {k: format(v, "04b")
                         for k, v in zip(bits(4), mac.vk_codes.tolist())}
    preimages = {}
    for key, vk in mac.table.items():
        preimages.setdefault(vk, []).append((key[:2], key[2:]))
    assert mac.preimages == preimages
    for com in (toy_commitment(3, 1, np.random.default_rng(9)),
                toy_commitment(4, 2, np.random.default_rng(10))):
        width = com.digest_len
        assert com.table == {k: format(v, f"0{width}b")
                             for k, v in zip(bits(2 * com.n),
                                             com.digest_codes.tolist())}
        classes = {}
        for key, y in com.table.items():
            classes.setdefault(y, ([], []))[int(key[0])].append(key)
        assert com.classes == classes
        half = 1 << (2 * com.n - 1)
        for b in (0, 1):
            counts = {y: len(pair[b]) for y, pair in classes.items()}
            assert com.parity_counts[b].tolist() == [
                counts.get(y, 0) for y in bits(width)]
            want = FiniteDist({y: c / half for y, c in counts.items() if c})
            assert com.s1_law(b).to_json() == want.to_json()


# -- the segmented search ------------------------------------------------------------

def structured_search(cum, starts, ends, rows, queries):
    """The replaced search: one right-side searchsorted over (row, cum)."""
    atoms = np.empty(len(cum), dtype=ROW_CUM)
    atoms["row"] = np.repeat(np.arange(len(starts)), ends - starts)
    atoms["cum"] = cum
    query = np.empty(queries.shape, dtype=ROW_CUM)
    query["row"] = rows
    query["cum"] = queries
    return np.searchsorted(atoms, query, side="right")


def ragged_rows(rng):
    """Nondecreasing rows: single atoms, runs of repeated cum values (zero
    steps), and one strictly increasing row that is the longest."""
    sizes = rng.integers(1, 12, size=int(rng.integers(3, 9)))
    sizes[rng.integers(len(sizes))] = 1
    longest = int(rng.integers(sizes.max() + 1, 40))
    sizes = np.append(sizes, longest)
    rows = []
    for size in sizes[:-1]:
        steps = rng.random(size) * (rng.random(size) < 0.6)
        rows.append(np.cumsum(steps))
    rows.append(np.cumsum(rng.random(longest) + 0.01))
    rng.shuffle(rows)
    ends = np.cumsum([len(r) for r in rows])
    return np.concatenate(rows), ends - [len(r) for r in rows], ends


@pytest.mark.parametrize("seed", range(40))
def test_segmented_search_is_the_structured_search(seed):
    rng = np.random.default_rng(9000 + seed)
    cum, starts, ends = ragged_rows(rng)
    rows = rng.integers(len(starts), size=(300, 2))
    span = cum[ends[rows] - 1]
    queries = rng.random((300, 2)) * span * 1.1 - 0.05 * span
    # queries equal to a cum entry of their row, including its first and
    # last, and the first entry of the longest row
    hit = rng.random((300, 2)) < 0.4
    pick = starts[rows] + rng.integers(0, ends[rows] - starts[rows])
    queries[hit] = cum[pick[hit]]
    big = int(np.argmax(ends - starts))
    rows[0] = big
    queries[0] = cum[starts[big]], cum[ends[big] - 1]
    rounds = int((ends - starts).max()).bit_length()
    want = structured_search(cum, starts, ends, rows, queries)
    got = segmented_search(cum, starts[rows], ends[rows], queries, rounds)
    assert got.tolist() == want.tolist()
    # one round fewer leaves the longest row's search unsettled
    short = segmented_search(cum, starts[rows], ends[rows], queries,
                             rounds - 1)
    assert short.tolist() != want.tolist()


def reference_draw(sampler, rng, trials):
    """``ColSampler.draw`` as it was, on the structured search."""
    u = rng.random(3 * trials).reshape(trials, 3)
    cum = sampler._marg_cum
    row = np.minimum(np.searchsorted(cum, u[:, 0] * cum[-1], side="right"),
                     len(cum) - 1)
    last = sampler._ends[row][:, None] - 1
    at = structured_search(sampler._cum, sampler._starts, sampler._ends,
                           np.broadcast_to(row[:, None], (trials, 2)),
                           u[:, 1:] * sampler._cum[last])
    ans = sampler._cols[np.minimum(at, last)]
    return sampler._puzz[row], ans[:, 0], ans[:, 1]


def table_sampler(table):
    """The sampler of the scheme whose law has the positive entries of
    ``table[puzz, ans]`` as its atoms."""
    rows, cols = np.nonzero(table)
    p = (len(table) - 1).bit_length()
    a = max(1, (table.shape[1] - 1).bit_length())
    law = FiniteDist.from_codes(p + a, (rows << a) | cols, table[rows, cols])
    return ColSampler(DcrScheme(puzz_len=p, ans_len=a,
                                setup=FiniteDist.point(""),
                                samp_laws={"": law}), "")


@pytest.mark.parametrize("seed", range(30))
def test_draws_match_the_structured_search(seed):
    rng = np.random.default_rng(7000 + seed)
    table = rng.random((int(rng.integers(1, 9)), int(rng.integers(1, 70))))
    table[rng.random(table.shape) < rng.random()] = 0.0
    table[rng.integers(len(table)), 0] = 0.5       # no row left empty
    if len(table) > 1:
        table[0] = 0.0
        table[0, 0] = 0.25                          # a single-atom row
    sampler = table_sampler(table)
    for draw_seed in range(5):
        got = sampler.draw(np.random.default_rng(draw_seed), 200)
        want = reference_draw(sampler, np.random.default_rng(draw_seed), 200)
        for g, w in zip(got, want):
            assert g.tolist() == w.tolist()


def test_pinned_draws():
    scheme = random_law_scheme(np.random.default_rng(11), pp_len=1,
                               puzz_len=2, ans_len=3, density=0.6)
    mac = toy_mac(2, 2, np.random.default_rng(3))
    com = toy_commitment(3, 1, np.random.default_rng(6))
    samplers = {
        "law-0": (ColSampler(scheme, "0"), 5),
        "law-1": (ColSampler(scheme, "1"), 5),
        "mac": (ColSampler(mac_to_dcrpuzz(mac), ""), 4),
        "com": (ColSampler(com_to_dcrpuzz(com, "coherent"), ""), 7),
    }
    pinned = {
        "law-0": [[3, 0, 1, 3, 1, 3, 2, 0], [6, 1, 2, 5, 6, 5, 1, 6],
                  [5, 3, 2, 1, 6, 5, 6, 1]],
        "law-1": [[2, 0, 1, 3, 1, 3, 1, 0], [7, 1, 0, 5, 7, 2, 0, 7],
                  [4, 3, 0, 2, 7, 2, 4, 1]],
        "mac": [[13, 1, 9, 5, 3, 2, 1, 13], [9, 9, 3, 15, 12, 15, 9, 9],
                [13, 6, 13, 7, 12, 15, 11, 3]],
        "com": [[2, 0, 0, 1, 1, 2, 2, 0],
                [115, 96, 120, 8, 15, 125, 125, 114],
                [105, 121, 117, 8, 18, 105, 11, 10]],
    }
    for name, (sampler, seed) in samplers.items():
        got = sampler.draw(np.random.default_rng(seed), 8)
        assert [a.tolist() for a in got] == pinned[name], name
