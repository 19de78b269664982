"""
Distinct preimages of a random function
=======================================

For the preimage sampler of f the collision law has a one-line closed form:
two conditionally independent preimages of the same image differ with
probability 1 - E_y[1 / |f^-1(y)|], the expectation over the image of a
uniform input. This script computes that number four ways and watches them
agree.
"""

from collections import Counter

import numpy as np

from ncmlab.dcrpuzz import (distinct_answer_prob, dpp_instance,
                            function_scheme, oracle_col_law,
                            random_function_table, read_triples)
from ncmlab.ncmo import oracle_read_codes

rng = np.random.default_rng(2026)
table = random_function_table(rng, in_len=3, out_len=2)
scheme = function_scheme(table, 3, 2)

sizes = Counter(table.tolist())
print("preimage class sizes:",
      {format(y, "02b"): c for y, c in sorted(sizes.items())})

# route 1: count by hand
brute = 1.0 - sum((c / 8.0) * (1.0 / c) for c in sizes.values())

# route 2: the conditional-resample collision law
resample = distinct_answer_prob(scheme, "")

# route 3: prepare the state, collapse the image register, read twice
ocl = oracle_col_law(scheme, "")
p, a = scheme.puzz_len, scheme.ans_len
oracle = sum(w for flat, w in ocl.items()
             if flat[p:p + a] != flat[p + a:])

print(f"\nby hand                 {brute:.6f}")
print(f"conditional resample    {resample:.6f}")
print(f"oracle readout law      {oracle:.6f}")
assert abs(brute - resample) <= 1e-12
assert abs(brute - oracle) <= 1e-9

# route 4: live shots through the oracle
SHOTS = 20_000
reads = oracle_read_codes(dpp_instance(scheme, ""), SHOTS, rng)
_, ans, ans2 = read_triples(scheme, reads)
hits = int(np.count_nonzero(ans != ans2))
print(f"{SHOTS} live shots       {hits / SHOTS:.6f}")
assert abs(hits / SHOTS - brute) <= 0.02
