"""
Sampled histograms against the exact law
========================================

The oracle has two faces. ``oracle_exact`` walks the branch tree and returns
the joint readout law as a finite distribution; ``oracle_read_codes`` plays
the branching process for many shots at once and returns each shot's
readouts as basis indices, which ``empirical_codes`` counts into a
histogram. This script draws seeded random circuits, compares the two faces
in total variation, and checks that the branch tree accounts for all the
probability mass.
"""

import numpy as np

from ncmlab.dist import empirical_codes, sd
from ncmlab.ncmo import oracle_exact, oracle_read_codes
from ncmlab.qsim import enumerate_branches, random_circuit

SHOTS = 100_000

rng = np.random.default_rng(20260819)

# A histogram of N shots resolves a K-point law to roughly sqrt(K / N) in
# total variation, so keep the support small enough for the comparison to
# mean something at this shot count.
kept = []
while len(kept) < 5:
    c = random_circuit(rng)
    if len(oracle_exact(c)) <= 16:
        kept.append(c)

for i, circuit in enumerate(kept):
    exact = oracle_exact(circuit)
    mass = sum(enumerate_branches(circuit).levels[-1].probs.tolist())

    codes = oracle_read_codes(circuit, SHOTS, rng)
    hist = empirical_codes(codes, circuit.qubits).to_dist()
    tv = sd(exact, hist)

    print(f"circuit {i}: {circuit.qubits} qubits, {circuit.depth} steps, "
          f"support {len(exact)}")
    print(f"  branch mass   1 - {abs(1.0 - mass):.2e}")
    print(f"  empirical TV  {tv:.5f}  ({SHOTS} shots)")
    assert abs(1.0 - mass) <= 1e-9
    assert tv <= 0.02
