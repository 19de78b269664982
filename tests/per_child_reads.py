"""The per-child read loop that ``ncmo.oracle_read_codes`` replaced, frozen
as a test reference.

Each step draws its splits and uniforms group by group, as the sampler
does, then places each child's reads with one right ``searchsorted`` of
its uniforms in that child's readout cdf row, and checks that every read
extends its branch's outcome. Tests compare the one-search sampler with it
byte for byte.
"""

import numpy as np

from ncmlab.ncmo import _readout_cdfs
from ncmlab.qsim import (
    apply_step_unitary,
    cached_levels,
    initial_state,
    outcome_probs,
    project,
    widen,
)


def oracle_read_codes(circuit, shots, rng):
    n = circuit.qubits
    reads = np.empty((shots, circuit.depth), dtype=np.int64)
    if shots == 0:
        return reads
    levels = cached_levels(circuit)
    blocks, sizes, m, outcomes = initial_state(n)[None], [shots], 0, []
    rows = None if levels is None else np.zeros(1, dtype=np.int64)
    for t, step in enumerate(circuit.steps):
        parent_blocks = blocks, m, outcomes
        m = step.measure
        if rows is None:
            evolved = apply_step_unitary(widen(*parent_blocks), step, n)
            cond = outcome_probs(evolved, m, n) if m else None
        else:
            level = levels[t + 1]
            cond = level.cond[rows] if m else None
        parents, outcomes, counts, uniforms = [], [], [], []
        for g, size in enumerate(sizes):
            if m:
                split = rng.multinomial(size, cond[g] / cond[g].sum())
                idx = np.flatnonzero(split)
                parents.extend([g] * len(idx))
                outcomes.extend(idx.tolist())
                counts.extend(split[idx].tolist())
            else:
                counts.append(size)
            uniforms.append(rng.random(size))
        if rows is not None and m:
            codes = (levels[t].taus[rows[parents]] << m) | outcomes
            rows = level.taus.searchsorted(codes)
            if np.any(level.taus[np.minimum(rows, len(level.taus) - 1)]
                      != codes):
                rows = None
                evolved = apply_step_unitary(widen(*parent_blocks), step, n)
        if rows is not None:
            blocks = level.blocks[rows]
        else:
            blocks = (project(evolved, m, parents, outcomes, cond) if m
                      else evolved)
        cdf, u = _readout_cdfs(blocks), np.concatenate(uniforms)
        ends = np.cumsum(counts).tolist()
        for row, lo, hi in zip(cdf, [0] + ends, ends):
            reads[lo:hi, t] = row.searchsorted(u[lo:hi], side="right")
        sizes = counts
        if m:
            if np.any(reads[:, t] >> (n - m)):
                raise RuntimeError(
                    f"a step-{t + 1} readout disagrees with its branch")
            reads[:, t] |= np.repeat(outcomes, sizes) << (n - m)
    return reads
