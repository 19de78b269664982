"""The node-major level folds that ``ncmo`` replaced, frozen as a test
reference.

A fold here is (codes, weights, sizes): node c of the last level holds
sizes[c] entries, in the order of a node-by-node fold, so the entries are
ordered by the transcript before the reads and every law is sorted and
merged by ``FiniteDist.from_codes``. ``oracle_exact``, ``hybrid_b_law`` and
``hybrid_laws`` are rebuilt on it from the same ragged read laws; tests
compare the code-order folds with these byte for byte.
"""

import numpy as np

from ncmlab.dist import FiniteDist, ragged_arange
from ncmlab.qsim import enumerate_branches


def fold_level(fold, level, law, n):
    rows, r, rw = law
    atoms = np.bincount(rows, minlength=len(level.parent))
    if fold is None:
        return r, rw, atoms
    codes, weights, sizes = fold
    runs = sizes[level.parent]
    pick = ragged_arange((np.cumsum(sizes) - sizes)[level.parent], runs)
    width = np.repeat(atoms, runs)
    at = ragged_arange(np.repeat(np.cumsum(atoms) - atoms, runs), width)
    return ((np.repeat(codes[pick], width) << n) | r[at],
            np.repeat(weights[pick], width) * rw[at], runs * atoms)


def fold_law(circuit, levels, fold):
    codes, weights, sizes = fold
    return FiniteDist.from_codes(circuit.depth * circuit.qubits, codes,
                                 np.repeat(levels[-1].probs, sizes) * weights)


def path_fold(circuit, read_law):
    levels, fold = enumerate_branches(circuit).levels, None
    for i in range(1, circuit.depth + 1):
        fold = fold_level(fold, levels[i], read_law(i, levels[i]),
                          circuit.qubits)
    return fold_law(circuit, levels, fold)


def guess_reads(x, circuit, adv, i, level):
    rows, suffixes, weights = adv.level_law(x, circuit, i)
    return rows, level.codes(rows, suffixes), weights


def oracle_exact(circuit):
    return path_fold(circuit, lambda i, level: level.reads())


def hybrid_b_law(k, x, circuit, adv):
    return path_fold(circuit, lambda i, level: (
        level.reads() if i <= k else guess_reads(x, circuit, adv, i, level)))


def hybrid_laws(x, circuit, adv):
    levels, depth, n = (enumerate_branches(circuit).levels, circuit.depth,
                        circuit.qubits)
    guesses = [None] + [guess_reads(x, circuit, adv, i, levels[i])
                        for i in range(1, depth + 1)]
    laws, genuine = [], None
    for k in range(depth + 1):
        fold = genuine
        for i in range(k + 1, depth + 1):
            fold = fold_level(fold, levels[i], guesses[i], n)
        laws.append(fold_law(circuit, levels, fold))
        if k < depth:
            genuine = fold_level(genuine, levels[k + 1],
                                 levels[k + 1].reads(), n)
    return tuple(laws)
