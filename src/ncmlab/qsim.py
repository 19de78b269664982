"""Dense statevector simulation of stepwise-measured circuits.

A circuit on n qubits is a sequence of steps; each step applies a unitary,
given as a list of gates, and then measures the first ``measure`` qubits in
the computational basis. Measuring any other subset is expressed by SWAP
gates inside the step's unitary. Bit order convention: qubit 0 is the most
significant bit of a basis index, so basis state i corresponds to the
string format(i, '0nb') and "the first m qubits" are the leading m
characters.

A circuit's ``u1q`` matrices are checked for unitarity once, in one
product over their (k, 2, 2) stack, when it is built.

Simulation is dense only, with a hard cap of 12 qubits. One kernel takes a
state (2^n,) or a stack (k, 2^n) alike: ``apply_step_unitary`` evolves,
``outcome_probs`` weighs the outcomes and ``project`` collapses, keeping of
each post state only its block, the 2^(n - m) amplitudes inside its
outcome; ``widen`` puts blocks back into full-width rows for the next
step. With it the branch tree is built one level per step, once per
Circuit object and freed with it. The tree is nothing but its levels
(``Level``: parent rows, transcript codes, probabilities, blocks), which
the exact folds read, plus each measuring step's ``cond``: the parents'
full outcome-weight rows, pruned outcomes included, from which the batched
sampler draws its splits; ``BranchNode`` is a view of one level row, made
on demand, whose state is widened and whose readout law is built when
read. ``cached_levels`` gives a circuit's levels only if they are built
already. Before a build, NCMO_MAX_BRANCHES caps the paths and
MAX_TREE_BYTES the bytes of states and ``cond`` rows
(``tree_byte_bound``); ``check_bytes`` holds the samplers' arrays to the
same cap. ``walk`` runs the kernel on a one-row stack for single shots.
Every non-collapsing read takes its weights from ``born_weights``, the one
place READOUT_PRUNE_TOL is applied: ``readout_dist`` (a state's law, whose
``sample`` is the single-shot draw), ``Level.atoms`` (the exact folds), the
batched sampler's cdfs and the state laws of ``dcrpuzz``.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import json
import math
import os
import weakref
from dataclasses import dataclass

import numpy as np

from .dist import FiniteDist, check_bits
from .errors import (
    ImpossibleConditionError,
    InstanceTooLargeError,
    ParseError,
    StructureError,
)

MAX_QUBITS = 12
UNITARY_TOL = 1e-7
BRANCH_PRUNE_TOL = 1e-12
READOUT_PRUNE_TOL = 1e-14
DEFAULT_BRANCH_GUARD = 1 << 16
# cap on the bytes of states one branch tree may hold (tree_byte_bound), and
# on the sample arrays of one batched draw
MAX_TREE_BYTES = 1 << 30

_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_S = np.array([[1.0, 0.0], [0.0, 1.0j]])
FIXED_1Q = {"h": _H, "x": _X, "y": _Y, "z": _Z, "s": _S}


def branch_guard() -> int:
    """Current cap on enumerated measurement paths."""
    raw = os.environ.get("NCMO_MAX_BRANCHES")
    if raw is None:
        return DEFAULT_BRANCH_GUARD
    try:
        value = int(raw)
    except ValueError as e:
        raise StructureError(f"NCMO_MAX_BRANCHES is not an integer: {raw!r}") from e
    if value < 1:
        raise StructureError(f"NCMO_MAX_BRANCHES must be positive, got {value}")
    return value


def _check_unitary(u1q: list[tuple[int, np.ndarray]]) -> None:
    """Refuse the first non-unitary matrix of (step, u1q matrix) pairs."""
    mats = np.asarray([mat for _, mat in u1q], dtype=complex).reshape(-1, 2, 2)
    # huge entries overflow to a NaN defect, which fails too
    with np.errstate(all="ignore"):
        err = abs(mats.conj().swapaxes(1, 2) @ mats - np.eye(2)).max((1, 2))
    for (t, _), e in zip(u1q, err.tolist()):
        if not e <= UNITARY_TOL:
            raise StructureError(
                f"step {t} u1q matrix is not unitary (defect {e:.3g})")


@dataclass(frozen=True, eq=False)
class Gate:
    """One primitive operation inside a step.

    Names: h, x, y, z, s (fixed single-qubit), cnot (control, target),
    swap, cphase (two targets plus theta), u1q (arbitrary 2x2 in ``matrix``),
    prep (amplitude vector in ``matrix``, valid only as the first operation
    applied to the all-zeros state).
    """

    name: str
    targets: tuple[int, ...] = ()
    matrix: np.ndarray | None = None
    theta: float | None = None


@dataclass(frozen=True, eq=False)
class Step:
    gates: tuple[Gate, ...]
    measure: int = 0


@dataclass(frozen=True, eq=False)
class Circuit:
    """Qubit count and steps, validated on construction.

    A circuit must not be changed after it is built: its branch tree is
    cached on first use, so a gate matrix mutated in place afterwards is
    not seen by the cached tree.
    """

    qubits: int
    steps: tuple[Step, ...]

    def __post_init__(self):
        if self.qubits < 1:
            raise StructureError("circuit needs at least one qubit")
        if self.qubits > MAX_QUBITS:
            raise InstanceTooLargeError(
                f"{self.qubits} qubits exceeds the dense-simulation cap "
                f"of {MAX_QUBITS}")
        if not self.steps:
            raise StructureError("circuit needs at least one step")
        u1q: list[tuple[int, np.ndarray]] = []  # checked in one stack
        try:
            for t, step in enumerate(self.steps, start=1):
                if not 0 <= step.measure <= self.qubits:
                    raise StructureError(f"step {t} measures {step.measure} "
                                         f"of {self.qubits} qubits")
                for g in step.gates:
                    self._check_gate(g, t, u1q)
        finally:  # after a later fault too, so faults report in circuit order
            _check_unitary(u1q)

    def _check_gate(self, g: Gate, t: int, u1q: list):
        n = self.qubits
        for q in g.targets:
            if not 0 <= q < n:
                raise StructureError(f"step {t}: target {q} out of range")
        if len(set(g.targets)) != len(g.targets):
            raise StructureError(f"step {t}: repeated target in {g.name}")
        if g.name in FIXED_1Q:
            if len(g.targets) != 1:
                raise StructureError(f"step {t}: {g.name} takes one target")
        elif g.name in ("cnot", "swap"):
            if len(g.targets) != 2:
                raise StructureError(f"step {t}: {g.name} takes two targets")
        elif g.name == "cphase":
            if len(g.targets) != 2 or g.theta is None:
                raise StructureError(
                    f"step {t}: cphase takes two targets and theta")
        elif g.name == "u1q":
            if len(g.targets) != 1 or g.matrix is None:
                raise StructureError(
                    f"step {t}: u1q takes one target and a 2x2 matrix")
            if np.asarray(g.matrix).shape != (2, 2):
                raise StructureError(f"step {t}: u1q matrix must be 2x2")
            u1q.append((t, g.matrix))
        elif g.name == "prep":
            amps = np.asarray(g.matrix)
            if amps is None or amps.shape != (1 << n,):
                raise StructureError(
                    f"step {t}: prep vector must have length {1 << n}")
            with np.errstate(all="ignore"):
                norm = float(np.vdot(amps, amps).real)
            if not abs(norm - 1.0) <= UNITARY_TOL:  # a NaN norm fails
                raise StructureError(
                    f"step {t}: prep vector norm {norm:.9f} is not 1")
        else:
            raise StructureError(f"step {t}: unknown gate {g.name!r}")

    @property
    def depth(self) -> int:
        return len(self.steps)

    def measure_widths(self) -> tuple[int, ...]:
        return tuple(s.measure for s in self.steps)


def initial_state(qubits: int) -> np.ndarray:
    amps = np.zeros(1 << qubits, dtype=complex)
    amps[0] = 1.0
    return amps


# -- gate application ---------------------------------------------------------
# Each takes one state (2^n,) or a stack (k, 2^n), viewed as (k, 2, ..., 2)
# with qubit q on axis q + 1, and returns the shape it was given.

def _apply_1q(states: np.ndarray, mat: np.ndarray, q: int,
              n: int) -> np.ndarray:
    t = states.reshape(-1, 1 << q, 2, 1 << (n - q - 1)).transpose(0, 2, 1, 3)
    # one (2, 2) @ (2, 2^(n-1)) product per state, qubit q's axis first
    out = mat @ t.reshape(len(t), 2, 1 << (n - 1))
    return out.reshape(t.shape).transpose(0, 2, 1, 3).reshape(states.shape)


def _apply_cnot(states: np.ndarray, ctrl: int, tgt: int,
                n: int) -> np.ndarray:
    t = states.reshape((-1,) + (2,) * n).copy()
    sel = (slice(None),) * (ctrl + 1) + (1,)
    t[sel] = np.flip(t[sel], axis=tgt + (ctrl > tgt))
    return t.reshape(states.shape)


def _apply_swap(states: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    t = states.reshape((-1,) + (2,) * n)
    return np.swapaxes(t, a + 1, b + 1).reshape(states.shape)


def _apply_cphase(states: np.ndarray, a: int, b: int, theta: float,
                  n: int) -> np.ndarray:
    t = states.reshape((-1,) + (2,) * n).copy()
    sel: list = [slice(None)] * (n + 1)
    sel[a + 1] = sel[b + 1] = 1
    sub, phase = t[tuple(sel)], cmath.exp(1j * theta)
    if n == 2:
        # one amplitude per state: formed from real and imaginary parts, as
        # a scalar product rounds (an array product may fuse multiply-add)
        sub.real, sub.imag = (sub.real * phase.real - sub.imag * phase.imag,
                              sub.real * phase.imag + sub.imag * phase.real)
    else:
        sub *= phase
    return t.reshape(states.shape)


def apply_gate(states: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    if gate.name in FIXED_1Q or gate.name == "u1q":
        mat = FIXED_1Q.get(gate.name, gate.matrix)
        return _apply_1q(states, mat, gate.targets[0], n)
    if gate.name == "cnot":
        return _apply_cnot(states, *gate.targets, n)
    if gate.name == "swap":
        return _apply_swap(states, *gate.targets, n)
    if gate.name == "cphase":
        return _apply_cphase(states, *gate.targets, gate.theta, n)
    if gate.name == "prep":
        probe = np.zeros_like(states)
        probe[..., 0] = 1.0
        if np.any(np.abs(states - probe) > 1e-9):
            raise StructureError(
                "prep gate is only defined on the all-zeros state")
        return np.broadcast_to(np.asarray(gate.matrix, dtype=complex),
                               states.shape).copy()
    raise StructureError(f"unknown gate {gate.name!r}")


def apply_step_unitary(states: np.ndarray, step: Step, n: int) -> np.ndarray:
    for g in step.gates:
        states = apply_gate(states, g, n)
    return states


def step_unitary(step: Step, n: int) -> np.ndarray:
    """Dense matrix of a step's unitary; prep gates are completed via QR."""
    mat = np.eye(1 << n, dtype=complex)
    for g in step.gates:
        if g.name == "prep":
            mat = state_prep_unitary(np.asarray(g.matrix, dtype=complex)) @ mat
        else:
            # the columns, evolved as a stack of states
            mat = apply_gate(mat.T, g, n).T
    return mat


def state_prep_unitary(amps: np.ndarray) -> np.ndarray:
    """Some unitary whose first column is the given unit vector."""
    dim = amps.shape[0]
    basis = np.eye(dim, dtype=complex)
    basis[:, 0] = amps
    q, r = np.linalg.qr(basis)
    # QR fixes column phases only up to the sign of r's diagonal.
    q = q * (r.diagonal() / np.abs(r.diagonal()))
    return q


# -- measurement and readout --------------------------------------------------

def outcome_probs(states: np.ndarray, m: int, n: int) -> np.ndarray:
    """Born weights of the outcomes of measuring the first m qubits, per
    state: shape (2^m,) for one state, (k, 2^m) for a stack."""
    blocks = np.abs(states.reshape(states.shape[:-1] + (1 << m, -1))) ** 2
    return blocks.sum(axis=-1)


def project(states: np.ndarray, m: int, rows, outcomes,
            cond: np.ndarray) -> np.ndarray:
    """Post-measurement states of the stack's (row, outcome) pairs, given
    the stack's outcome weights ``cond`` (positive at every pair): one
    normalised block per pair, the 2^(n - m) amplitudes inside its
    outcome, which ``widen`` puts back in a full-width row."""
    p = cond[rows, outcomes]
    return (states.reshape(len(states), 1 << m, -1)[rows, outcomes]
            / np.sqrt(p)[:, None])


def widen(blocks: np.ndarray, m: int, outcomes) -> np.ndarray:
    """Full-width rows of a stack of blocks: block i where the first m
    qubits read ``outcomes[i]``, zeros elsewhere."""
    if not m:
        return blocks
    full = np.zeros((len(blocks), 1 << m, blocks.shape[1]), dtype=complex)
    full[np.arange(len(blocks)), outcomes] = blocks
    return full.reshape(len(blocks), -1)


def born_weights(amps: np.ndarray) -> np.ndarray:
    """The Born weights of a non-collapsing read, of a state, a stack or
    blocks alike: ``|amps|^2`` with every weight not above
    READOUT_PRUNE_TOL (a NaN too) set to zero. The one read rule: every
    readout law and draw takes its atoms from here."""
    born = np.abs(amps) ** 2
    np.putmask(born, ~(born > READOUT_PRUNE_TOL), 0.0)
    return born


def readout_dist(amps: np.ndarray, n: int) -> FiniteDist:
    """Full-width Born readout law of a state, tiny weights pruned."""
    probs = born_weights(amps)
    atoms = np.flatnonzero(probs)
    return FiniteDist.from_codes(n, atoms, probs[atoms])


# -- branch enumeration -------------------------------------------------------

class BranchNode:
    """One collapsing-outcome path tau = outcomes: a view of row ``row`` of
    a tree level, made on demand. Its post state is widened from the
    level's block when read, and its readout law is built on first read."""

    def __init__(self, level: Level, row: int):
        self.level, self.row = level, row

    @property
    def depth(self) -> int:
        return len(self.level.widths)

    @property
    def outcomes(self) -> tuple[str, ...]:
        return self.level.transcript(self.row)

    @property
    def prob(self) -> float:
        return self.level.probs.item(self.row)

    @property
    def state(self) -> np.ndarray:
        level, rows = self.level, slice(self.row, self.row + 1)
        return widen(level.blocks[rows], level.measure,
                     level.taus[rows] & ((1 << level.measure) - 1))[0]

    @property
    def children(self) -> tuple[BranchNode, ...]:
        below = self.level.below
        if below is None:
            return ()
        lo, hi = np.searchsorted(below.parent, [self.row, self.row + 1])
        return tuple(BranchNode(below, r) for r in range(lo, hi))

    @property
    def suffix_law(self) -> FiniteDist:
        """Law of the read's unmeasured suffix w_d: the block's atoms."""
        level = self.level
        _, cols, born = level.atoms(slice(self.row, self.row + 1))
        return FiniteDist.from_codes(
            level.blocks.shape[1].bit_length() - 1, cols, born)

    @functools.cached_property
    def readout(self) -> FiniteDist:
        """Full-width readout law of the post state, built on first read."""
        state = self.state
        return readout_dist(state, state.size.bit_length() - 1)


@dataclass(frozen=True, eq=False)
class Level:
    """The step-d nodes of a branch tree as arrays, in tree order: each
    node's parent row in level d - 1, transcript code tau_d (u_1 in the
    high bits, ascending down the level), probability, and post state as
    its block: the 2^(n - m_d) amplitudes inside its outcome u_d (row i of
    ``blocks``). ``cond`` (k_{d-1}, 2^m_d) holds every parent's outcome
    weights at step d, those at or below BRANCH_PRUNE_TOL included; it is
    None at the root and where the step measures nothing. ``widths`` are
    m_1..m_d; ``below`` is level d + 1."""

    parent: np.ndarray
    taus: np.ndarray
    probs: np.ndarray
    blocks: np.ndarray
    cond: np.ndarray | None
    widths: tuple[int, ...]
    below: Level | None

    @property
    def measure(self) -> int:
        return self.widths[-1] if self.widths else 0

    @property
    def nodes(self) -> tuple[BranchNode, ...]:
        k = len(self.taus)
        return tuple(map(BranchNode, itertools.repeat(self, k), range(k)))

    def transcript(self, row: int) -> tuple[str, ...]:
        """Node ``row``'s outcomes u_1..u_d as bit strings."""
        tau, out = self.taus.item(row), []
        for m in reversed(self.widths):
            out.append(format(tau & ((1 << m) - 1), f"0{m}b") if m else "")
            tau >>= m
        return tuple(reversed(out))

    def atoms(self, rows=slice(None)) -> tuple[np.ndarray, ...]:
        """The Born atoms (``born_weights``) of the blocks ``rows`` (all by
        default): (rows, columns, weights), row-major. A block's column is
        its read's suffix, the last n - m_d bits."""
        born = born_weights(self.blocks[rows])
        at, cols = np.nonzero(born)
        return at, cols, born[at, cols]

    def codes(self, rows: np.ndarray, suffixes: np.ndarray) -> np.ndarray:
        """Full-width reads of suffixes at nodes ``rows``: u_d || suffix."""
        shift = self.blocks.shape[1].bit_length() - 1
        u = self.taus[rows] & ((1 << self.measure) - 1)
        return (u << shift) | suffixes

    def reads(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every node's readout atoms in one pass, as ``readout_dist``
        makes them from the widened state: (rows, codes, weights),
        row-major, so each node's atoms are contiguous and in ascending
        code order."""
        rows, cols, born = self.atoms()
        return rows, self.codes(rows, cols), born


@dataclass(frozen=True, eq=False)
class BranchTree:
    circuit: Circuit
    root: BranchNode
    levels: tuple[Level, ...]  # levels[t] holds the step-t nodes

    def nodes_at(self, t: int) -> list[BranchNode]:
        return list(self.levels[t].nodes)

    def leaves(self) -> list[BranchNode]:
        return self.nodes_at(self.circuit.depth)

    def node(self, tau: tuple[str, ...]) -> BranchNode:
        return self.path(tau)[-1] if tau else self.root

    def path(self, tau: tuple[str, ...]) -> list[BranchNode]:
        """Nodes at depths 1..len(tau) along the given transcript, each
        found by its code in its level's ascending ``taus``."""
        nodes, code = [], 0
        for t, u in enumerate(tau, start=1):
            try:  # an IndexError: a step past the last level
                level = self.levels[t]
                code = (code << level.measure) | int(
                    check_bits(u, level.measure) or "0", 2)
                row = int(level.taus.searchsorted(code))
                found = row < len(level.taus) and level.taus[row] == code
            except (IndexError, StructureError):
                found = False
            if not found:
                raise ImpossibleConditionError(
                    f"transcript {tau} leaves the branch tree at step {t} "
                    f"(outcome {u!r})")
            nodes.append(BranchNode(level, row))
        return nodes


def branch_count_bound(circuit: Circuit) -> int:
    total = 1
    for s in circuit.steps:
        total *= 1 << s.measure
    return total


def tree_byte_bound(circuit: Circuit) -> int:
    """Bytes a tree build may hold, from the step widths alone: 16 per
    amplitude of the largest widened level (every step-(d - 1) path at
    full width) and of every level's blocks (each step-d path at
    2^(n - m_d)), plus 8 per ``cond`` entry (each (step-(d - 1) path,
    outcome) pair of a measuring step)."""
    n = circuit.qubits
    paths, widest, stored, weights = 1, 0, 1 << n, 0
    for m in circuit.measure_widths():
        widest = max(widest, paths << n)
        paths <<= m
        stored += paths << (n - m)
        weights += paths if m else 0
    return 16 * (widest + stored) + 8 * weights


def check_bytes(size: int, what: str) -> None:
    """Refuse ``what``, before it allocates, if it would hold more than
    MAX_TREE_BYTES."""
    if size > MAX_TREE_BYTES:
        raise InstanceTooLargeError(
            f"{what} would hold up to {size} bytes, over the cap of "
            f"{MAX_TREE_BYTES}")


# circuit -> its tree's levels, root view, path-count bound and byte bound;
# levels hold no reference back to their circuit, so an entry goes when its
# circuit does
_TREES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def enumerate_branches(circuit: Circuit) -> BranchTree:
    """Every collapsing outcome path with its post state.

    Branches whose conditional probability falls below BRANCH_PRUNE_TOL are
    dropped; the surviving children of a node carry its full mass up to that
    pruning. The path-count guard (NCMO_MAX_BRANCHES) and the byte cap
    (MAX_TREE_BYTES, against ``tree_byte_bound``) are checked on every
    call, before any state is allocated. The tree is built on the first
    call for a circuit; later calls return the same levels and root, and
    check the current guards against the bounds kept with them.
    """
    cached = _TREES.get(circuit)
    paths, size = ((branch_count_bound(circuit), tree_byte_bound(circuit))
                   if cached is None else cached[2:])
    guard = branch_guard()
    if paths > guard:
        raise InstanceTooLargeError(
            f"branch enumeration would visit up to {paths} paths, over the "
            f"guard of {guard} (override with NCMO_MAX_BRANCHES)")
    check_bytes(size, "branch enumeration")
    if cached is None:
        levels = _build_tree(circuit)
        cached = _TREES[circuit] = (levels, BranchNode(levels[0], 0), paths,
                                    size)
    return BranchTree(circuit=circuit, root=cached[1], levels=cached[0])


def cached_levels(circuit: Circuit) -> tuple[Level, ...] | None:
    """The circuit's tree levels if a build has run, else None; never
    builds and checks no guard."""
    cached = _TREES.get(circuit)
    return None if cached is None else cached[0]


def _build_tree(circuit: Circuit) -> tuple[Level, ...]:
    """One level per step: widen the parents' blocks to full rows, evolve
    them, and keep the blocks of the (parent, outcome) pairs above
    BRANCH_PRUNE_TOL in row-major order, so children sit by parent in
    ascending outcome; the parents' full outcome weights stay as ``cond``."""
    n, m, outs = circuit.qubits, 0, None
    # per level: its parent rows, transcript codes, probabilities, blocks,
    # parents' outcome weights
    found = [(np.full(1, -1), np.zeros(1, dtype=np.int64), np.ones(1),
              initial_state(n)[None], None)]
    for step in circuit.steps:
        _, taus, probs, blocks, _ = found[-1]
        states = apply_step_unitary(widen(blocks, m, outs), step, n)
        m = step.measure
        if m:
            cond = outcome_probs(states, m, n)
            rows, outs = np.nonzero(cond > BRANCH_PRUNE_TOL)
            found.append((rows, (taus[rows] << m) | outs,
                          probs[rows] * cond[rows, outs],
                          project(states, m, rows, outs, cond), cond))
        else:
            found.append((np.arange(len(states)), taus, probs, states, None))
    widths, levels, below = circuit.measure_widths(), [], None
    for d in reversed(range(len(found))):
        below = Level(*found[d], widths[:d], below)
        levels.append(below)
    return tuple(reversed(levels))


def walk(circuit: Circuit, rng: np.random.Generator, t: int | None = None):
    """Simulate steps 1..t once (every step by default), sampling each
    collapsing measurement; yields (u_i, post-measurement state) per step."""
    n = circuit.qubits
    states = initial_state(n)[None]
    for step in circuit.steps[:t]:
        m, u = step.measure, ""
        states = apply_step_unitary(states, step, n)
        if m:
            cond = outcome_probs(states, m, n)
            idx = int(rng.choice(1 << m, p=cond[0] / cond[0].sum()))
            states = widen(project(states, m, [0], [idx], cond), m, [idx])
            u = format(idx, f"0{m}b")
        yield u, states[0]


def run_prefix(circuit: Circuit, t: int,
               rng: np.random.Generator) -> tuple[tuple[str, ...], np.ndarray]:
    """Simulate steps 1..t once, sampling each collapsing measurement."""
    if not 0 <= t <= circuit.depth:
        raise StructureError(f"prefix length {t} outside 0..{circuit.depth}")
    outcomes, state = (), initial_state(circuit.qubits)
    for u, state in walk(circuit, rng, t):
        outcomes += (u,)
    return outcomes, state


# -- random circuits ----------------------------------------------------------

def random_unitary_2x2(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (r.diagonal() / np.abs(r.diagonal()))


def random_circuit(rng: np.random.Generator, *, max_qubits: int = 4,
                   max_steps: int = 3, max_spreaders: int = 2,
                   gates_per_step: tuple[int, int] = (1, 4)) -> Circuit:
    """Seeded random circuit for round-trip and identity checks.

    Gates that enlarge computational-basis support (h, u1q) are rationed by
    ``max_spreaders`` so exact output laws stay small; permutation and phase
    gates (x, y, z, s, cnot, swap, cphase) are unrestricted.
    """
    n = int(rng.integers(1, max_qubits + 1))
    depth = int(rng.integers(1, max_steps + 1))
    spreaders_left = max_spreaders
    steps = []
    for _ in range(depth):
        k = int(rng.integers(gates_per_step[0], gates_per_step[1] + 1))
        gates = []
        for _ in range(k):
            pool = ["x", "y", "z", "s"]
            if n >= 2:
                pool += ["cnot", "swap", "cphase"]
            if spreaders_left > 0:
                pool += ["h", "u1q"]
            name = pool[int(rng.integers(len(pool)))]
            if name in ("cnot", "swap", "cphase"):
                a, b = rng.choice(n, size=2, replace=False)
                theta = float(rng.uniform(0, 2 * math.pi)) if name == "cphase" else None
                gates.append(Gate(name, (int(a), int(b)), theta=theta))
            elif name == "u1q":
                spreaders_left -= 1
                gates.append(Gate("u1q", (int(rng.integers(n)),),
                                  matrix=random_unitary_2x2(rng)))
            else:
                if name == "h":
                    spreaders_left -= 1
                gates.append(Gate(name, (int(rng.integers(n)),)))
        m = int(rng.integers(0, n + 1))
        steps.append(Step(gates=tuple(gates), measure=m))
    return Circuit(qubits=n, steps=tuple(steps))


def bell_circuit(measure_first_step: int = 0, extra_steps: int = 1) -> Circuit:
    """H then CNOT on two qubits, measuring m qubits at step 1.

    extra_steps appends identity steps with no measurement, which is the
    shape used by the repeated-readout checks.
    """
    steps = [Step(gates=(Gate("h", (0,)), Gate("cnot", (0, 1))),
                  measure=measure_first_step)]
    for _ in range(extra_steps):
        steps.append(Step(gates=(), measure=0))
    return Circuit(qubits=2, steps=tuple(steps))


# -- JSON circuit format ------------------------------------------------------

def _complex_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _json_number(value, what: str) -> float:
    try:
        ok = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int past float
        ok = False
    if not ok:
        raise ParseError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{what} must be an array, got {value!r}")
    return value


def _pair_to_complex(pair, what: str) -> complex:
    if not isinstance(pair, list) or len(pair) != 2:
        raise ParseError(f"{what} entries must be [re, im] pairs, got {pair!r}")
    return complex(_json_number(pair[0], what), _json_number(pair[1], what))


def _matrix_to_json(mat: np.ndarray) -> list:
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim == 1:
        return [_complex_to_pair(z) for z in arr]
    return [[_complex_to_pair(z) for z in row] for row in arr]


def _matrix_from_json(obj, what: str, *, vector: bool) -> np.ndarray:
    if not _json_list(obj, what):
        raise ParseError(f"{what} must be a non-empty array")
    if vector:
        return np.array([_pair_to_complex(p, what) for p in obj],
                        dtype=complex)
    if any(not isinstance(row, list) or len(row) != len(obj[0])
           for row in obj):
        raise ParseError(f"{what} must be an array of equal-length rows")
    return np.array([[_pair_to_complex(p, what) for p in row] for row in obj],
                    dtype=complex)


def circuit_to_json(circuit: Circuit) -> dict:
    steps = []
    for s in circuit.steps:
        gates = []
        for g in s.gates:
            entry: dict = {"name": g.name, "targets": list(g.targets)}
            if g.matrix is not None:
                entry["matrix"] = _matrix_to_json(g.matrix)
            if g.theta is not None:
                entry["theta"] = g.theta
            gates.append(entry)
        steps.append({"gates": gates, "measure": s.measure})
    return {"qubits": circuit.qubits, "steps": steps}


def circuit_from_json(obj: dict) -> Circuit:
    """Parse the circuit JSON format; any schema violation is a ParseError.

    Integer fields must be JSON integers (not booleans or floats), theta a
    finite number, and matrices arrays of [re, im] pairs.
    """
    if not isinstance(obj, dict):
        raise ParseError("circuit JSON must be an object")
    if "qubits" not in obj:
        raise ParseError("circuit JSON needs a 'qubits' field")
    qubits = _json_int(obj["qubits"], "'qubits'")
    raw_steps = obj.get("steps")
    if not isinstance(raw_steps, list) or not raw_steps:
        raise ParseError("circuit JSON needs a non-empty 'steps' array")
    steps = []
    for i, rs in enumerate(raw_steps, start=1):
        if not isinstance(rs, dict):
            raise ParseError(f"step {i} is not an object")
        gates = []
        for k, rg in enumerate(
                _json_list(rs.get("gates", []), f"step {i} 'gates'"), start=1):
            where = f"step {i} gate {k}"
            if not isinstance(rg, dict) or not isinstance(rg.get("name"), str):
                raise ParseError(f"{where} has no name")
            name = rg["name"]
            targets = tuple(
                _json_int(q, f"{where} 'targets'")
                for q in _json_list(rg.get("targets", []), f"{where} 'targets'"))
            matrix = None
            if "matrix" in rg:
                matrix = _matrix_from_json(rg["matrix"], f"{where} 'matrix'",
                                           vector=(name == "prep"))
            theta = None
            if "theta" in rg:
                theta = _json_number(rg["theta"], f"{where} 'theta'")
            gates.append(Gate(name=name, targets=targets, matrix=matrix,
                              theta=theta))
        measure = _json_int(rs.get("measure", 0), f"step {i} 'measure'")
        steps.append(Step(gates=tuple(gates), measure=measure))
    try:
        return Circuit(qubits=qubits, steps=tuple(steps))
    except StructureError as e:
        raise ParseError(f"circuit JSON rejected: {e}") from e


def load_json(path: str):
    """Read one JSON file; a missing or malformed file is a ParseError,
    as is text that is not UTF-8 or nests past the decoder's depth."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from e
