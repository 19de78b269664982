"""Dense statevector simulation of stepwise-measured circuits.

A circuit on n qubits is a sequence of steps; each step applies a unitary
(given as a gate list or a dense matrix) and then measures the first
``measure`` qubits in the computational basis. Measuring any other subset is
expressed by SWAP gates inside the step's unitary. Bit order convention:
qubit 0 is the most significant bit of a basis index, so basis state i
corresponds to the string format(i, '0nb') and "the first m qubits" are the
leading m characters.

Simulation is dense only, with a hard cap of 12 qubits. One kernel takes a
state (2^n,) or a stack (k, 2^n) alike: ``apply_step_unitary`` evolves,
``outcome_probs`` weighs the outcomes and ``project`` collapses. With it the
branch tree is built one level per step, once per Circuit object (freed
with it, its path count guarded by NCMO_MAX_BRANCHES). The tree keeps each
level's arrays (``Level``: parent rows, transcript codes, probabilities,
stacked states), which the exact folds read; a node's readout law is built
on first read. ``walk`` runs the kernel on a one-row stack for
single shots, and ``draw_readout`` makes one full-width read of a state.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import os
import weakref
from dataclasses import dataclass

import numpy as np

from .dist import FiniteDist
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


def _check_unitary(mat: np.ndarray, what: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise StructureError(f"{what} is not square: shape {mat.shape}")
    err = np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])))
    if err > UNITARY_TOL:
        raise StructureError(f"{what} is not unitary (defect {err:.3g})")
    return mat


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
        for t, step in enumerate(self.steps, start=1):
            if not 0 <= step.measure <= self.qubits:
                raise StructureError(
                    f"step {t} measures {step.measure} of {self.qubits} qubits")
            for g in step.gates:
                self._check_gate(g, t)

    def _check_gate(self, g: Gate, t: int):
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
            _check_unitary(g.matrix, f"step {t} u1q matrix")
        elif g.name == "prep":
            amps = np.asarray(g.matrix)
            if amps is None or amps.shape != (1 << n,):
                raise StructureError(
                    f"step {t}: prep vector must have length {1 << n}")
            norm = float(np.vdot(amps, amps).real)
            if abs(norm - 1.0) > UNITARY_TOL:
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
    t = np.moveaxis(states.reshape((-1,) + (2,) * n), q + 1, 1)
    # one (2, 2) @ (2, 2^(n-1)) product per state
    out = np.asarray(mat, dtype=complex) @ t.reshape(len(t), 2, 1 << (n - 1))
    return np.moveaxis(out.reshape(t.shape), 1, q + 1).reshape(states.shape)


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
    normalised state per pair."""
    p = cond[rows, outcomes]
    blocks = states.reshape(len(states), 1 << m, -1)
    post = np.zeros((len(rows),) + blocks.shape[1:], dtype=complex)
    post[np.arange(len(rows)), outcomes] = (blocks[rows, outcomes]
                                            / np.sqrt(p)[:, None])
    return post.reshape(len(rows), -1)


def readout_dist(amps: np.ndarray, n: int) -> FiniteDist:
    """Full-width Born readout law of a state, tiny weights pruned."""
    probs = np.abs(amps) ** 2
    atoms = np.flatnonzero(probs > READOUT_PRUNE_TOL)
    return FiniteDist.from_codes(n, atoms, probs[atoms])


def draw_readout(amps: np.ndarray, n: int, rng: np.random.Generator) -> str:
    """One full-width Born readout of a state: the same draw as
    ``readout_dist(amps, n).sample(rng)``, without building the law."""
    born = np.abs(amps) ** 2
    support = np.flatnonzero(born > READOUT_PRUNE_TOL)
    cum = np.cumsum(born[support])
    idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    return format(int(support[min(idx, len(support) - 1)]), f"0{n}b")


# -- branch enumeration -------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BranchNode:
    """One collapsing-outcome path: tau = outcomes, with its post state."""

    outcomes: tuple[str, ...]
    prob: float
    state: np.ndarray
    children: tuple["BranchNode", ...] = ()

    @property
    def depth(self) -> int:
        return len(self.outcomes)

    @functools.cached_property
    def readout(self) -> FiniteDist:
        """Full-width readout law of the post state, built on first read."""
        return readout_dist(self.state, self.state.size.bit_length() - 1)


@dataclass(frozen=True, eq=False)
class Level:
    """The step-t nodes of a branch tree as arrays, in tree order: each
    node's parent row in level t - 1, transcript code tau_t (u_1 in the
    high bits), probability (equal to ``node.prob``) and post state (row
    i of ``states``, which ``nodes[i].state`` views)."""

    parent: np.ndarray
    taus: np.ndarray
    probs: np.ndarray
    states: np.ndarray
    nodes: tuple[BranchNode, ...]

    def reads(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every node's readout atoms in one pass, as ``readout_dist``
        makes them: (rows, codes, weights), row-major, so each node's
        atoms are contiguous and in ascending code order."""
        born = np.abs(self.states) ** 2
        rows, codes = np.nonzero(born > READOUT_PRUNE_TOL)
        return rows, codes, born[rows, codes]


@dataclass(frozen=True, eq=False)
class BranchTree:
    circuit: Circuit
    root: BranchNode
    levels: tuple[Level, ...]  # levels[t] holds the step-t nodes

    def nodes_at(self, t: int) -> list[BranchNode]:
        return self.level(t)[0]

    def level(self, t: int) -> tuple[list[BranchNode], np.ndarray]:
        """The step-t nodes in tree order, with their transcripts as codes
        (u_1 in the high bits)."""
        level = self.levels[t]
        return list(level.nodes), level.taus

    def leaves(self) -> list[BranchNode]:
        return self.nodes_at(self.circuit.depth)

    def node(self, tau: tuple[str, ...]) -> BranchNode:
        return self.path(tau)[-1] if tau else self.root

    def path(self, tau: tuple[str, ...]) -> list[BranchNode]:
        """Nodes at depths 1..len(tau) along the given transcript."""
        nodes = []
        cur = self.root
        for t, u in enumerate(tau, start=1):
            for child in cur.children:
                if child.outcomes[-1] == u:
                    cur = child
                    break
            else:
                raise ImpossibleConditionError(
                    f"transcript {tau} leaves the branch tree at step {t} "
                    f"(outcome {u!r})")
            nodes.append(cur)
        return nodes


def branch_count_bound(circuit: Circuit) -> int:
    total = 1
    for s in circuit.steps:
        total *= 1 << s.measure
    return total


# circuit -> its tree's levels; nodes hold no reference back to their
# circuit, so an entry goes when its circuit does
_LEVELS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def enumerate_branches(circuit: Circuit) -> BranchTree:
    """Every collapsing outcome path with its post state.

    Branches whose conditional probability falls below BRANCH_PRUNE_TOL are
    dropped; the surviving children of a node carry its full mass up to that
    pruning. The path-count guard (NCMO_MAX_BRANCHES) is checked on every
    call, before any state is allocated. The tree is built on the first
    call for a circuit; later calls return the same nodes and levels.
    """
    guard = branch_guard()
    bound = branch_count_bound(circuit)
    if bound > guard:
        raise InstanceTooLargeError(
            f"branch enumeration would visit up to {bound} paths, over the "
            f"guard of {guard} (override with NCMO_MAX_BRANCHES)")
    levels = _LEVELS.get(circuit)
    if levels is None:
        levels = _LEVELS[circuit] = _build_tree(circuit)
    return BranchTree(circuit=circuit, root=levels[0].nodes[0], levels=levels)


def _build_tree(circuit: Circuit) -> tuple[Level, ...]:
    """One level per step: evolve the level's stack, project its (parent,
    outcome) pairs above BRANCH_PRUNE_TOL in row-major order, so children
    sit by parent in ascending outcome; then make nodes from the leaves up."""
    n = circuit.qubits
    root_state = initial_state(n)
    # per level: its parent rows, transcript codes, probabilities and states
    top = arrays = (np.full(1, -1), np.zeros(1, dtype=np.int64), np.ones(1),
                    root_state[None])
    found, paths = [], [()]
    for step in circuit.steps:
        _, taus, probs, states = arrays
        states = apply_step_unitary(states, step, n)
        m, k = step.measure, len(states)
        if m:
            cond = outcome_probs(states, m, n)
            rows, outs = np.nonzero(cond > BRANCH_PRUNE_TOL)
            states = project(states, m, rows, outs, cond)
            probs = probs[rows] * cond[rows, outs]
            taus = (taus[rows] << m) | outs
            paths = [paths[r] + (format(o, f"0{m}b"),)
                     for r, o in zip(rows.tolist(), outs.tolist())]
        else:
            rows, paths = np.arange(k), [path + ("",) for path in paths]
        # the children of parent i are nodes ends[i]:ends[i + 1] of the level
        ends = np.searchsorted(rows, np.arange(k + 1)).tolist()
        arrays = (rows, taus, probs, states)
        found.append((ends, paths, arrays))
    levels, kids = [], [()] * len(paths)
    for ends, paths, arrays in reversed(found):
        nodes = tuple(map(BranchNode, paths, arrays[2].tolist(), arrays[3],
                          kids))
        levels.append(Level(*arrays, nodes))
        kids = [nodes[lo:hi] for lo, hi in zip(ends, ends[1:])]
    root = BranchNode(outcomes=(), prob=1.0, state=root_state,
                      children=kids[0])
    levels.append(Level(*top, (root,)))
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
            probs = np.clip(cond[0], 0.0, None)
            idx = int(rng.choice(1 << m, p=probs / probs.sum()))
            states = project(states, m, [0], [idx], cond)
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
    """Read one JSON file; a missing or malformed file is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from e
