"""Shared circuit factories and reference oracles for the test suite.

``embed`` and ``full_unitary`` build 2ⁿ×2ⁿ matrices gate by gate; the
tests compare the statevector simulator and the optimizer's global
distance against them. ``zero_state``, ``expect_z`` and ``apply_op`` are
the one-state forms of the simulator's batched kernels. ``decompose_to_basis`` and ``decompose`` rewrite
gates over the hardware basis {cx, id, rz, sx, x}; the tests check each
rewrite against the gate unitary and ``gates.BASIS_COST`` against its
length. ``reference_walk`` is the greedy search scored in full at every
step, the reference for ``greedy.transform_batch``'s incremental walk.
"""

import math

import numpy as np

from pqc_forge import sim
from pqc_forge.circuit import Circuit, Op
from pqc_forge.gates import ALPHABET, N_ANGLES, ROTATION_KINDS, GateKind, unitary
from pqc_forge.greedy import _ALPHABET_ROWS, RANK_ATOL, UNSCORED, GreedyResult, _key_tuple
from pqc_forge.matrix import check_unitary, distances

MAX_EMBED_QUBITS = 12
MAX_UNITARY_QUBITS = 10

FIXED_1Q = tuple(k for k in ALPHABET if k is not GateKind.ID)
ROTATIONS = (GateKind.RX, GateKind.RY, GateKind.RZ)


def random_circuit(n_qubits, n_ops, rng, p_cnot=0.3, p_rotation=0.4):
    """Mixed random circuit over the catalog, CNOTs, and trainable rotations."""
    ops = []
    for _ in range(n_ops):
        r = rng.random()
        if r < p_cnot and n_qubits >= 2:
            q1, q2 = rng.choice(n_qubits, size=2, replace=False)
            ops.append(Op(GateKind.CNOT, (int(q1), int(q2))))
        elif r < p_cnot + p_rotation:
            kind = ROTATIONS[rng.integers(len(ROTATIONS))]
            angle = float(rng.uniform(-np.pi, np.pi))
            ops.append(Op(kind, (int(rng.integers(n_qubits)),), (angle,), True))
        else:
            kind = FIXED_1Q[rng.integers(len(FIXED_1Q))]
            ops.append(Op(kind, (int(rng.integers(n_qubits)),)))
    return Circuit(n_qubits, tuple(ops))


def random_kind_circuit(n_qubits, n_ops, rng, p_frozen=0.3):
    """Random circuit over every GateKind: ids, y, r gates, frozen rotations, cnots."""
    kinds = [k for k in GateKind if n_qubits >= 2 or k is not GateKind.CNOT]
    ops = []
    for _ in range(n_ops):
        kind = kinds[rng.integers(len(kinds))]
        if kind is GateKind.CNOT:
            q1, q2 = rng.choice(n_qubits, size=2, replace=False)
            ops.append(Op(kind, (int(q1), int(q2))))
            continue
        angles = tuple(rng.uniform(-np.pi, np.pi, N_ANGLES[kind]).tolist())
        trainable = kind in ROTATION_KINDS and rng.random() >= p_frozen
        ops.append(Op(kind, (int(rng.integers(n_qubits)),), angles, trainable))
    return Circuit(n_qubits, tuple(ops))


def random_1q_target(rng, max_gates=6):
    """2×2 unitary: product of a few catalog gates and random rotations."""
    u = np.eye(2, dtype=complex)
    for _ in range(int(rng.integers(1, max_gates + 1))):
        if rng.random() < 0.5:
            u = unitary(ALPHABET[rng.integers(len(ALPHABET))]) @ u
        else:
            kind = ROTATIONS[rng.integers(len(ROTATIONS))]
            u = unitary(kind, (float(rng.uniform(-np.pi, np.pi)),)) @ u
    return u


def sequence_product(seq):
    """Product unitary of (kind, angles) or bare-kind items, circuit order."""
    u = np.eye(2, dtype=complex)
    for item in seq:
        kind, angles = item if isinstance(item, tuple) else (item, ())
        u = unitary(kind, tuple(angles)) @ u
    return u


def _bit(index: int, q: int, n: int) -> int:
    return (index >> (n - 1 - q)) & 1


def embed(
    kind: GateKind,
    qubits: tuple[int, ...] | list[int],
    n: int,
    angles: tuple[float, ...] = (),
) -> np.ndarray:
    """2ⁿ×2ⁿ unitary acting as the gate on ``qubits``, identity elsewhere."""
    if n < 1 or n > MAX_EMBED_QUBITS:
        raise ValueError(f"qubit count {n} outside 1..{MAX_EMBED_QUBITS}")
    qubits = tuple(qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubit indices {qubits}")
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit index {q} out of range for {n} qubits")
    if kind is GateKind.CNOT:
        if len(qubits) != 2:
            raise ValueError("cnot takes exactly 2 qubits")
        control, target = qubits
        dim = 1 << n
        u = np.zeros((dim, dim), dtype=complex)
        flip = 1 << (n - 1 - target)
        for i in range(dim):
            j = i ^ flip if _bit(i, control, n) else i
            u[j, i] = 1.0
        return u
    if len(qubits) != 1:
        raise ValueError(f"{kind.value} takes exactly 1 qubit")
    (q,) = qubits
    left = np.eye(1 << q, dtype=complex)
    right = np.eye(1 << (n - 1 - q), dtype=complex)
    return np.kron(left, np.kron(unitary(kind, angles), right))


def full_unitary(c: Circuit) -> np.ndarray:
    """Ordered product of embedded gate unitaries (test-scale oracle)."""
    if c.n_qubits > MAX_UNITARY_QUBITS:
        raise ValueError(
            f"full_unitary supports at most {MAX_UNITARY_QUBITS} qubits, got {c.n_qubits}"
        )
    u = np.eye(1 << c.n_qubits, dtype=complex)
    for op in c.ops:
        u = embed(op.kind, op.qubits, c.n_qubits, op.angles) @ u
    return u


def zero_state(n_qubits: int) -> np.ndarray:
    """|0...0⟩ on ``n_qubits`` wires."""
    state = np.zeros(1 << n_qubits, dtype=complex)
    state[0] = 1.0
    return state


def expect_z(state: np.ndarray, qubit: int) -> float:
    """⟨Z_q⟩ of one state vector, in [-1, 1]."""
    return float(sim.expect_z_batch(state[None, :], qubit)[0])


def apply_op(state: np.ndarray, op: Op, n_qubits: int) -> np.ndarray:
    """One gate applied to one state vector; returns a new vector."""
    return sim.run_batch(Circuit(n_qubits, (op,)), state[None, :])[0]


def encoding_ops(x: np.ndarray, n_qubits: int, feature_count: int) -> list[Op]:
    """Frozen RX encoding gates for one sample (qubit q ← x[q mod F])."""
    return [
        Op(GateKind.RX, (q,), (float(x[q % feature_count]),), trainable=False)
        for q in range(n_qubits)
    ]


def euler_zsxz(u: np.ndarray) -> tuple[float, float, float]:
    """Angles (α, β, γ) with RZ(α)·SX·RZ(β)·SX·RZ(γ) equal to u up to phase.

    Goes through the ZYZ form u ~ RZ(φ)·RY(θ)·RZ(λ) and the identity
    RY(θ) ~ RZ(π)·SX·RZ(θ+π)·SX, giving α = φ+π, β = θ+π, γ = λ.
    """
    check_unitary(u, atol=1e-9)
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    m = u / np.sqrt(det)  # SU(2) up to sign; sign is a global phase
    theta = 2.0 * math.atan2(abs(m[1, 0]), abs(m[0, 0]))
    if abs(m[0, 0]) < 1e-12:  # pure off-diagonal: only φ-λ is determined
        plus = 0.0
        minus = 2.0 * np.angle(m[1, 0])
    elif abs(m[1, 0]) < 1e-12:  # diagonal: only φ+λ is determined
        plus = 2.0 * np.angle(m[1, 1])
        minus = 0.0
    else:
        plus = 2.0 * np.angle(m[1, 1])
        minus = 2.0 * np.angle(m[1, 0])
    phi = (plus + minus) / 2.0
    lam = (plus - minus) / 2.0
    return phi + math.pi, theta + math.pi, lam


BasisGate = tuple[GateKind, tuple[float, ...]]

# Exact rewritings over {cx, id, rz, sx, x}, valid up to global phase.
# Sequences are in circuit order (first gate acts first). Verified against
# the generic Euler form by the unitary-equivalence tests.
_PI = math.pi
_TABLE: dict[GateKind, tuple[BasisGate, ...]] = {
    GateKind.ID: (),
    GateKind.X: ((GateKind.X, ()),),
    GateKind.SX: ((GateKind.SX, ()),),
    GateKind.Z: ((GateKind.RZ, (_PI,)),),
    GateKind.S: ((GateKind.RZ, (_PI / 2,)),),
    GateKind.SDG: ((GateKind.RZ, (-_PI / 2,)),),
    GateKind.T: ((GateKind.RZ, (_PI / 4,)),),
    GateKind.TDG: ((GateKind.RZ, (-_PI / 4,)),),
    GateKind.H: (
        (GateKind.RZ, (_PI / 2,)),
        (GateKind.SX, ()),
        (GateKind.RZ, (_PI / 2,)),
    ),
    GateKind.SXDG: (
        (GateKind.RZ, (_PI,)),
        (GateKind.SX, ()),
        (GateKind.RZ, (_PI,)),
    ),
}


def decompose_to_basis(
    kind: GateKind, angles: tuple[float, ...] = ()
) -> list[BasisGate]:
    """Basis-gate sequence for one catalog gate, in circuit order.

    cx, x, sx pass through; rz keeps its angle; id vanishes; exact phase
    gates shorten to a single rz; everything else (rx, ry, r, y) gets the
    generic 5-element Euler form. Lengths are what ``gates.BASIS_COST``
    records.
    """
    if kind is GateKind.CNOT:
        return [(GateKind.CNOT, ())]
    if kind is GateKind.RZ:
        return [(GateKind.RZ, (angles[0],))]
    if kind in _TABLE:
        return list(_TABLE[kind])
    alpha, beta, gamma = euler_zsxz(unitary(kind, angles))
    return [
        (GateKind.RZ, (gamma,)),
        (GateKind.SX, ()),
        (GateKind.RZ, (beta,)),
        (GateKind.SX, ()),
        (GateKind.RZ, (alpha,)),
    ]


def decompose(c: Circuit) -> Circuit:
    """Expand every op over the {cx, id, rz, sx, x} basis (id dropped)."""
    out: list[Op] = []
    for op in c.ops:
        for kind, angles in decompose_to_basis(op.kind, op.angles):
            out.append(Op(kind, op.qubits, angles))
    return Circuit(c.n_qubits, tuple(out))


def reference_walk(targets, keys, params):
    """Every restart of every target as one row of one stack, every row's
    11 candidates rescored at every step.

    ``keys`` gives one stream key per target (None: ``params.seed``).
    Returns the best row per target, ranked by distance (ties within
    RANK_ATOL to the shorter word) in restart order, and the (rows,
    iterations) array of accepted alphabet indices, -1 where a row
    accepted nothing.
    """
    n_restarts = params.restarts
    keys = [params.seed if key is None else key for key in keys]
    streams = [
        np.random.default_rng(key if r == 0 else _key_tuple(key) + (r,))
        for key in keys
        for r in range(n_restarts)
    ]
    draws = np.stack([rng.integers(params.top_k, size=params.iterations) for rng in streams])

    targets = np.stack(targets)
    n = len(streams)
    rows = np.arange(n)
    row_targets = np.repeat(targets, n_restarts, axis=0)[:, None]
    eye = np.eye(2, dtype=complex)
    acc = np.broadcast_to(eye, (n, 2, 2))
    best = np.repeat(distances(targets, eye, params.metric), n_restarts)
    prev = np.full(n, -1)
    taken = np.full((n, params.iterations), -1)
    for step in range(params.iterations):
        trials = (_ALPHABET_ROWS @ acc).reshape(n, len(ALPHABET), 2, 2)
        scores = distances(row_targets, trials, params.metric)
        has_prev = prev >= 0
        scores[has_prev, prev[has_prev]] = UNSCORED
        order = np.argsort(scores, axis=1, kind="stable")
        pick = order[rows, draws[:, step]]
        score = scores[rows, pick]
        took = score < best
        prev[took] = taken[took, step] = pick[took]
        best[took] = score[took]
        acc = np.where(took[:, None, None], trials[rows, pick], acc)

    results = []
    for target_taken, target_best in zip(
        taken.reshape(len(keys), n_restarts, -1), best.reshape(len(keys), n_restarts)
    ):
        winner = None
        for picks, dist in zip(target_taken, target_best):
            result = GreedyResult(tuple(ALPHABET[i] for i in picks if i >= 0), float(dist))
            if winner is None or (
                result.final_dist < winner.final_dist - RANK_ATOL
                or result.final_dist <= winner.final_dist + RANK_ATOL
                and len(result.sequence) < len(winner.sequence)
            ):
                winner = result
        results.append(winner)
    return results, taken
