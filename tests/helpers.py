"""Shared circuit factories and dense oracles for the test suite.

``embed`` and ``full_unitary`` build 2ⁿ×2ⁿ matrices gate by gate; the
tests compare the statevector simulator and the optimizer's global
distance against them.
"""

import numpy as np

from pqc_forge import sim
from pqc_forge.circuit import Circuit, Op
from pqc_forge.gates import ALPHABET, GateKind, unitary

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


def apply_op(state: np.ndarray, op: Op, n_qubits: int) -> np.ndarray:
    """One gate applied to one state vector; returns a new vector."""
    return sim.run_batch(Circuit(n_qubits, (op,)), state[None, :])[0]


def encoding_ops(x: np.ndarray, n_qubits: int, feature_count: int) -> list[Op]:
    """Frozen RX encoding gates for one sample (qubit q ← x[q mod F])."""
    return [
        Op(GateKind.RX, (q,), (float(x[q % feature_count]),), trainable=False)
        for q in range(n_qubits)
    ]
