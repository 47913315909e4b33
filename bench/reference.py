"""Independent reference for the benchmark's correctness checks.

Everything here is built from textbook definitions and imports nothing
from ``pqc_forge.sim``, ``pqc_forge.matrix`` or ``pqc_forge.gates``, so
a fault in those modules cannot hide in the reference it is checked
against. Circuits are read through their plain fields only: each op's
mnemonic (``op.kind.value``), qubits, angles and trainable flag.

Conventions (Nielsen & Chuang §4.2; PennyLane ``Rot``):

* R_P(θ) = exp(-iθP/2) = cos(θ/2)·I - i·sin(θ/2)·P for a Pauli P.
* r(φ, θ, ω) = RZ(ω)·RY(θ)·RZ(φ): RZ(φ) acts first.
* Qubit 0 is the most significant bit of a basis-state index.
* Distance of unitaries U, V of dimension d: 1 - |Tr(V†U)|/d.
"""

from __future__ import annotations

import math

import numpy as np

I2 = np.eye(2, dtype=complex)
PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def rotation(axis: str, theta: float) -> np.ndarray:
    """exp(-iθP/2) for the Pauli named by ``axis``."""
    return math.cos(theta / 2) * I2 - 1j * math.sin(theta / 2) * PAULI[axis]


def _phase(phi: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * phi)]).astype(complex)


_SX = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2

FIXED = {
    "id": I2,
    "x": PAULI["x"],
    "y": PAULI["y"],
    "z": PAULI["z"],
    "h": (PAULI["x"] + PAULI["z"]) / math.sqrt(2),
    "s": _phase(math.pi / 2),
    "sdg": _phase(-math.pi / 2),
    "t": _phase(math.pi / 4),
    "tdg": _phase(-math.pi / 4),
    "sx": _SX,  # the principal square root of X
    "sxdg": _SX.conj().T,
}

# Length of each gate's rewriting over the {cx, id, rz, sx, x} basis, as
# IBM transpilers count it: phase gates are one rz, h and sxdg are
# rz·sx·rz, and a general single-qubit unitary takes rz·sx·rz·sx·rz.
BASIS_COST = {
    "cnot": 1, "x": 1, "sx": 1, "rz": 1, "z": 1, "s": 1, "sdg": 1,
    "t": 1, "tdg": 1, "id": 0, "h": 3, "sxdg": 3,
    "y": 5, "rx": 5, "ry": 5, "r": 5,
}  # fmt: skip


def gate(name: str, angles=()) -> np.ndarray:
    """2×2 unitary of a single-qubit gate named by its mnemonic."""
    if name in FIXED:
        return FIXED[name]
    if name in ("rx", "ry", "rz"):
        (theta,) = angles
        return rotation(name[1], theta)
    if name == "r":
        phi, theta, omega = angles
        return rotation("z", omega) @ rotation("y", theta) @ rotation("z", phi)
    raise ValueError(f"no 2x2 unitary for {name!r}")


def word_unitary(word) -> np.ndarray:
    """Product of fixed gates listed in circuit order (first acts first)."""
    u = I2
    for name in word:
        u = FIXED[name] @ u
    return u


def distance(u: np.ndarray, v: np.ndarray) -> float:
    """1 - |Tr(V†U)|/d, blind to a global phase."""
    return 1.0 - abs(np.trace(v.conj().T @ u)) / u.shape[0]


# --- dense statevector simulation -----------------------------------------
#
# A batch of n-qubit states is a (batch, 2, ..., 2) tensor; axis q + 1 is
# qubit q, so C-order flattening puts qubit 0 at the top bit.


def zero_states(batch: int, n: int) -> np.ndarray:
    psi = np.zeros((batch,) + (2,) * n, dtype=complex)
    psi[(slice(None),) + (0,) * n] = 1.0
    return psi


def apply_1q(psi: np.ndarray, u: np.ndarray, q: int) -> np.ndarray:
    """ψ' = (I ⊗ … ⊗ U_q ⊗ … ⊗ I) ψ by contraction over qubit q's axis."""
    return np.moveaxis(np.tensordot(u, psi, axes=([1], [q + 1])), 0, q + 1)


def apply_cnot(psi: np.ndarray, control: int, target: int) -> np.ndarray:
    """Flip the target bit of every amplitude whose control bit is 1."""
    out = psi.copy()
    sel = [slice(None)] * psi.ndim
    sel[control + 1] = 1
    sub = psi[tuple(sel)]  # the control axis is gone from ``sub``
    axis = target + 1 if target < control else target
    out[tuple(sel)] = np.flip(sub, axis=axis)
    return out


def plain_ops(c) -> list[tuple[str, tuple[int, ...], tuple[float, ...]]]:
    """(mnemonic, qubits, angles) of every op of a ``pqc_forge`` circuit."""
    return [(op.kind.value, tuple(op.qubits), tuple(op.angles)) for op in c.ops]


def run(ops, psi: np.ndarray) -> np.ndarray:
    """Apply (mnemonic, qubits, angles) ops in circuit order."""
    for name, qubits, angles in ops:
        if name == "cnot":
            psi = apply_cnot(psi, *qubits)
        else:
            psi = apply_1q(psi, gate(name, angles), qubits[0])
    return psi


def expect_z(psi: np.ndarray, q: int) -> np.ndarray:
    """⟨Z_q⟩ = P(bit q = 0) - P(bit q = 1) for every batch row."""
    p = np.abs(np.moveaxis(psi, q + 1, 1)) ** 2
    p = p.reshape(p.shape[0], 2, -1).sum(axis=2)
    return p[:, 0] - p[:, 1]


def encode(x: np.ndarray, n: int) -> np.ndarray:
    """The models' encoding: rx(x[q mod F]) on qubit q, from |0…0⟩."""
    x = np.atleast_2d(x)
    psi = zero_states(x.shape[0], n)
    for q in range(n):
        col = x[:, q % x.shape[1]]
        c = np.cos(col / 2).astype(complex)
        s = -1j * np.sin(col / 2)
        u = np.stack([np.stack([c, s], -1), np.stack([s, c], -1)], -2)  # (b, 2, 2)
        moved = np.moveaxis(psi, q + 1, 1)
        moved = np.einsum("bij,bj...->bi...", u, moved)
        psi = np.moveaxis(moved, 1, q + 1)
    return psi


def logits(ops, n_qubits: int, scale, bias, x: np.ndarray) -> np.ndarray:
    """scale[k]·⟨Z_k⟩ + bias[k] for k < len(scale), after encoding and ``ops``."""
    n_classes = len(scale)
    psi = run(ops, encode(x, n_qubits))
    z = np.stack([expect_z(psi, k) for k in range(n_classes)], axis=1)
    return np.asarray(scale) * z + np.asarray(bias)


def cross_entropy(z: np.ndarray, y: np.ndarray) -> float:
    """Mean softmax cross-entropy, by log-sum-exp."""
    m = z.max(axis=1, keepdims=True)
    lse = (m + np.log(np.exp(z - m).sum(axis=1, keepdims=True)))[:, 0]
    return float(np.mean(lse - z[np.arange(len(y)), y]))


# --- circuit metrics ---------------------------------------------------------


def basis_counts(c) -> tuple[int, int]:
    """(gate count, depth) of ``c`` rewritten over the basis.

    Depth is the longest chain of basis gates where two gates depend on
    each other when they share a qubit.
    """
    wire = [0] * c.n_qubits
    count = 0
    for op in c.ops:
        k = BASIS_COST[op.kind.value]
        count += k
        if op.kind.value == "cnot":
            a, b = op.qubits
            wire[a] = wire[b] = max(wire[a], wire[b]) + 1
        else:
            wire[op.qubits[0]] += k
    return count, max(wire, default=0)
