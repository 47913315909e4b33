"""Exact statevector simulation by amplitude-pair updates.

States are ``complex128`` vectors of length 2**n. Qubit 0 is the most
significant bit of the index: basis state |q0 q1 ... q_{n-1}⟩ has index
q0·2^{n-1} + ... + q_{n-1}. Gates act
on amplitude pairs along one axis of the state viewed as a rank-n
tensor, O(2**n) work per gate; no 2**n × 2**n matrix is ever formed.

Every kernel works on a flat (rows, 2**n) stack. A 2×2 gate goes through
one kernel, ``apply_1q_batch``, with two layouts chosen by the distance
between the amplitudes of a pair: a product against u ⊗ I up to
distance 16 (small GEMMs with K=2 are pathological in BLAS), and a
broadcast (2, 2) @ (·, 2, distance) product beyond it. The elementwise
kernels (Pauli products, per-row RX, ⟨Z⟩) read the pairs through one
view, ``_pairs``. Training loops hammer these kernels, so per-call
overhead matters more than elegance here. A cnot only moves amplitudes,
so each maximal run of consecutive cnots is applied as one gather
through the composed index permutation, cached per run and qubit count.
Pauli generator products (``apply_pauli_batch``) are signed permutations
too: a swap of each amplitude pair, a sign or a ±i phase, with the
values the 2×2 kernel would give for the Pauli matrix.

All functions are pure: inputs are never mutated. The batched variants
take an array of shape (batch, 2**n); ``run`` is ``run_batch`` on one
state, with a norm check.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import gates
from .circuit import Circuit, Op
from .gates import GateKind

NORM_ATOL = 1e-10
_EYE = np.eye(16)  # I for the u ⊗ I products of apply_1q_batch


def _pairs(states: np.ndarray, qubit: int) -> np.ndarray:
    """A (rows, 2**n) stack viewed as (rows, 2**q, 2, 2**(n-1-q)): axis 2
    is the bit of ``qubit``, so [:, :, 0, :] and [:, :, 1, :] are the halves
    of every amplitude pair."""
    rows, dim = states.shape
    return states.reshape(rows, 1 << qubit, 2, dim >> (qubit + 1))


@functools.lru_cache(maxsize=256)
def _run_perm(pairs: tuple[tuple[int, int], ...], n: int) -> np.ndarray:
    """Gather index of the cnots ``pairs`` applied in order to 2**n amplitudes:
    the composition of their bit-flip maps, the last cnot's applied first."""
    idx = np.arange(1 << n)
    for c, t in reversed(pairs):
        idx = idx ^ (((idx >> (n - 1 - c)) & 1) << (n - 1 - t))
    idx.flags.writeable = False
    return idx


def apply_1q_batch(states: np.ndarray, u: np.ndarray, qubit: int) -> np.ndarray:
    """A 2×2 matrix ``u`` applied on one qubit of a (batch, 2**n) stack.

    Amplitude pairs sit ``post`` = 2**(n-1-q) apart. Up to 16 apart, the
    stack is a (·, 2·post) product against u ⊗ I, built by broadcasting u
    against a stored identity (the products ``np.kron`` forms, without
    its per-call set-up); farther apart, a broadcast (2, 2) @ (·, 2, post)
    product.
    """
    post = states.shape[1] >> (qubit + 1)
    if post <= 16:
        eye = _EYE[:post, :post]
        w = (u[:, None, :, None] * eye[None, :, None, :]).reshape(2 * post, 2 * post).T
        return (states.reshape(-1, 2 * post) @ w).reshape(states.shape)
    return np.matmul(u, states.reshape(-1, 2, post)).reshape(states.shape)


def apply_cnot_batch(states: np.ndarray, control: int, target: int) -> np.ndarray:
    """cnot applied to a (batch, 2**n) stack."""
    return apply_cnots_batch(states, ((control, target),))


def apply_cnots_batch(states: np.ndarray, pairs) -> np.ndarray:
    """The cnots ``pairs`` = ((control, target), ...) applied in order to a
    (batch, 2**n) stack, as one gather."""
    n = states.shape[1].bit_length() - 1
    return states[:, _run_perm(tuple(map(tuple, pairs)), n)]


# the factors Z and Y put on the (bit 0, bit 1) halves of each pair
_Z_SIGNS = np.array([[1.0], [-1.0]])
_Y_PHASES = np.array([[-1j], [1j]])


def apply_pauli_batch(states: np.ndarray, pauli: GateKind, qubit: int) -> np.ndarray:
    """X, Y or Z on one qubit of a (batch, 2**n) stack, as a signed permutation.

    X swaps the halves of every amplitude pair, Z negates the bit-1 half
    and Y swaps and multiplies by ∓i. Every product of the 2×2 kernel
    with a Pauli matrix is by 0 or ±1 (±i), so this gives the values of
    ``apply_1q_batch`` with the Pauli matrix exactly, up to the sign of
    a zero.
    """
    v = _pairs(states, qubit)
    if pauli is GateKind.Z:
        return (v * _Z_SIGNS).reshape(states.shape)
    swapped = v[:, :, ::-1, :]
    if pauli is GateKind.X:
        return np.ascontiguousarray(swapped).reshape(states.shape)
    if pauli is GateKind.Y:
        return (swapped * _Y_PHASES).reshape(states.shape)
    raise ValueError(f"{pauli.value} is not a Pauli gate")


def apply_rx_batch(states: np.ndarray, qubit: int, thetas: np.ndarray) -> np.ndarray:
    """RX with a different angle per batch entry.

    ``encode_batch`` no longer calls it; it stays as the reference that
    encoding is tested against and a kernel the benchmark traces by name.
    """
    c = np.cos(thetas / 2)[:, None, None]
    s = (-1j * np.sin(thetas / 2))[:, None, None]
    v = _pairs(states, qubit)
    a0, a1 = v[:, :, 0, :], v[:, :, 1, :]
    return np.stack([c * a0 + s * a1, s * a0 + c * a1], axis=2).reshape(states.shape)


def run(c: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """Apply every op of ``c`` in order, by default to |0...0⟩; returns the
    final state.

    Raises ValueError when the state's norm drifts (a NaN included).
    """
    dim = 1 << c.n_qubits
    if initial is None:
        initial = np.eye(1, dim, dtype=complex)[0]  # |0...0⟩
    if initial.shape != (dim,):
        raise ValueError(
            f"state has {initial.shape[0]} amplitudes, circuit wants {dim}"
        )
    out = run_batch(c, initial[None, :])[0]
    drift = abs(np.linalg.norm(out) - np.linalg.norm(initial))
    if not drift <= NORM_ATOL:  # also catches a NaN
        raise ValueError(f"statevector norm drifted by {drift:.3e}")
    return out


def run_batch(c: Circuit, states: np.ndarray) -> np.ndarray:
    """``run`` over a (batch, 2**n) stack; rows evolve independently."""
    dim = 1 << c.n_qubits
    if states.ndim != 2 or states.shape[1] != dim:
        raise ValueError(f"expected shape (batch, {dim}), got {states.shape}")
    psi = np.asarray(states, dtype=complex)
    for is_cnot, group in itertools.groupby(c.ops, key=is_cnot_op):
        if is_cnot:
            psi = apply_cnots_batch(psi, [op.qubits for op in group])
            continue
        for op in group:
            psi = apply_1q_batch(psi, gates.unitary(op.kind, op.angles), op.qubits[0])
    return psi


def is_cnot_op(op: Op) -> bool:
    """Groups ops into maximal cnot runs with ``itertools.groupby``."""
    return op.kind is GateKind.CNOT


def expect_z_batch(states: np.ndarray, qubit: int) -> np.ndarray:
    """⟨Z_q⟩ = P(bit q = 0) - P(bit q = 1) per batch row, shape (batch,)."""
    n = states.shape[1].bit_length() - 1
    if not 0 <= qubit < n:
        raise ValueError(f"qubit index {qubit} out of range for {n} qubits")
    p = np.abs(_pairs(states, qubit)) ** 2
    return p[:, :, 0, :].sum(axis=(1, 2)) - p[:, :, 1, :].sum(axis=(1, 2))
