"""Exact statevector simulation by amplitude-pair updates.

States are ``complex128`` vectors of length 2**n. Qubit 0 is the most
significant bit of the index: basis state |q0 q1 ... q_{n-1}⟩ has index
q0·2^{n-1} + ... + q_{n-1}. Gates act
on amplitude pairs along one axis of the state viewed as a rank-n
tensor, O(2**n) work per gate; no 2**n × 2**n matrix is ever formed.

Internally every kernel works on a flat (rows, 2**n) array reshaped to
(rows, 2**q, 2, 2**(n-1-q)) views, which keeps the hot slice arithmetic
contiguous; training loops hammer these kernels, so per-call overhead
matters more than elegance here. A cnot only moves amplitudes, so each
maximal run of consecutive cnots is applied as one gather through the
composed index permutation, cached per run and qubit count. Pauli
generator products (``apply_pauli_batch``) are signed permutations too:
a swap of each amplitude pair, a sign or a ±i phase, with the values the
2×2 kernel would give for the Pauli matrix.

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
_EYE = np.eye(8)  # I for the u ⊗ I products of _apply_1q_flat


def zero_state(n_qubits: int) -> np.ndarray:
    """|0...0⟩ on ``n_qubits`` wires."""
    state = np.zeros(1 << n_qubits, dtype=complex)
    state[0] = 1.0
    return state


def _apply_1q_flat(psi: np.ndarray, u: np.ndarray, q: int, n: int) -> np.ndarray:
    """psi: (rows, 2**n) → new array with ``u`` applied on qubit q.

    Amplitude pairs sit 2**(n-1-q) apart. Three BLAS-friendly layouts
    cover the range: a flat (·, 2) @ uᵀ product when the pairs are
    adjacent, a (·, 2·post) product against u ⊗ I when they are close
    (small GEMMs with K=2 are pathological in BLAS), and a broadcast
    (2, 2) @ (·, 2, post) product when they are far apart. u ⊗ I is
    built by broadcasting u against a stored identity, the same
    products ``np.kron`` forms without its per-call set-up.
    """
    rows = psi.shape[0]
    post = 1 << (n - 1 - q)
    if post == 1:
        return (psi.reshape(-1, 2) @ u.T).reshape(rows, -1)
    if post <= 8:
        eye = _EYE[:post, :post]
        w = (u[:, None, :, None] * eye[None, :, None, :]).reshape(2 * post, 2 * post).T
        return (psi.reshape(-1, 2 * post) @ w).reshape(rows, -1)
    return np.matmul(u, psi.reshape(-1, 2, post)).reshape(rows, -1)


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
    """A prebuilt 2×2 matrix applied on one qubit of a (batch, 2**n) stack.

    Fast path for callers that apply the same ops many times (the
    training gradient); skips Op dispatch and matrix construction.
    """
    n = states.shape[1].bit_length() - 1
    return _apply_1q_flat(states, u, qubit, n)


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
    rows = states.shape[0]
    n = states.shape[1].bit_length() - 1
    v = states.reshape(rows, 1 << qubit, 2, 1 << (n - 1 - qubit))
    if pauli is GateKind.Z:
        return (v * _Z_SIGNS).reshape(rows, -1)
    swapped = v[:, :, ::-1, :]
    if pauli is GateKind.X:
        return np.ascontiguousarray(swapped).reshape(rows, -1)
    if pauli is GateKind.Y:
        return (swapped * _Y_PHASES).reshape(rows, -1)
    raise ValueError(f"{pauli.value} is not a Pauli gate")


def apply_rx_batch(states: np.ndarray, qubit: int, thetas: np.ndarray) -> np.ndarray:
    """RX with a different angle per batch entry.

    ``encode_batch`` no longer calls it; it stays as the reference that
    encoding is tested against and a kernel the benchmark traces by name.
    """
    rows = states.shape[0]
    n = states.shape[1].bit_length() - 1
    c = np.cos(thetas / 2)[:, None, None]
    s = (-1j * np.sin(thetas / 2))[:, None, None]
    v = states.reshape(rows, 1 << qubit, 2, 1 << (n - 1 - qubit))
    a0 = v[:, :, 0, :]
    a1 = v[:, :, 1, :]
    out = np.empty_like(v)
    out[:, :, 0, :] = c * a0 + s * a1
    out[:, :, 1, :] = s * a0 + c * a1
    return out.reshape(rows, -1)


def run(c: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """Apply every op of ``c`` in order; returns the final state.

    Raises ValueError when the state's norm drifts (a NaN included).
    """
    dim = 1 << c.n_qubits
    if initial is None:
        initial = zero_state(c.n_qubits)
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
            psi = _apply_1q_flat(psi, gates.unitary(op.kind, op.angles), op.qubits[0], c.n_qubits)
    return psi


def is_cnot_op(op: Op) -> bool:
    """Groups ops into maximal cnot runs with ``itertools.groupby``."""
    return op.kind is GateKind.CNOT


def expect_z(state: np.ndarray, qubit: int) -> float:
    """⟨Z_q⟩ = P(bit q = 0) - P(bit q = 1), in [-1, 1]."""
    return float(expect_z_batch(state[None, :], qubit)[0])


def expect_z_batch(states: np.ndarray, qubit: int) -> np.ndarray:
    """⟨Z_q⟩ per batch row, shape (batch,)."""
    rows = states.shape[0]
    n = states.shape[1].bit_length() - 1
    if not 0 <= qubit < n:
        raise ValueError(f"qubit index {qubit} out of range for {n} qubits")
    v = states.reshape(rows, 1 << qubit, 2, 1 << (n - 1 - qubit))
    p = np.abs(v) ** 2
    return p[:, :, 0, :].sum(axis=(1, 2)) - p[:, :, 1, :].sum(axis=(1, 2))
