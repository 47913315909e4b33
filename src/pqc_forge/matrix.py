"""Dense complex matrix arithmetic and the unitary overlap distance.

Matrices are square ``complex128`` numpy arrays whose dimension is a power
of two (2 for single-qubit gates, 2**n for embedded circuits). Everything
here is a pure function; nothing mutates its inputs.

The distance between two unitaries U (target) and V (candidate) is built
from the trace overlap Tr(V†U). For general unitaries that trace is
complex, so two reductions to a real number are offered:

* ``PHASE_INVARIANT`` (default): 1 - |Tr(V†U)| / dim, in [0, 1]. Blind to
  a global phase e^{ia} on either argument, which is physically
  unobservable.
* ``LITERAL_REAL``: 1 - Re(Tr(V†U)) / dim, in [0, 2]. The formula taken
  at face value, sensitive to global phase.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

UNITARY_ATOL = 1e-12


class DistanceMetric(Enum):
    """Reduction of the complex trace overlap to a real distance."""

    LITERAL_REAL = "literal-real"
    PHASE_INVARIANT = "phase-invariant"


def _require_square(m: np.ndarray, name: str) -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")


def check_unitary(m: np.ndarray, atol: float = UNITARY_ATOL) -> np.ndarray:
    """Return ``m`` unchanged, raising ValueError when it is not unitary."""
    _require_square(m, "matrix")
    off = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
    if not off <= atol:  # also catches a NaN
        raise ValueError(f"matrix is not unitary: max |U†U - I| = {off:.3e}")
    return m


def distances(
    u: np.ndarray,
    vs: np.ndarray,
    metric: DistanceMetric = DistanceMetric.PHASE_INVARIANT,
) -> np.ndarray:
    """``distance`` from target ``u`` to each candidate of a (..., dim, dim) stack.

    ``u`` is one target (dim, dim) or a stack of targets (..., dim, dim)
    that broadcasts against ``vs``. Each Tr(V†U) is summed over the
    flattened matrix and |Tr| is ``hypot(Re, Im)``, so a pair's distance
    does not depend on the shape of the stacks it sits in, down to the
    last bit.
    """
    if u.ndim < 2 or u.shape[-2:] != vs.shape[-2:] or u.shape[-1] != u.shape[-2]:
        raise ValueError(f"dimension mismatch: {u.shape[-2:]} vs {vs.shape[-2:]}")
    dim = u.shape[-1]
    # Tr(V†U) = sum_ij conj(V_ij) U_ij, cheaper than forming V†U.
    prod = vs.conj() * u
    tr = prod.reshape(*prod.shape[:-2], dim * dim).sum(-1)
    if metric is DistanceMetric.LITERAL_REAL:
        d = 1.0 - tr.real / dim
    else:
        d = 1.0 - np.hypot(tr.real, tr.imag) / dim
    # |Tr| <= dim exactly; clamp the float noise below zero.
    return np.maximum(0.0, d)


def distance(
    u: np.ndarray,
    v: np.ndarray,
    metric: DistanceMetric = DistanceMetric.PHASE_INVARIANT,
) -> float:
    """Distance 1 - Tr(V†U)/dim between target ``u`` and candidate ``v``.

    ``PHASE_INVARIANT`` uses |Tr|, ``LITERAL_REAL`` uses Re(Tr). Either way
    the result is 0 when v equals u (up to global phase for the former).
    """
    _require_square(u, "u")
    _require_square(v, "v")
    return float(distances(u, v, metric))
