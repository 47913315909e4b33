"""Gate catalog: single-qubit unitaries and basis costs.

Conventions fixed here and relied on everywhere else:

* Rotations use the e^{-i θ P / 2} sign, so
  RX(θ) = cos(θ/2)·I - i·sin(θ/2)·X (and likewise RY, RZ), giving
  Tr(RX(θ)) = 2·cos(θ/2).
* The three-angle rotation is R(φ, θ, ω) = RZ(ω)·RY(θ)·RZ(φ) as a matrix
  product, i.e. RZ(φ) acts first in circuit order; ``rotation_factors``
  lists a rotation's single-angle factors in that order.

The search alphabet is the 11 fixed single-qubit gates, in this order:
x, y, z, h, s, t, id, sx, sdg, sxdg, tdg. The order matters: it breaks
ties deterministically in the greedy search.

``BASIS_COST`` is the number of gates each kind rewrites to over the
hardware basis {cx, id, rz, sx, x}, up to global phase, used for depth /
gate-count accounting. Generic single-qubit gates (y, rx, ry, r) take the
5-element rz·sx·rz·sx·rz Euler form; exact special cases (phase gates, h,
sxdg) are shorter; id vanishes. ``tests/helpers.py`` holds the rewrite
itself, and the test suite checks every cost against it and every
rewrite against the gate unitary, up to global phase, at 1e-9.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np


class GateKind(Enum):
    X = "x"
    Y = "y"
    Z = "z"
    H = "h"
    S = "s"
    T = "t"
    ID = "id"
    SX = "sx"
    SDG = "sdg"
    SXDG = "sxdg"
    TDG = "tdg"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    R3 = "r"
    CNOT = "cnot"


# The paper-order search alphabet of fixed single-qubit gates.
ALPHABET: tuple[GateKind, ...] = (
    GateKind.X,
    GateKind.Y,
    GateKind.Z,
    GateKind.H,
    GateKind.S,
    GateKind.T,
    GateKind.ID,
    GateKind.SX,
    GateKind.SDG,
    GateKind.SXDG,
    GateKind.TDG,
)

ROTATION_KINDS = frozenset({GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.R3})

N_ANGLES: dict[GateKind, int] = {kind: 0 for kind in GateKind}
N_ANGLES.update({GateKind.RX: 1, GateKind.RY: 1, GateKind.RZ: 1, GateKind.R3: 3})

# Gates of the {cx, id, rz, sx, x} rewrite of each kind, up to phase.
BASIS_COST: dict[GateKind, int] = {kind: 1 for kind in GateKind}
BASIS_COST.update({GateKind.ID: 0, GateKind.H: 3, GateKind.SXDG: 3})
BASIS_COST.update({kind: 5 for kind in (GateKind.Y, GateKind.RX, GateKind.RY, GateKind.R3)})

_SQ2 = 1.0 / math.sqrt(2.0)

_FIXED: dict[GateKind, np.ndarray] = {
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    GateKind.H: np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    GateKind.S: np.array([[1, 0], [0, 1j]], dtype=complex),
    GateKind.T: np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    GateKind.ID: np.eye(2, dtype=complex),
    GateKind.SX: np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2,
    GateKind.SDG: np.array([[1, 0], [0, -1j]], dtype=complex),
    GateKind.SXDG: np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex) / 2,
    GateKind.TDG: np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex),
}


def rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    u = np.empty((2, 2), dtype=complex)
    u[0, 0] = c
    u[0, 1] = u[1, 0] = -1j * s
    u[1, 1] = c
    return u


def ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    u = np.empty((2, 2), dtype=complex)
    u[0, 0] = c
    u[0, 1] = -s
    u[1, 0] = s
    u[1, 1] = c
    return u


def rz(theta: float) -> np.ndarray:
    u = np.zeros((2, 2), dtype=complex)
    u[0, 0] = complex(math.cos(theta / 2), -math.sin(theta / 2))
    u[1, 1] = u[0, 0].conjugate()
    return u


def unitary(kind: GateKind, angles: tuple[float, ...] = ()) -> np.ndarray:
    """2×2 unitary of a single-qubit gate; cnot has none."""
    if kind is GateKind.CNOT:
        raise ValueError("cnot has no 2x2 unitary")
    if len(angles) != N_ANGLES[kind]:
        raise ValueError(
            f"{kind.value} takes {N_ANGLES[kind]} angle(s), got {len(angles)}"
        )
    if kind in _FIXED:
        return _FIXED[kind].copy()
    if kind is GateKind.RX:
        return rx(angles[0])
    if kind is GateKind.RY:
        return ry(angles[0])
    if kind is GateKind.RZ:
        return rz(angles[0])
    # R(φ, θ, ω) = RZ(ω)·RY(θ)·RZ(φ)
    phi, theta, omega = angles
    return rz(omega) @ ry(theta) @ rz(phi)


def rotation_factors(op) -> list[tuple[GateKind, float]]:
    """[(kind, angle)] of a rotation ``Op``'s single-angle factors, circuit order.

    rx/ry/rz are one factor; a three-angle r gate is rz(φ), ry(θ), rz(ω).
    """
    if op.kind is GateKind.R3:
        phi, theta, omega = op.angles
        return [(GateKind.RZ, phi), (GateKind.RY, theta), (GateKind.RZ, omega)]
    return [(op.kind, op.angles[0])]
