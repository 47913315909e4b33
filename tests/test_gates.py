"""Gate catalog, embedding, basis costs and basis-decomposition equivalence."""

import math

import numpy as np
import pytest

from helpers import decompose_to_basis, embed, euler_zsxz, sequence_product
from pqc_forge import gates
from pqc_forge.gates import ALPHABET, BASIS_COST, N_ANGLES, GateKind, rx, rz, unitary
from pqc_forge.matrix import check_unitary, distance

ANGLE_GRID = np.linspace(-4 * math.pi + 1e-6, 4 * math.pi - 1e-6, 32)
BASIS_KINDS = {GateKind.CNOT, GateKind.RZ, GateKind.SX, GateKind.X}


def test_alphabet_is_the_published_order():
    assert [k.value for k in ALPHABET] == [
        "x", "y", "z", "h", "s", "t", "id", "sx", "sdg", "sxdg", "tdg",
    ]


def test_catalog_unitarity():
    for kind in ALPHABET:
        check_unitary(unitary(kind))


def test_identity_and_zero_rotation():
    assert np.allclose(unitary(GateKind.ID), np.eye(2))
    assert np.max(np.abs(unitary(GateKind.RX, (0.0,)) - np.eye(2))) < 1e-12


def test_sx_squared_is_x_up_to_phase():
    sx = unitary(GateKind.SX)
    assert distance(unitary(GateKind.X), sx @ sx) < 1e-12


def test_rotation_trace_convention():
    # the e^{-i t P/2} convention fixes Tr(RX(t)) = 2 cos(t/2)
    for theta in np.linspace(0, 2 * math.pi, 9):
        assert abs(np.trace(rx(float(theta))) - 2 * math.cos(theta / 2)) < 1e-12


def test_r3_is_rz_ry_rz_product():
    phi, theta, omega = 0.3, -1.1, 2.4
    expected = gates.rz(omega) @ gates.ry(theta) @ gates.rz(phi)
    assert np.allclose(unitary(GateKind.R3, (phi, theta, omega)), expected)


def test_unitary_rejects_cnot_and_bad_arity():
    with pytest.raises(ValueError, match="cnot"):
        unitary(GateKind.CNOT)
    with pytest.raises(ValueError, match="angle"):
        unitary(GateKind.RX)
    with pytest.raises(ValueError, match="angle"):
        unitary(GateKind.X, (0.5,))


def test_decompose_catalog_reconstructs_up_to_phase():
    for kind in ALPHABET:
        seq = decompose_to_basis(kind)
        assert distance(unitary(kind), sequence_product(seq)) <= 1e-9
        assert all(k in BASIS_KINDS for k, _ in seq)


def test_decompose_parametric_over_angle_grid():
    for kind in (GateKind.RX, GateKind.RY, GateKind.RZ):
        for theta in ANGLE_GRID:
            seq = decompose_to_basis(kind, (float(theta),))
            assert distance(unitary(kind, (float(theta),)), sequence_product(seq)) <= 1e-9


def test_decompose_r3_random_angles():
    rng = np.random.default_rng(5)
    for _ in range(50):
        angles = tuple(rng.uniform(-math.pi, math.pi, 3).tolist())
        seq = decompose_to_basis(GateKind.R3, angles)
        assert len(seq) == 5
        assert distance(unitary(GateKind.R3, angles), sequence_product(seq)) <= 1e-9


def test_decompose_lengths():
    assert decompose_to_basis(GateKind.ID) == []
    assert len(decompose_to_basis(GateKind.T)) == 1
    assert decompose_to_basis(GateKind.T)[0] == (GateKind.RZ, (math.pi / 4,))
    assert len(decompose_to_basis(GateKind.H)) == 3
    assert len(decompose_to_basis(GateKind.SXDG)) == 3
    assert len(decompose_to_basis(GateKind.CNOT)) == 1
    for theta in (0.0, 1.0, -2.5):  # rx stays 5 even at exact special angles
        assert len(decompose_to_basis(GateKind.RX, (theta,))) == 5
    assert len(decompose_to_basis(GateKind.Y)) == 5


def test_basis_cost_is_the_rewrite_length():
    grid = (0.0, math.pi, -math.pi, math.pi / 2, -math.pi / 4, 1.0, -2.5)
    rng = np.random.default_rng(14)
    random_r = [tuple(rng.uniform(-math.pi, math.pi, 3).tolist()) for _ in range(50)]
    for kind in GateKind:
        n = N_ANGLES[kind]
        if n == 0:
            cases = [()]
        elif n == 1:
            cases = [(theta,) for theta in grid]
        else:
            cases = [(a, b, c) for a in grid for b in grid for c in grid[:3]] + random_r
        for angles in cases:
            assert BASIS_COST[kind] == len(decompose_to_basis(kind, angles)), (kind, angles)


def test_shortened_forms_match_generic_euler():
    # every table shortening must agree with the generic 5-gate Euler form
    for kind in (GateKind.S, GateKind.T, GateKind.SDG, GateKind.TDG,
                 GateKind.Z, GateKind.H, GateKind.SXDG):
        u = unitary(kind)
        table = sequence_product(decompose_to_basis(kind))
        alpha, beta, gamma = euler_zsxz(u)
        generic = rz(alpha) @ unitary(GateKind.SX) @ rz(beta) @ unitary(GateKind.SX) @ rz(gamma)
        assert distance(u, table) <= 1e-9
        assert distance(u, generic) <= 1e-9
        assert distance(table, generic) <= 1e-9


def test_published_rx_basis_identity():
    # RX(t) ~ RZ(5pi/2) . SX . RZ(t+pi) . SX . RZ(pi/2) up to global phase
    sx = unitary(GateKind.SX)
    for theta in np.linspace(-math.pi, math.pi, 9):
        product = (
            rz(5 * math.pi / 2) @ sx @ rz(float(theta) + math.pi) @ sx @ rz(math.pi / 2)
        )
        assert distance(rx(float(theta)), product) <= 1e-9


def test_embed_identity_and_single_qubit():
    assert np.allclose(embed(GateKind.ID, (0,), 3), np.eye(8))
    assert np.allclose(embed(GateKind.X, (0,), 1), unitary(GateKind.X))
    # qubit 0 is the most significant bit
    manual = np.kron(unitary(GateKind.X), np.eye(4))
    assert np.allclose(embed(GateKind.X, (0,), 3), manual)
    manual = np.kron(np.eye(2), np.kron(unitary(GateKind.H), np.eye(2)))
    assert np.allclose(embed(GateKind.H, (1,), 3), manual)


def test_embed_cnot_truth_table():
    u = embed(GateKind.CNOT, (0, 1), 2)
    ket10 = np.zeros(4, dtype=complex)
    ket10[2] = 1.0  # |10>
    assert np.argmax(np.abs(u @ ket10)) == 3  # -> |11>
    ket01 = np.zeros(4, dtype=complex)
    ket01[1] = 1.0
    assert np.argmax(np.abs(embed(GateKind.CNOT, (1, 0), 2) @ ket01)) == 3
    check_unitary(embed(GateKind.CNOT, (2, 0), 3))


def test_embed_errors():
    with pytest.raises(ValueError, match="out of range"):
        embed(GateKind.X, (3,), 2)
    with pytest.raises(ValueError, match="duplicate"):
        embed(GateKind.CNOT, (1, 1), 2)
    with pytest.raises(ValueError, match="outside"):
        embed(GateKind.X, (0,), 13)
    with pytest.raises(ValueError, match="2 qubits"):
        embed(GateKind.CNOT, (0,), 2)


def test_embedded_unitaries_stay_unitary():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        kind = ALPHABET[rng.integers(len(ALPHABET))]
        check_unitary(embed(kind, (int(rng.integers(n)),), n))
