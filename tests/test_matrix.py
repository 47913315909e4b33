"""Distance metric and matrix arithmetic contracts."""

import math

import numpy as np
import pytest

from pqc_forge.gates import ALPHABET, GateKind, rx, unitary
from pqc_forge.matrix import DistanceMetric, check_unitary, distance, distances

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def random_catalog_product(rng, n_gates=5):
    u = I2
    for _ in range(n_gates):
        u = unitary(ALPHABET[rng.integers(len(ALPHABET))]) @ u
    return u


def test_multiply_identity_cases():
    assert np.allclose(I2 @ I2, I2)
    assert np.allclose(X @ X, I2)


def test_multiply_hzh_equals_x():
    hzh = H @ Z @ H
    assert np.max(np.abs(hzh - X)) < 1e-12


def test_multiply_preserves_unitarity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        check_unitary(random_catalog_product(rng) @ random_catalog_product(rng))


def test_kron_identities():
    assert np.allclose(np.kron(I2, I2), np.eye(4))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = expected[1, 3] = expected[2, 0] = expected[3, 1] = 1
    assert np.allclose(np.kron(X, I2), expected)


def test_kron_hh_squared_is_identity():
    hh = np.kron(H, H)
    assert np.max(np.abs(hh @ hh - np.eye(4))) < 1e-12


def test_distance_identity_is_zero_both_modes():
    for mode in DistanceMetric:
        assert distance(I2, I2, mode) == 0.0


def test_distance_rx_pi_vs_x():
    # RX(pi) = -iX: phase-blind distance 0, literal distance 1 (Re(-2i) = 0)
    assert distance(rx(math.pi), X, DistanceMetric.PHASE_INVARIANT) < 1e-12
    assert abs(distance(rx(math.pi), X, DistanceMetric.LITERAL_REAL) - 1.0) < 1e-12


def test_distance_rx_vs_identity_analytic():
    # Tr(RX(t)) = 2 cos(t/2), so the phase-blind distance is 1 - |cos(t/2)|
    for theta in np.linspace(0, 2 * math.pi, 17):
        expected = 1.0 - abs(math.cos(theta / 2))
        got = distance(rx(float(theta)), I2)
        assert abs(got - expected) < 1e-12
    assert abs(distance(rx(0.1), I2) - (1 - math.cos(0.05))) < 1e-12


def test_distance_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(50):
        u, v = random_catalog_product(rng), random_catalog_product(rng)
        for mode in DistanceMetric:
            assert abs(distance(u, v, mode) - distance(v, u, mode)) < 1e-12


def test_distance_phase_invariance_over_phase_grid():
    rng = np.random.default_rng(12)
    u, v = random_catalog_product(rng), random_catalog_product(rng)
    base = distance(u, v)
    for alpha in np.linspace(0, 2 * math.pi, 16):
        phased = np.exp(1j * alpha) * u
        assert abs(distance(phased, v) - base) < 1e-12
        assert abs(distance(u, np.exp(1j * alpha) * v) - base) < 1e-12


def test_distance_ranges():
    rng = np.random.default_rng(13)
    for _ in range(100):
        u, v = random_catalog_product(rng), random_catalog_product(rng)
        p = distance(u, v, DistanceMetric.PHASE_INVARIANT)
        l = distance(u, v, DistanceMetric.LITERAL_REAL)
        assert 0.0 <= p <= 1.0
        assert 0.0 <= l <= 2.0


def test_distance_self_zero_for_catalog():
    for kind in ALPHABET:
        u = unitary(kind)
        for mode in DistanceMetric:
            assert distance(u, u, mode) <= 1e-12


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("dim, shape", [(2, (3, 11)), (2, (40,)), (8, (5,)), (64, (2, 3))])
def test_distances_match_distance_exactly(dim, shape):
    rng = np.random.default_rng(dim)
    vs = np.stack([random_unitary(rng, dim) for _ in range(math.prod(shape))])
    vs = vs.reshape(*shape, dim, dim)
    # one target, then a stack of targets broadcast along the first axis
    for u_shape in [(), shape[:1] + (1,) * (len(shape) - 1)]:
        us = np.stack([random_unitary(rng, dim) for _ in range(math.prod(u_shape))])
        u = us.reshape(*u_shape, dim, dim)
        u_at = np.broadcast_to(u, vs.shape)  # the target each candidate is scored against
        vs[(0,) * len(shape)] = np.exp(0.3j) * u_at[(0,) * len(shape)]  # zero distance, phase-blind
        for mode in DistanceMetric:
            got = distances(u, vs, mode)
            assert got.shape == shape
            for idx in np.ndindex(*shape):
                # the one-pair reduction, written out: np.sum over the matrix, Python abs
                tr = complex(np.sum(vs[idx].conj() * u_at[idx]))
                literal = mode is DistanceMetric.LITERAL_REAL
                expected = max(0.0, 1.0 - (tr.real if literal else abs(tr)) / dim)
                assert got[idx] == distance(u_at[idx], vs[idx], mode) == expected


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        distance(I2, np.eye(4, dtype=complex))
    with pytest.raises(ValueError, match="mismatch"):
        distances(np.stack([I2, I2]), np.eye(4, dtype=complex)[None])


def test_is_unitary_rejects_non_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        check_unitary(np.array([[1, 0], [0, 2]], dtype=complex))
    with pytest.raises(ValueError, match="square"):
        check_unitary(np.ones((2, 3), dtype=complex))
    with pytest.raises(ValueError, match="not unitary"):
        check_unitary(2 * I2)
    with pytest.raises(ValueError, match="not unitary"):
        check_unitary(np.full((2, 2), np.nan, dtype=complex))
