"""Simulator correctness against the full-unitary oracle."""

import math

import numpy as np
import pytest

from helpers import apply_op, embed, full_unitary, random_circuit
from pqc_forge import sim
from pqc_forge.circuit import Circuit, Op
from pqc_forge.gates import GateKind


def random_state(rng, n):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def test_empty_circuit_preserves_state():
    assert np.allclose(sim.run(Circuit(3)), sim.zero_state(3))


def test_hadamard_on_zero():
    out = sim.run(Circuit(1, (Op(GateKind.H, (0,)),)))
    assert np.allclose(out, np.array([1, 1]) / math.sqrt(2))


def test_run_matches_full_unitary_oracle():
    rng = np.random.default_rng(42)
    for _ in range(30):
        c = random_circuit(5, 30, rng)
        v = random_state(rng, 5)
        assert np.max(np.abs(sim.run(c, v) - full_unitary(c) @ v)) <= 1e-10


def test_run_rejects_wrong_dimension():
    with pytest.raises(ValueError, match="amplitudes"):
        sim.run(Circuit(2), sim.zero_state(3))


def test_run_rejects_a_state_with_nan():
    state = sim.zero_state(2)
    state[3] = np.nan
    with pytest.raises(ValueError, match="norm drifted"):
        sim.run(Circuit(2, (Op(GateKind.H, (0,)),)), state)


def test_norm_preserved_after_every_gate():
    rng = np.random.default_rng(43)
    c = random_circuit(4, 40, rng)
    state = sim.zero_state(4)
    for op in c.ops:
        state = apply_op(state, op, 4)
        assert abs(np.linalg.norm(state) - 1.0) <= 1e-10


def test_run_is_linear():
    rng = np.random.default_rng(44)
    for _ in range(10):
        c = random_circuit(3, 20, rng)
        s1, s2 = random_state(rng, 3), random_state(rng, 3)
        a, b = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
        lhs = sim.run(c, a * s1 + b * s2)
        rhs = a * sim.run(c, s1) + b * sim.run(c, s2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_trainable_flag_does_not_affect_simulation():
    trainable = Circuit(2, (Op(GateKind.RX, (0,), (0.7,), True), Op(GateKind.CNOT, (0, 1))))
    frozen = Circuit(2, (Op(GateKind.RX, (0,), (0.7,), False), Op(GateKind.CNOT, (0, 1))))
    assert np.allclose(sim.run(trainable), sim.run(frozen))


def test_expect_z_basis_states():
    assert sim.expect_z(np.array([1, 0], dtype=complex), 0) == 1.0
    assert sim.expect_z(np.array([0, 1], dtype=complex), 0) == -1.0


def test_expect_z_hadamard_is_zero():
    out = sim.run(Circuit(1, (Op(GateKind.H, (0,)),)))
    assert abs(sim.expect_z(out, 0)) <= 1e-12


def test_expect_z_rx_analytic():
    for theta in np.linspace(0, 2 * math.pi, 17):
        c = Circuit(1, (Op(GateKind.RX, (0,), (float(theta),), True),))
        assert abs(sim.expect_z(sim.run(c), 0) - math.cos(theta)) <= 1e-12


def test_expect_z_targets_named_qubit():
    # X on qubit 2 of three flips only that wire's expectation
    c = Circuit(3, (Op(GateKind.X, (2,)),))
    out = sim.run(c)
    assert sim.expect_z(out, 0) == 1.0
    assert sim.expect_z(out, 1) == 1.0
    assert sim.expect_z(out, 2) == -1.0


def test_expect_z_index_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        sim.expect_z(sim.zero_state(2), 2)


def test_batch_matches_loop():
    rng = np.random.default_rng(45)
    c = random_circuit(4, 25, rng)
    states = np.stack([random_state(rng, 4) for _ in range(7)])
    out_b = sim.run_batch(c, states)
    out_l = np.stack([sim.run(c, states[i]) for i in range(7)])
    assert np.max(np.abs(out_b - out_l)) <= 1e-12
    for q in range(4):
        zb = sim.expect_z_batch(out_b, q)
        zl = [sim.expect_z(out_l[i], q) for i in range(7)]
        assert np.max(np.abs(zb - zl)) <= 1e-12


def test_apply_rx_batch_matches_per_sample_runs():
    rng = np.random.default_rng(46)
    states = np.stack([random_state(rng, 3) for _ in range(5)])
    thetas = rng.uniform(-math.pi, math.pi, 5)
    out = sim.apply_rx_batch(states, 1, thetas)
    for i, theta in enumerate(thetas):
        c = Circuit(3, (Op(GateKind.RX, (1,), (float(theta),), True),))
        assert np.max(np.abs(out[i] - sim.run(c, states[i]))) <= 1e-12


def test_apply_1q_and_cnot_kernels_match_embed():
    rng = np.random.default_rng(47)
    from pqc_forge import gates

    for _ in range(20):
        n = int(rng.integers(2, 6))
        v = random_state(rng, n)
        q = int(rng.integers(n))
        u = gates.rx(float(rng.uniform(-math.pi, math.pi)))
        got = sim.apply_1q_batch(v[None, :], u, q)[0]
        want = np.kron(np.eye(1 << q), np.kron(u, np.eye(1 << (n - 1 - q)))) @ v
        assert np.max(np.abs(got - want)) <= 1e-12
        c, t = rng.choice(n, size=2, replace=False)
        got = sim.apply_cnot_batch(v[None, :], int(c), int(t))[0]
        want = embed(GateKind.CNOT, (int(c), int(t)), n) @ v
        assert np.max(np.abs(got - want)) <= 1e-12
