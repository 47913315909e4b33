"""Simulator correctness against the full-unitary oracle."""

import math

import numpy as np
import pytest

from helpers import apply_op, embed, expect_z, full_unitary, random_circuit, zero_state
from pqc_forge import sim
from pqc_forge.circuit import Circuit, Op
from pqc_forge.gates import GateKind


def random_state(rng, n):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def test_empty_circuit_preserves_state():
    assert np.allclose(sim.run(Circuit(3)), zero_state(3))


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
        sim.run(Circuit(2), zero_state(3))


def test_run_rejects_a_state_with_nan():
    state = zero_state(2)
    state[3] = np.nan
    with pytest.raises(ValueError, match="norm drifted"):
        sim.run(Circuit(2, (Op(GateKind.H, (0,)),)), state)


def test_norm_preserved_after_every_gate():
    rng = np.random.default_rng(43)
    c = random_circuit(4, 40, rng)
    state = zero_state(4)
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
    assert expect_z(np.array([1, 0], dtype=complex), 0) == 1.0
    assert expect_z(np.array([0, 1], dtype=complex), 0) == -1.0


def test_expect_z_hadamard_is_zero():
    out = sim.run(Circuit(1, (Op(GateKind.H, (0,)),)))
    assert abs(expect_z(out, 0)) <= 1e-12


def test_expect_z_rx_analytic():
    for theta in np.linspace(0, 2 * math.pi, 17):
        c = Circuit(1, (Op(GateKind.RX, (0,), (float(theta),), True),))
        assert abs(expect_z(sim.run(c), 0) - math.cos(theta)) <= 1e-12


def test_expect_z_targets_named_qubit():
    # X on qubit 2 of three flips only that wire's expectation
    c = Circuit(3, (Op(GateKind.X, (2,)),))
    out = sim.run(c)
    assert expect_z(out, 0) == 1.0
    assert expect_z(out, 1) == 1.0
    assert expect_z(out, 2) == -1.0


def test_expect_z_index_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        expect_z(zero_state(2), 2)


def test_batch_matches_loop():
    rng = np.random.default_rng(45)
    c = random_circuit(4, 25, rng)
    states = np.stack([random_state(rng, 4) for _ in range(7)])
    out_b = sim.run_batch(c, states)
    out_l = np.stack([sim.run(c, states[i]) for i in range(7)])
    assert np.max(np.abs(out_b - out_l)) <= 1e-12
    for q in range(4):
        zb = sim.expect_z_batch(out_b, q)
        zl = [expect_z(out_l[i], q) for i in range(7)]
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


def test_fused_cnot_runs_equal_op_by_op():
    # cnot runs of length 1-12 between 1q ops, with repeated and reversed pairs
    rng = np.random.default_rng(48)
    for n in range(2, 8):
        ops = []
        for _ in range(6):
            ops.append(Op(GateKind.RY, (int(rng.integers(n)),), (float(rng.uniform(-3, 3)),)))
            length, run = int(rng.integers(1, 13)), []
            while len(run) < length:
                c, t = (int(q) for q in rng.choice(n, size=2, replace=False))
                run += [(c, t)] if rng.random() < 0.5 else [(c, t), (c, t), (t, c)]
            ops += [Op(GateKind.CNOT, pair) for pair in run[:length]]
        c = Circuit(n, tuple(ops))
        states = np.stack([random_state(rng, n) for _ in range(3)])
        want = states
        for op in c.ops:
            want = np.stack([apply_op(row, op, n) for row in want])
        assert np.array_equal(sim.run_batch(c, states), want)


def test_cnot_runs_move_amplitudes_exactly():
    # a permutation matrix times a state forms each output from one
    # nonzero product, so the dense oracle is exact here
    rng = np.random.default_rng(49)
    for n in range(2, 7):
        pairs = [tuple(int(q) for q in rng.choice(n, size=2, replace=False)) for _ in range(12)]
        for length in (1, 2, 5, 12):
            c = Circuit(n, tuple(Op(GateKind.CNOT, p) for p in pairs[:length]))
            v = random_state(rng, n)
            assert np.array_equal(sim.run_batch(c, v[None, :])[0], full_unitary(c) @ v)
        a, b = pairs[0]
        back_and_forth = Circuit(n, tuple(Op(GateKind.CNOT, p) for p in [(a, b), (b, a), (b, a), (a, b)]))
        assert np.array_equal(sim.run_batch(back_and_forth, v[None, :])[0], v)


@pytest.mark.parametrize("pauli", [GateKind.X, GateKind.Y, GateKind.Z])
def test_pauli_products_equal_the_matrix_kernel(pauli):
    from pqc_forge import gates

    rng = np.random.default_rng(50)
    for n in range(1, 11):
        states = np.stack([random_state(rng, n) for _ in range(3)])
        states[0, :: 3] = 0.0  # exact zeros take part too
        for q in range(n):
            got = sim.apply_pauli_batch(states, pauli, q)
            assert np.array_equal(got, sim.apply_1q_batch(states, gates.unitary(pauli), q))
    assert got is not states and got.flags.c_contiguous


def test_pauli_products_reject_other_gates():
    with pytest.raises(ValueError, match="not a Pauli"):
        sim.apply_pauli_batch(zero_state(2)[None, :], GateKind.H, 0)


def test_close_pairs_use_the_kron_product_exactly():
    from pqc_forge import gates

    rng = np.random.default_rng(51)
    n = 6
    states = np.stack([random_state(rng, n) for _ in range(4)])
    for q in (2, 3, 4):  # pairs 8, 4 and 2 amplitudes apart
        post = 1 << (n - 1 - q)
        for _ in range(100):
            u = gates.rx(float(rng.uniform(-4, 4))) @ gates.unitary(GateKind.SX)
            want = (states.reshape(-1, 2 * post) @ np.kron(u, np.eye(post)).T).reshape(4, -1)
            assert np.array_equal(sim.apply_1q_batch(states, u, q), want)


def test_one_kernel_keeps_every_layout_bit_for_bit():
    # each pair distance against the layout that applied it before the
    # kernels were merged: flat (·, 2) @ uᵀ at 1, u ⊗ I at 2-8, broadcast
    # matmul from 16 up
    rng = np.random.default_rng(52)
    for n in range(1, 11):
        rows = int(rng.integers(1, 17))
        states = np.stack([random_state(rng, n) for _ in range(rows)])
        for q in range(n):
            u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            post = 1 << (n - 1 - q)
            if post == 1:
                want = states.reshape(-1, 2) @ u.T
            elif post <= 8:
                want = states.reshape(-1, 2 * post) @ np.kron(u, np.eye(post)).T
            else:
                want = np.matmul(u, states.reshape(-1, 2, post))
            assert np.array_equal(sim.apply_1q_batch(states, u, q), want.reshape(rows, -1))
