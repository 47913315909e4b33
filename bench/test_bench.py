"""Tests of the benchmark's reference, checks and tracer.

Run with ``python3 -m pytest bench`` from the repository root. Every
check is shown to pass on a real output and to fail on a corrupted one.
"""

import dataclasses
import math

import numpy as np
import pytest

import checks
import layers
import reference as ref
from checks import CheckError, Pass
from pqc_forge import qnn, sim
from pqc_forge.circuit import Circuit, Op
from pqc_forge.gates import GateKind
from pqc_forge.greedy import GreedyParams
from pqc_forge.optimizer import OptimizeConfig, OptimizeMode, optimize
from pqc_forge.qnn import training
from tracer import Tracer

FAST = GreedyParams(seed=3, restarts=2, iterations=10)
SEL = qnn.LayerKind.STRONGLY_ENTANGLING
BEL = qnn.LayerKind.BASIC_ENTANGLER


def close(a, b, atol=1e-12):
    return np.allclose(a, b, atol=atol, rtol=0)


# --- reference: closed forms -------------------------------------------------


def test_rotations_closed_forms():
    assert close(ref.gate("rx", (math.pi,)), -1j * ref.PAULI["x"])
    assert close(ref.gate("ry", (math.pi,)), -1j * ref.PAULI["y"])
    assert close(ref.gate("rz", (math.pi,)), -1j * ref.PAULI["z"])
    assert close(ref.gate("rx", (0.0,)), ref.I2)
    phi, theta, omega = 0.3, -1.1, 2.5
    r = ref.gate("r", (phi, theta, omega))
    assert close(r, ref.gate("rz", (omega,)) @ ref.gate("ry", (theta,)) @ ref.gate("rz", (phi,)))
    assert close(ref.gate("r", (0.0, theta, 0.0)), ref.gate("ry", (theta,)))


def test_fixed_gate_identities():
    g = ref.FIXED
    assert close(g["h"] @ g["h"], ref.I2)
    assert close(g["s"] @ g["s"], g["z"])
    assert close(g["t"] @ g["t"], g["s"])
    assert close(g["sx"] @ g["sx"], g["x"])
    assert close(g["sxdg"] @ g["sx"], ref.I2)
    assert close(g["sdg"] @ g["s"], ref.I2)
    assert close(g["tdg"] @ g["t"], ref.I2)
    for u in g.values():
        assert close(u.conj().T @ u, ref.I2)


def test_expect_z_of_rx_is_cos():
    for theta in np.linspace(-3, 3, 7):
        psi = ref.run([("rx", (0,), (theta,))], ref.zero_states(1, 1))
        assert math.isclose(ref.expect_z(psi, 0)[0], math.cos(theta), abs_tol=1e-12)
        enc = ref.encode(np.array([[theta]]), 1)
        assert close(enc, psi)


def test_distance_is_phase_blind():
    u = ref.gate("r", (0.2, 0.7, -0.4))
    assert ref.distance(u, np.exp(0.9j) * u) == pytest.approx(0.0, abs=1e-15)
    assert ref.distance(ref.I2, ref.PAULI["x"]) == pytest.approx(1.0)
    assert ref.distance(ref.gate("rz", (math.pi / 4,)), ref.FIXED["t"]) == pytest.approx(0.0, abs=1e-15)


def test_cnot_flips_target_when_control_set():
    # |q0 q1⟩ = |10⟩ has index 2 with qubit 0 the top bit; cnot(0, 1) → |11⟩
    psi = np.zeros((1, 2, 2), dtype=complex)
    psi[0, 1, 0] = 1
    assert ref.apply_cnot(psi, 0, 1)[0, 1, 1] == 1
    assert ref.apply_cnot(psi, 1, 0)[0, 1, 0] == 1


def _kron_unitary(ops, n):
    """Full 2ⁿ×2ⁿ matrix by Kronecker products and projectors."""
    u = np.eye(1 << n, dtype=complex)
    p0, p1 = np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)
    for name, qubits, angles in ops:
        if name == "cnot":
            c, t = qubits
            a = [p0 if q == c else ref.I2 for q in range(n)]
            b = [p1 if q == c else ref.PAULI["x"] if q == t else ref.I2 for q in range(n)]
            g = _kron(a) + _kron(b)
        else:
            g = _kron([ref.gate(name, angles) if q == qubits[0] else ref.I2 for q in range(n)])
        u = g @ u
    return u


def _kron(ms):
    out = np.eye(1, dtype=complex)
    for m in ms:
        out = np.kron(out, m)
    return out


def _random_ops(rng, n, count):
    ops = []
    for _ in range(count):
        kind = rng.choice(["cnot", "rx", "ry", "rz", "r", "h", "sx", "t", "y"])
        if kind == "cnot":
            c, t = rng.choice(n, 2, replace=False)
            ops.append(("cnot", (int(c), int(t)), ()))
        else:
            angles = tuple(rng.uniform(-3, 3, 3 if kind == "r" else 1)) if kind in ("rx", "ry", "rz", "r") else ()
            ops.append((str(kind), (int(rng.integers(n)),), angles))
    return ops


def test_reference_simulator_matches_kronecker_products():
    rng = np.random.default_rng(5)
    for _ in range(5):
        ops = _random_ops(rng, 3, 25)
        psi = ref.run(ops, ref.zero_states(1, 3)).reshape(-1)
        assert close(psi, _kron_unitary(ops, 3)[:, 0])


def test_program_agrees_with_reference():
    rng = np.random.default_rng(6)
    ops = _random_ops(rng, 4, 30)
    c = Circuit(4, tuple(Op(GateKind(n), q, a) for n, q, a in ops))
    assert close(sim.run(c), ref.run(ref.plain_ops(c), ref.zero_states(1, 4)).reshape(-1))


def test_basis_counts_match_acceptance_baselines():
    for kind, n, gates, depth in ((BEL, 8, 240, 68), (SEL, 8, 240, 44), (SEL, 10, 300, 47)):
        m = qnn.build_ansatz(qnn.LayerSpec(kind, 5, n), seed=0)
        got_gates, got_depth = ref.basis_counts(m)
        assert got_gates == gates
        assert depth - 4 <= got_depth <= depth + 4


# --- checks on optimize passes ------------------------------------------------


@pytest.fixture(scope="module")
def sel_passes():
    c = qnn.build_ansatz(qnn.LayerSpec(SEL, 2, 3), seed=1)
    out = {}
    for mode in OptimizeMode:
        for tol in (0.02, 0.2):
            cfg = OptimizeConfig(tol, FAST, mode)
            out[mode, tol] = Pass(c, cfg, *optimize(c, cfg))
    return out


@pytest.fixture(scope="module")
def bel_pass():
    c = qnn.build_ansatz(qnn.LayerSpec(BEL, 2, 3), seed=4)
    cfg = OptimizeConfig(0.05, FAST)
    return Pass(c, cfg, *optimize(c, cfg))


def test_sound_pass_is_accepted(bel_pass):
    assert bel_pass.report.replaced_count > 0
    assert checks.check_pass(bel_pass) is True


def test_r_gate_split_fault_is_reported():
    # nothing is replaced, yet both r ops come back as three factors each
    c = qnn.build_ansatz(qnn.LayerSpec(SEL, 1, 2), seed=0)
    cfg = OptimizeConfig(1e-9, FAST)
    p = Pass(c, cfg, *optimize(c, cfg))
    assert p.report.replaced_count == 0
    assert checks.check_pass(p) is False
    assert checks.split_kept(p) == 2
    assert (len(c.ops), len(p.output.ops)) == (4, 8)
    assert ref.basis_counts(c) == (12, 7)
    assert ref.basis_counts(p.output) == (16, 9)


def _with_output(p, ops):
    return dataclasses.replace(p, output=p.output.with_ops(ops))


def _with_entry(p, i, **changes):
    ledger = list(p.report.ledger)
    ledger[i] = dataclasses.replace(ledger[i], **changes)
    return dataclasses.replace(p, report=dataclasses.replace(p.report, ledger=ledger))


def test_altered_kept_op_is_caught(bel_pass):
    ops = list(bel_pass.output.ops)
    i = next(i for i, op in enumerate(ops) if op.trainable)
    ops[i] = dataclasses.replace(ops[i], angles=(ops[i].angles[0] + 1e-3,))
    with pytest.raises(CheckError, match="spliced"):
        checks.check_pass(_with_output(bel_pass, ops))


def test_wrong_word_in_output_is_caught(bel_pass):
    ops = list(bel_pass.output.ops)
    i = next(i for i, op in enumerate(ops) if op.kind is not GateKind.CNOT and not op.angles)
    ops[i] = Op(GateKind.Z if ops[i].kind is not GateKind.Z else GateKind.X, ops[i].qubits)
    with pytest.raises(CheckError, match="spliced"):
        checks.check_pass(_with_output(bel_pass, ops))


def test_reordered_cnots_are_caught(bel_pass):
    ops = list(bel_pass.output.ops)
    cn = [i for i, op in enumerate(ops) if op.kind is GateKind.CNOT]
    ops[cn[0]], ops[cn[1]] = ops[cn[1]], ops[cn[0]]
    with pytest.raises(CheckError, match="cnots"):
        checks.check_pass(_with_output(bel_pass, ops))


def test_perturbed_ledger_distance_is_caught(bel_pass):
    i = next(i for i, e in enumerate(bel_pass.report.ledger) if e.replaced)
    bad = _with_entry(bel_pass, i, distance=bel_pass.report.ledger[i].distance + 1e-6)
    with pytest.raises(CheckError, match="ledger distance"):
        checks.check_pass(bad)


def test_flipped_decision_is_caught(bel_pass):
    i = next(i for i, e in enumerate(bel_pass.report.ledger) if e.replaced)
    with pytest.raises(CheckError, match="replaced=False"):
        checks.check_pass(_with_entry(bel_pass, i, replaced=False))


def test_wrong_report_metrics_are_caught(bel_pass):
    after = dataclasses.replace(
        bel_pass.report.after, decomposed_depth=bel_pass.report.after.decomposed_depth - 1
    )
    bad = dataclasses.replace(bel_pass, report=dataclasses.replace(bel_pass.report, after=after))
    with pytest.raises(CheckError, match="report metrics"):
        checks.check_pass(bad)


def test_both_modes_pass_the_splice_check(sel_passes):
    for p in sel_passes.values():
        checks.check_ledger(p)
        assert checks.check_pass(p) in (True, False)


def test_nested_replacements(sel_passes):
    for mode in OptimizeMode:
        low, high = sel_passes[mode, 0.02], sel_passes[mode, 0.2]
        checks.check_nested([high, low])
        assert high.report.replaced_count > low.report.replaced_count
        swapped = [
            dataclasses.replace(low, report=high.report),
            dataclasses.replace(high, report=low.report),
        ]
        with pytest.raises(CheckError, match="drops entries"):
            checks.check_nested(swapped)


def test_longer_words_counts_costlier_replacements():
    c = Circuit(1, (Op(GateKind.RZ, (0,), (math.pi,), True),))
    cfg = OptimizeConfig(0.1, GreedyParams(seed=0))
    p = Pass(c, cfg, *optimize(c, cfg))
    assert checks.longer_words(p) == 0
    longer = _with_entry(p, 0, replacement=("h", "x", "h"))  # h·x·h = z, cost 7 > 1
    assert checks.longer_words(longer) == 1


# --- checks on models -----------------------------------------------------


@pytest.fixture(scope="module")
def small_model():
    data = qnn.load_dataset("iris", seed=2)
    model = qnn.build_model(qnn.LayerSpec(SEL, 1, 4), data, seed=2)
    model = model.with_readout(np.array([1.5, 0.7, 1.1]), np.array([0.1, -0.2, 0.05]))
    return data, model


def test_logits_match_and_shifted_logit_is_caught(small_model):
    data, model = small_model
    want = checks.reference_logits(model, data.test_x)
    got = training.logits_batch(model, data.test_x)
    checks.check_logits(got, want)
    got = got.copy()
    got[3, 1] += 1e-6
    with pytest.raises(CheckError, match="logits"):
        checks.check_logits(got, want)


def test_accuracy_recomputed_from_logits(small_model):
    data, model = small_model
    want = checks.reference_logits(model, data.test_x)
    acc = qnn.accuracy(model, data.test_x, data.test_y)
    assert checks.check_accuracy(acc, want, data.test_y) == pytest.approx(acc)
    with pytest.raises(CheckError, match="accuracy"):
        checks.check_accuracy(acc + 1 / len(data.test_y), want, data.test_y)


def test_gradient_against_finite_differences(small_model):
    data, model = small_model
    x, y = data.train_x[:8], data.train_y[:8]
    loss, grad = training.loss_and_gradient(model, x, y)
    checks.check_gradient(model, x, y, loss, grad)
    bad = grad.copy()
    bad[5] += 1e-5
    with pytest.raises(CheckError, match="finite differences"):
        checks.check_gradient(model, x, y, loss, bad)
    with pytest.raises(CheckError, match="loss"):
        checks.check_gradient(model, x, y, loss + 1e-6, grad)


def test_direction_bands():
    before = dataclasses.make_dataclass("M", ["decomposed_gate_count", "decomposed_depth"])
    checks.check_direction(before(240, 68), before(120, 53))
    with pytest.raises(CheckError, match="gates"):
        checks.check_direction(before(240, 68), before(170, 53))
    with pytest.raises(CheckError, match="depth"):
        checks.check_direction(before(240, 68), before(120, 66))


# --- tracer -------------------------------------------------------------------


class _Toy:
    @staticmethod
    def outer(n):
        return sum(_Toy.inner(i) for i in range(n))

    @staticmethod
    def inner(i):
        return i


def test_tracer_spans_counters_and_uninstall():
    outer, inner = _Toy.outer, _Toy.inner
    tr = Tracer()
    tr.round = 7
    tr.span(_Toy, "outer", "toy.outer")
    tr.counter(_Toy, "inner", "toy.inner", work=lambda args: args[0])
    assert _Toy.outer(5) == 10
    tr.uninstall()
    assert (_Toy.outer, _Toy.inner) == (outer, inner)
    (span,) = tr.spans
    assert span[0] == "toy.outer" and span[3] == -1 and span[4] == 7
    assert tr.counters["toy.inner.calls"] == 5
    assert tr.counters["toy.inner.work"] == 10
    total = span[2] - span[1]
    assert tr.self_seconds("toy.outer") == pytest.approx(total - tr.counters["toy.inner.seconds"])


def test_layers_install_restores_every_site():
    from pqc_forge import greedy, optimizer

    sites = [(qnn, "train"), (training, "_loss_and_gradients"), (sim, "apply_1q_batch"),
             (optimizer, "param_gate_transform"), (greedy, "distance"), (optimizer, "metrics")]
    before = [getattr(o, a) for o, a in sites]
    tr = Tracer()
    layers.install(tr)
    assert all(getattr(o, a) is not f for (o, a), f in zip(sites, before))
    tr.uninstall()
    assert [getattr(o, a) for o, a in sites] == before
