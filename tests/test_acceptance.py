"""Acceptance criteria, one test per criterion, numbers printed per clause.

The training-heavy fixtures (five 50-epoch Iris runs, one SEL run) are
module-scoped and shared between criteria 4 and 5; expect a few minutes.
Every random quantity runs from fixed seeds, so the suite is
deterministic end to end.
"""

import math

import numpy as np
import pytest

from helpers import apply_op, decompose, full_unitary, random_1q_target, random_circuit
from pqc_forge import gates, qnn
from pqc_forge.circuit import Circuit, Op, metrics
from pqc_forge.gates import ALPHABET, GateKind
from pqc_forge.greedy import GreedyParams, exhaustive_oracle, param_gate_transform
from pqc_forge.matrix import DistanceMetric, distance
from pqc_forge.optimizer import OptimizeConfig, optimize, sweep
from pqc_forge.qnn.training import get_params, logits_batch, loss_and_gradient, set_params

BEL = qnn.LayerKind.BASIC_ENTANGLER
SEL = qnn.LayerKind.STRONGLY_ENTANGLING
TOLERANCE = 0.05
RETRAIN_EPOCHS = 20
PIPELINE_SEEDS = range(5)


@pytest.fixture(scope="module")
def iris():
    return qnn.load_dataset("iris", seed=0)


@pytest.fixture(scope="module")
def iris_pipeline(iris):
    """Train BEL(5, 8) per seed, optimize at 0.05, retrain 20 epochs."""
    rows = []
    models = {}
    for seed in PIPELINE_SEEDS:
        model = qnn.build_model(qnn.LayerSpec(BEL, 5, 8), iris, seed=seed)
        model, _ = qnn.train(model, iris, qnn.TrainConfig(epochs=50, seed=seed))
        models[seed] = model
        pre_acc = qnn.accuracy(model, iris.test_x, iris.test_y)
        optimized, report = optimize(
            model.ansatz,
            OptimizeConfig(tolerance=TOLERANCE, greedy=GreedyParams(seed=seed)),
        )
        optimized_model = model.with_ansatz(optimized)
        test_logits = logits_batch(optimized_model, iris.test_x)
        retrained, _ = qnn.retrain(
            optimized_model,
            iris,
            qnn.TrainConfig(epochs=RETRAIN_EPOCHS, seed=seed),
        )
        rows.append(
            {
                "seed": seed,
                "pre_acc": pre_acc,
                "opt_acc": qnn.accuracy(optimized_model, iris.test_x, iris.test_y),
                "survivors": report.after.remaining_parameters,
                "constant_logits": int(np.sum(np.ptp(test_logits, axis=0) <= 1e-12)),
                "post_acc": qnn.accuracy(retrained, iris.test_x, iris.test_y),
                "gate_reduction": 1
                - report.after.decomposed_gate_count / report.before.decomposed_gate_count,
                "depth_reduction": 1
                - report.after.decomposed_depth / report.before.decomposed_depth,
            }
        )
    return rows, models


@pytest.fixture(scope="module")
def trained_sel(iris):
    model = qnn.build_model(qnn.LayerSpec(SEL, 5, 8), iris, seed=0)
    model, _ = qnn.train(model, iris, qnn.TrainConfig(epochs=50, seed=0))
    return model


def test_criterion_1_baseline_structure():
    cases = [
        ("BEL(5,8)", qnn.LayerSpec(BEL, 5, 8), 240, (64, 68)),
        ("BEL(5,10)", qnn.LayerSpec(BEL, 5, 10), 300, (74, 78)),
        ("SEL(5,8)", qnn.LayerSpec(SEL, 5, 8), 240, (44, 48)),
        ("SEL(5,10)", qnn.LayerSpec(SEL, 5, 10), 300, (47, 51)),
    ]
    for name, spec, gates_expected, band in cases:
        m = metrics(qnn.build_ansatz(spec, seed=0))
        print(
            f"[criterion 1] {name}: gates {m.decomposed_gate_count} "
            f"(want {gates_expected}), depth {m.decomposed_depth} (band {band})"
        )
        assert m.decomposed_gate_count == gates_expected
        assert band[0] <= m.decomposed_depth <= band[1]
    print("[criterion 1] PASS")


def test_criterion_2_greedy_quarter_turn_exactness():
    bound = 1 - math.cos(math.pi / 8)
    for k in range(9):
        theta = k * math.pi / 4
        target = gates.rx(theta)
        best = min(
            param_gate_transform(target, GreedyParams(seed=s)).final_dist
            for s in range(10)
        )
        _, oracle_dist = exhaustive_oracle(target, max_len=4)
        want = 1e-9 if k % 2 == 0 else bound + 1e-9
        print(
            f"[criterion 2] theta={k}π/4: greedy best {best:.3e} (≤ {want:.3e}), "
            f"oracle(4) {oracle_dist:.3e}"
        )
        assert best <= want
        assert oracle_dist <= 1e-9
    print("[criterion 2] PASS")


def test_criterion_3_oracle_dominance():
    rng = np.random.default_rng(123)
    beat_comparable = 0
    beat_len4 = 0
    for i in range(200):
        target = random_1q_target(rng)
        result = param_gate_transform(target, GreedyParams(seed=i))
        again = param_gate_transform(target, GreedyParams(seed=i))
        assert result == again  # deterministic per seed
        _, oracle3 = exhaustive_oracle(target, max_len=3)
        _, oracle4 = exhaustive_oracle(target, max_len=4)
        if len(result.sequence) <= 3 and result.final_dist < oracle3 - 1e-12:
            beat_comparable += 1
        if result.final_dist < oracle4 - 1e-12:
            beat_len4 += 1
    print(
        f"[criterion 3] 200 targets: comparable-length oracle(3) violations "
        f"{beat_comparable}, oracle(min(N,4)) violations {beat_len4}"
    )
    # brute force dominates the greedy search at comparable length; longer
    # greedy words may legitimately beat the capped oracle, which is why the
    # length-3 comparison is restricted to sequences the cap covers
    assert beat_comparable == 0
    assert beat_len4 == 0
    print("[criterion 3] PASS")


def test_criterion_4_iris_pipeline(iris_pipeline):
    rows, _ = iris_pipeline
    pre = float(np.median([r["pre_acc"] for r in rows]))
    post = float(np.median([r["post_acc"] for r in rows]))
    gate_red = float(np.median([r["gate_reduction"] for r in rows]))
    depth_red = float(np.median([r["depth_reduction"] for r in rows]))
    for r in rows:
        print(
            f"[criterion 4] seed {r['seed']}: pre {r['pre_acc']:.3f} "
            f"optimized {r['opt_acc']:.3f} ({r['survivors']} parameters left, "
            f"{r['constant_logits']} constant test logits) "
            f"retrained {r['post_acc']:.3f} gates -{r['gate_reduction']:.1%} "
            f"depth -{r['depth_reduction']:.1%}"
        )
    print(
        f"[criterion 4] medians: pre-accuracy {pre:.3f} (≥ 0.85), "
        f"gate reduction {gate_red:.1%} (≥ 35%), depth reduction {depth_red:.1%} (≥ 5%), "
        f"retrained {post:.3f} (≥ pre - 0.10 = {pre - 0.10:.3f})"
    )
    assert pre >= 0.85
    assert gate_red >= 0.35
    assert depth_red >= 0.05
    assert post >= pre - 0.10
    print("[criterion 4] PASS")


def test_criterion_5_tolerance_sweep_shape(iris_pipeline, trained_sel):
    _, models = iris_pipeline
    tolerances = [0.001, 0.01, 0.05, 0.1]
    for name, circuit in (
        ("BEL", models[0].ansatz),
        ("SEL", trained_sel.ansatz),
    ):
        rows = sweep(
            circuit,
            tolerances,
            OptimizeConfig(tolerance=0.1, greedy=GreedyParams(seed=0)),
        )
        gates_col = [r["gate_count"] for r in rows]
        params_col = [r["remaining_parameters"] for r in rows]
        print(f"[criterion 5] {name}: gates {gates_col}, params {params_col}")
        assert gates_col == sorted(gates_col, reverse=True)
        assert params_col == sorted(params_col, reverse=True)
        if name == "BEL":
            assert params_col[-1] == 0  # tolerance 0.1 strips every parameter
    print("[criterion 5] PASS")


def test_criterion_6_numeric_property_suites(iris):
    # unitarity: catalog, decompositions, random products, embeddings
    worst = 0.0
    for kind in ALPHABET:
        u = gates.unitary(kind)
        worst = max(worst, np.max(np.abs(u.conj().T @ u - np.eye(2))))
    rng = np.random.default_rng(60)
    for _ in range(50):
        c = random_circuit(4, 20, rng)
        for op in decompose(c).ops:
            if op.kind is GateKind.CNOT:
                continue
            u = gates.unitary(op.kind, op.angles)
            worst = max(worst, np.max(np.abs(u.conj().T @ u - np.eye(2))))
        u = full_unitary(c)
        worst = max(worst, np.max(np.abs(u.conj().T @ u - np.eye(16))))
    print(f"[criterion 6] worst off-unitarity {worst:.2e} (≤ 1e-12)")
    assert worst <= 1e-12

    # simulator against the dense-matrix oracle, plus norm preservation
    worst_sim, worst_norm = 0.0, 0.0
    for _ in range(20):
        c = random_circuit(5, 30, rng)
        v = rng.normal(size=32) + 1j * rng.normal(size=32)
        v /= np.linalg.norm(v)
        state = v
        for op in c.ops:
            state = apply_op(state, op, 5)
            worst_norm = max(worst_norm, abs(np.linalg.norm(state) - 1.0))
        worst_sim = max(worst_sim, np.max(np.abs(state - full_unitary(c) @ v)))
    print(f"[criterion 6] sim vs oracle {worst_sim:.2e} (≤ 1e-10), norm drift {worst_norm:.2e}")
    assert worst_sim <= 1e-10
    assert worst_norm <= 1e-10

    # parameter-shift gradient against central finite differences
    model = qnn.build_model(qnn.LayerSpec(SEL, 1, 4), iris, seed=3)
    x, y = iris.train_x[:6], iris.train_y[:6]
    _, grad = loss_and_gradient(model, x, y)
    p0 = get_params(model.ansatz)
    h = 1e-4
    fd = np.array(
        [
            (
                loss_and_gradient(model.with_ansatz(set_params(model.ansatz, p0 + h * e)), x, y)[0]
                - loss_and_gradient(model.with_ansatz(set_params(model.ansatz, p0 - h * e)), x, y)[0]
            )
            / (2 * h)
            for e in np.eye(len(p0))
        ]
    )
    worst_grad = float(np.max(np.abs(grad - fd)))
    print(f"[criterion 6] parameter-shift vs finite differences {worst_grad:.2e} (≤ 1e-4)")
    assert worst_grad <= 1e-4

    # global-phase invariance of the default metric
    worst_phase = 0.0
    u, v = random_1q_target(rng), random_1q_target(rng)
    base = distance(u, v)
    for alpha in np.linspace(0, 2 * math.pi, 24):
        worst_phase = max(worst_phase, abs(distance(np.exp(1j * alpha) * u, v) - base))
    print(f"[criterion 6] phase invariance {worst_phase:.2e} (≤ 1e-12)")
    assert worst_phase <= 1e-12
    print("[criterion 6] PASS")


def test_criterion_7_optimizer_soundness():
    rng = np.random.default_rng(70)
    checked = 0
    for _ in range(10):
        c = random_circuit(4, 30, rng)
        cfg = OptimizeConfig(tolerance=0.08, greedy=GreedyParams(seed=1))
        out, report = optimize(c, cfg)
        expected_factors = sum(
            3 if op.kind is GateKind.R3 else 1
            for op in c.ops
            if op.kind in (GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.R3)
        )
        assert report.transform_calls == expected_factors
        cnots_before = [op.qubits for op in c.ops if op.kind is GateKind.CNOT]
        cnots_after = [op.qubits for op in out.ops if op.kind is GateKind.CNOT]
        assert cnots_before == cnots_after
        for entry in report.ledger:
            if entry.replaced:
                assert entry.distance <= cfg.tolerance
                checked += 1
    print(f"[criterion 7] {checked} replacements sound; call counts exact; cnots preserved")
    print("[criterion 7] PASS")
