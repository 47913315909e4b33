"""Datasets, model structure, gradients, and the training loop."""

import csv
import hashlib
import json
import math
import re
import warnings
from importlib import resources

import numpy as np
import pytest

from helpers import encoding_ops
from pqc_forge import qnn, sim
from pqc_forge.circuit import Circuit, Op, metrics
from pqc_forge.gates import GateKind
from pqc_forge.greedy import GreedyParams
from pqc_forge.optimizer import OptimizeConfig, optimize
from pqc_forge.qnn import training
from pqc_forge.qnn.training import (
    _loss_and_gradients,
    encode_batch,
    get_params,
    logits_batch,
    loss_and_gradient,
    set_params,
    softmax,
    trainable_slots,
)

BEL = qnn.LayerKind.BASIC_ENTANGLER
SEL = qnn.LayerKind.STRONGLY_ENTANGLING


@pytest.fixture(scope="module")
def iris():
    return qnn.load_dataset("iris", seed=0)


def write_digits_csv(path, rng=None, n_rows=80):
    """Synthetic digits-style CSV: 64 pixel columns + label, digits 0-3."""
    rng = rng or np.random.default_rng(0)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"pixel{i}" for i in range(64)] + ["label"])
        for i in range(n_rows):
            label = i % 4
            base = np.zeros((8, 8))
            if label == 0:
                base[2:6, 2:6] = 12  # blob
            elif label == 1:
                base[:, 3:5] = 14  # bar
            img = np.clip(base + rng.normal(0, 1.5, (8, 8)), 0, 16)
            w.writerow([f"{v:.3f}" for v in img.reshape(-1)] + [label])


def test_iris_shape_and_split(iris):
    assert iris.features.shape == (150, 4)
    assert iris.n_classes == 3
    assert iris.class_names == ("setosa", "versicolor", "virginica")
    assert len(iris.train_idx) == 120
    assert len(iris.test_idx) == 30
    assert not set(iris.train_idx) & set(iris.test_idx)
    assert len(set(iris.train_idx) | set(iris.test_idx)) == 150
    # stratified: 10 test samples per class
    assert all(np.sum(iris.labels[iris.test_idx] == c) == 10 for c in range(3))


def test_iris_scaling_bounds(iris):
    assert iris.features.min() >= 0.0
    assert iris.features.max() <= math.pi
    train_feats = iris.features[iris.train_idx]
    assert np.allclose(train_feats.min(axis=0), 0.0)
    assert np.allclose(train_feats.max(axis=0), math.pi)


def test_split_deterministic_per_seed():
    a = qnn.load_dataset("iris", seed=5)
    b = qnn.load_dataset("iris", seed=5)
    c = qnn.load_dataset("iris", seed=6)
    assert np.array_equal(a.train_idx, b.train_idx)
    assert not np.array_equal(a.train_idx, c.train_idx)


def test_digits_loading(tmp_path):
    path = tmp_path / "digits.csv"
    write_digits_csv(path)
    ds = qnn.load_dataset("digits01", path=path, seed=0)
    assert ds.n_classes == 2
    assert set(np.unique(ds.labels)) == {0, 1}
    assert ds.features.shape[1] == 10
    assert ds.features.min() >= 0.0 and ds.features.max() <= math.pi


def test_digits_pooling_matches_manual():
    # a single deterministic image: pixel value = row index
    img = np.repeat(np.arange(8.0), 8).reshape(8, 8)
    from pqc_forge.qnn.data import _pool_digits

    pooled = _pool_digits(img.reshape(1, 64))[0]
    manual = img.reshape(4, 2, 4, 2).mean(axis=(1, 3)).reshape(-1)[:10]
    assert np.allclose(pooled, manual)


def test_a_class_with_one_row_is_an_error(tmp_path):
    path = tmp_path / "tiny.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([[0.0] * 64 + [0], [1.0] * 64 + [1], [2.0] * 64 + [1]])
    with pytest.raises(ValueError, match="class '0' has 1 row"):
        qnn.load_dataset("digits01", path=path)
    # two rows per class split into one train and one test row each
    with open(path, "a", newline="") as fh:
        csv.writer(fh).writerow([3.0] * 64 + [0])
    ds = qnn.load_dataset("digits01", path=path)
    assert len(ds.train_idx) == len(ds.test_idx) == 2


def test_dataset_errors(tmp_path):
    with pytest.raises(ValueError, match="path"):
        qnn.load_dataset("digits01")
    with pytest.raises(ValueError, match="unknown dataset"):
        qnn.load_dataset("mnist")
    with pytest.raises(FileNotFoundError):
        qnn.load_dataset("iris", path=tmp_path / "missing.csv")
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c,d,label\n1,2,3,nope,setosa\n")
    with pytest.raises(ValueError, match="row 1"):
        qnn.load_dataset("iris", path=bad)


def test_a_byte_order_mark_keeps_the_first_row(tmp_path):
    with (resources.files("pqc_forge") / "data" / "iris.csv").open() as fh:
        rows = list(csv.reader(fh))[1:]  # no header: the first cell is a number
    path = tmp_path / "bom.csv"
    with path.open("w", newline="", encoding="utf-8-sig") as fh:
        csv.writer(fh).writerows(rows)
    assert path.read_bytes().startswith(b"\xef\xbb\xbf5.1,")
    ds, bundled = qnn.load_dataset("iris", path=path), qnn.load_dataset("iris")
    assert ds.features.shape == (150, 4)
    assert np.array_equal(ds.features, bundled.features)
    assert np.array_equal(ds.labels, bundled.labels)


@pytest.mark.parametrize("label", ["1.5", "inf", "nan"])
def test_a_digits_label_that_is_not_an_integer_is_an_error(tmp_path, label):
    path = tmp_path / "digits.csv"
    write_digits_csv(path)
    lines = path.read_text().splitlines()
    lines[6] = lines[6].rsplit(",", 1)[0] + f",{label}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: digits labels must be integers$"):
        qnn.load_dataset("digits01", path=path)
    # an integral float is still a label
    lines[6] = lines[6].rsplit(",", 1)[0] + ",1.0"
    path.write_text("\n".join(lines) + "\n")
    write_digits_csv(tmp_path / "ints.csv")
    assert np.array_equal(
        qnn.load_dataset("digits01", path=path).labels,
        qnn.load_dataset("digits01", path=tmp_path / "ints.csv").labels,
    )


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_non_finite_value_is_an_error(tmp_path, value):
    with (resources.files("pqc_forge") / "data" / "iris.csv").open() as fh:
        rows = list(csv.reader(fh))
    rows[3][1] = value  # data row 3, under the header
    bad = tmp_path / "bad.csv"
    with bad.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(bad))}: row 3 has a non-finite value$"):
        qnn.load_dataset("iris", path=bad)
    digits = tmp_path / "digits.csv"
    write_digits_csv(digits)
    lines = digits.read_text().splitlines()
    cells = lines[5].split(",")
    cells[17] = value
    lines[5] = ",".join(cells)
    digits.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(digits))}: row 5 has a non-finite value$"):
        qnn.load_dataset("digits01", path=digits)


def test_train_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        qnn.TrainConfig(seed=-1)
    assert qnn.TrainConfig(seed=0).seed == 0


def test_bel_model_structure(iris):
    m = qnn.build_model(qnn.LayerSpec(BEL, 5, 8), iris, seed=0)
    kinds = [op.kind for op in m.ansatz.ops]
    assert kinds.count(GateKind.RX) == 40
    assert kinds.count(GateKind.CNOT) == 40
    assert metrics(m.ansatz).remaining_parameters == 40
    assert m.readout_qubits == (0, 1, 2)


def test_sel_has_three_times_the_parameters(iris):
    bel = qnn.build_model(qnn.LayerSpec(BEL, 5, 8), iris, seed=0)
    sel = qnn.build_model(qnn.LayerSpec(SEL, 5, 8), iris, seed=0)
    assert (
        metrics(sel.ansatz).remaining_parameters
        == 3 * metrics(bel.ansatz).remaining_parameters
        == 120
    )


def test_set_params_fills_trainable_slots_in_order():
    c = Circuit(
        2,
        (
            Op(GateKind.R3, (0,), (0.1, 0.2, 0.3), True),
            Op(GateKind.RX, (1,), (0.4,), False),
            Op(GateKind.CNOT, (0, 1)),
            Op(GateKind.RY, (1,), (0.5,), True),
        ),
    )
    values = np.array([1.0, -1.0, 2.0, 3.0])
    out = set_params(c, values)
    assert np.array_equal(get_params(out), values)
    assert out.ops[1:3] == c.ops[1:3]
    assert [op.trainable for op in out.ops] == [op.trainable for op in c.ops]
    for bad in (values[:3], np.append(values, 0.0)):
        with pytest.raises(ValueError, match=f"expected 4 values, got {len(bad)}"):
            set_params(c, bad)
    with pytest.raises(ValueError, match="outside"):
        set_params(c, np.array([1.0, 13.0, 2.0, 3.0]))


def test_digits_scale_model_counts(iris):
    m = qnn.build_ansatz(qnn.LayerSpec(BEL, 5, 10), seed=0)
    kinds = [op.kind for op in m.ops]
    assert kinds.count(GateKind.RX) == 50
    assert kinds.count(GateKind.CNOT) == 50
    assert metrics(m).decomposed_gate_count == 300


def test_class_count_needs_enough_qubits(iris):
    with pytest.raises(ValueError, match="classes"):
        qnn.build_model(qnn.LayerSpec(BEL, 1, 2), iris, seed=0)


def test_encoding_cycles_features(iris):
    m = qnn.build_model(qnn.LayerSpec(BEL, 1, 8), iris, seed=0)
    x = iris.features[0]
    ops = encoding_ops(x, 8, 4)
    assert [op.angles[0] for op in ops] == [float(x[q % 4]) for q in range(8)]
    assert all(not op.trainable for op in ops)
    # batched encoding equals the explicit encoding circuit
    enc = encode_batch(m, x[None, :])
    from pqc_forge import sim

    ref = sim.run(Circuit(8, tuple(ops)))
    assert np.max(np.abs(enc[0] - ref)) <= 1e-12


def test_product_state_encoding_equals_the_rx_chain(iris):
    rng = np.random.default_rng(9)
    special = np.array([[0.0, math.pi, -math.pi, 1e-300], [math.pi / 2, 0.0, 2.0, -0.0]])
    x = np.concatenate([iris.train_x[:8], rng.uniform(-4, 4, (4, 4)), special])
    for n in range(3, 11):
        m = qnn.build_model(qnn.LayerSpec(BEL, 1, n), iris, seed=0)
        chain = np.zeros((len(x), 1 << n), dtype=complex)
        chain[:, 0] = 1.0
        for q in range(n):
            chain = sim.apply_rx_batch(chain, q, x[:, q % 4])
        assert np.array_equal(encode_batch(m, x), chain)


def test_forward_identity_ansatz_symmetric(iris):
    m = qnn.Model(
        ansatz=Circuit(2),
        n_classes=2,
        feature_count=4,
        layer_kind="bel",
        layers=0,
        lo=iris.lo,
        hi=iris.hi,
        dataset_name="iris",
        seed=0,
    )
    logits = logits_batch(m, np.zeros((1, 4)))[0]
    probs = softmax(logits)
    assert np.allclose(logits, [1.0, 1.0])
    assert np.allclose(probs, [0.5, 0.5])


def test_forward_outputs_well_formed(iris):
    rng = np.random.default_rng(8)
    m = qnn.build_model(qnn.LayerSpec(BEL, 2, 4), iris, seed=2)
    for _ in range(10):
        x = rng.uniform(0, math.pi, 4)
        logits = logits_batch(m, x[None, :])[0]
        probs = softmax(logits)
        assert np.all(logits >= -1 - 1e-12) and np.all(logits <= 1 + 1e-12)
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert np.all(probs >= 0)


def test_gradient_of_frozen_circuit_is_empty(iris):
    frozen = Circuit(4, (Op(GateKind.RX, (0,), (0.3,), False),))
    m = qnn.build_model(qnn.LayerSpec(BEL, 1, 4), iris, seed=0).with_ansatz(frozen)
    grad = qnn.loss_and_gradient(m, iris.train_x[:4], iris.train_y[:4])[1]
    assert grad.shape == (0,)


@pytest.mark.parametrize("kind", [BEL, SEL])
def test_gradient_matches_finite_differences(iris, kind):
    m = qnn.build_model(qnn.LayerSpec(kind, 1, 4), iris, seed=3)
    x, y = iris.train_x[:6], iris.train_y[:6]
    loss, grad = loss_and_gradient(m, x, y)

    def loss_at(p):
        return loss_and_gradient(m.with_ansatz(set_params(m.ansatz, p)), x, y)[0]

    p0 = get_params(m.ansatz)
    h = 1e-4
    fd = np.array(
        [(loss_at(p0 + h * e) - loss_at(p0 - h * e)) / (2 * h) for e in np.eye(len(p0))]
    )
    assert np.max(np.abs(grad - fd)) <= 1e-4


def parameter_shift_gradient(model, x, y):
    """The naive parameter-shift rule: two full circuits per angle.

    Every trainable angle enters as exp(-iθP/2), so d(logit)/dθ is half
    the difference of the logits at θ ± π/2; chained through softmax
    cross-entropy with dL/dlogit = (softmax - onehot) / batch.
    """
    encoded = encode_batch(model, x)

    def logits(ansatz):
        states = sim.run_batch(ansatz, encoded)
        z = np.stack([sim.expect_z_batch(states, q) for q in model.readout_qubits], axis=1)
        return model.readout_scale * z + model.readout_bias

    dl_dz = softmax(logits(model.ansatz))
    dl_dz[np.arange(len(y)), y] -= 1.0
    dl_dz /= len(y)
    p0 = get_params(model.ansatz)
    grad = np.zeros(len(p0))
    for s, e in enumerate(np.eye(len(p0))):
        plus = logits(set_params(model.ansatz, p0 + math.pi / 2 * e))
        minus = logits(set_params(model.ansatz, p0 - math.pi / 2 * e))
        grad[s] = np.sum(dl_dz * (plus - minus) / 2)
    return grad


def mixed_ansatz():
    """Frozen rotations, fixed gates, cnots and the single-angle rz/ry
    factors that ``optimize`` leaves behind when it splits an r gate."""
    rz, ry, rx, r3 = GateKind.RZ, GateKind.RY, GateKind.RX, GateKind.R3
    return Circuit(
        4,
        (
            Op(GateKind.H, (0,)),
            Op(rx, (2,), (0.7,), False),
            Op(rz, (1,), (0.4,), True),  # a split r gate: rz(φ), ry(θ), rz(ω)
            Op(ry, (1,), (-1.1,), True),
            Op(rz, (1,), (2.0,), True),
            Op(GateKind.CNOT, (0, 1)),
            Op(GateKind.S, (2,)),
            Op(r3, (3,), (0.3, -0.5, 1.2), False),
            Op(ry, (3,), (1.3,), True),
            Op(GateKind.SX, (0,)),
            Op(GateKind.CNOT, (3, 2)),
            Op(rz, (0,), (-2.5,), True),
            Op(rx, (2,), (0.9,), True),
            Op(GateKind.CNOT, (1, 3)),
            Op(rz, (2,), (0.2,), False),
            Op(r3, (1,), (-0.8, 2.2, 0.6), True),
            Op(GateKind.H, (3,)),
        ),
    )


@pytest.mark.parametrize("batch", [1, 16])
@pytest.mark.parametrize("affine", [False, True])
@pytest.mark.parametrize("ansatz", ["bel", "sel", "mixed"])
def test_gradient_matches_parameter_shift(iris, ansatz, affine, batch):
    if ansatz == "mixed":
        m = qnn.build_model(qnn.LayerSpec(BEL, 1, 4), iris, seed=0).with_ansatz(mixed_ansatz())
    else:
        m = qnn.build_model(qnn.LayerSpec(qnn.LayerKind(ansatz), 2, 4), iris, seed=4)
    if affine:
        m = m.with_readout(np.array([1.5, -0.7, 2.0]), np.array([0.1, -0.2, 0.05]))
    x, y = iris.train_x[:batch], iris.train_y[:batch]
    _, grad = loss_and_gradient(m, x, y)
    want = parameter_shift_gradient(m, x, y)
    assert grad.shape == want.shape == (len(trainable_slots(m.ansatz)),)
    assert np.max(np.abs(grad - want)) <= 1e-12


# loss.hex() and the SHA-256 of every angle- and readout-gradient entry's
# .hex(), for a 16-row batch under an affine readout
PINNED_GRADIENTS = [
    (BEL, 2, 4, "0x1.d98990d1dfd6dp-1", "664e2bc7da482601f95eaeba328bfa474db5e2d30e57d24cd36b779380daf86b"),
    (SEL, 2, 4, "0x1.4ce9cc01162c2p+0", "9e520ed2216cc7bb904b51780986f26bacf13aa077d019390cca145f2814d7e1"),
    (SEL, 3, 5, "0x1.04e35fc95609cp+0", "62ab3fed3d4bd5c1f956c5847640addb3d43bb80650ae0b1ddf693cdedfe0066"),
]


@pytest.mark.parametrize(
    "kind, layers, n, loss_hex, grad_digest", PINNED_GRADIENTS, ids=["bel-2-4", "sel-2-4", "sel-3-5"]
)
def test_pinned_gradients(iris, kind, layers, n, loss_hex, grad_digest):
    # training noise moves trained angles and with them greedy decisions,
    # so the simulator's and the walk's rounding are pinned bit for bit
    m = qnn.build_model(qnn.LayerSpec(kind, layers, n), iris, seed=0)
    m = m.with_readout(np.array([1.5, -0.7, 2.0]), np.array([0.1, -0.2, 0.05]))
    loss, grad, readout_grad = _loss_and_gradients(m, iris.train_x[:16], iris.train_y[:16])
    assert loss.hex() == loss_hex
    hexes = " ".join(float(v).hex() for v in [*grad, *readout_grad])
    assert hashlib.sha256(hexes.encode()).hexdigest() == grad_digest


def test_readout_gradient_matches_finite_differences(iris):
    m = qnn.build_model(qnn.LayerSpec(BEL, 1, 4), iris, seed=3)
    m = m.with_readout(np.array([1.5, 0.7, 2.0]), np.array([0.1, -0.2, 0.05]))
    x, y = iris.train_x[:6], iris.train_y[:6]
    _, _, readout_grad = _loss_and_gradients(m, x, y)
    w0 = np.concatenate([m.readout_scale, m.readout_bias])

    def loss_at(w):
        return loss_and_gradient(m.with_readout(w[:3], w[3:]), x, y)[0]

    h = 1e-6
    fd = np.array([(loss_at(w0 + h * e) - loss_at(w0 - h * e)) / (2 * h) for e in np.eye(6)])
    assert np.max(np.abs(readout_grad - fd)) <= 1e-8


def test_gradient_zero_at_numerical_minimum(iris):
    # one trainable angle; locate the loss minimum by two-stage scan
    ansatz = Circuit(
        4,
        (
            Op(GateKind.RX, (0,), (0.2,), True),
            Op(GateKind.RX, (1,), (0.9,), False),
            Op(GateKind.CNOT, (0, 1)),
        ),
    )
    m = qnn.build_model(qnn.LayerSpec(BEL, 1, 4), iris, seed=0).with_ansatz(ansatz)
    x, y = iris.train_x[:8], iris.train_y[:8]

    def loss_at(theta):
        mm = m.with_ansatz(set_params(m.ansatz, np.array([theta])))
        return loss_and_gradient(mm, x, y)[0]

    def fd_slope(theta, h=1e-4):
        return (loss_at(theta + h) - loss_at(theta - h)) / (2 * h)

    coarse = np.linspace(-math.pi, math.pi, 721)
    theta = coarse[int(np.argmin([loss_at(t) for t in coarse]))]
    lo, hi = theta - 0.02, theta + 0.02
    assert fd_slope(lo) < 0 < fd_slope(hi)
    for _ in range(60):  # bisect the finite-difference slope to the minimum
        mid = (lo + hi) / 2
        if fd_slope(mid) < 0:
            lo = mid
        else:
            hi = mid
    mm = m.with_ansatz(set_params(m.ansatz, np.array([(lo + hi) / 2])))
    grad = qnn.loss_and_gradient(mm, x, y)[1]
    assert abs(grad[0]) <= 1e-6


def test_softmax_stability():
    z = np.array([[1e3, -1e3, 0.0]])
    p = softmax(z)
    assert np.isfinite(p).all()
    assert abs(p.sum() - 1.0) <= 1e-12


def test_training_decreases_loss(iris):
    m = qnn.build_model(qnn.LayerSpec(BEL, 2, 4), iris, seed=1)
    _, hist = qnn.train(m, iris, qnn.TrainConfig(epochs=5, seed=1))
    assert hist.epochs[4]["train_loss"] < hist.epochs[0]["train_loss"]


def test_training_first_epoch_improves_for_most_seeds(iris):
    wins = 0
    for seed in range(10):
        m = qnn.build_model(qnn.LayerSpec(BEL, 2, 4), iris, seed=seed)
        before = loss_and_gradient(m, iris.train_x, iris.train_y)[0]
        m1, _ = qnn.train(m, iris, qnn.TrainConfig(epochs=1, seed=seed))
        after = loss_and_gradient(m1, iris.train_x, iris.train_y)[0]
        wins += after < before
    assert wins >= 8


def test_training_is_deterministic(iris):
    m = qnn.build_model(qnn.LayerSpec(BEL, 1, 4), iris, seed=2)
    m1, h1 = qnn.train(m, iris, qnn.TrainConfig(epochs=3, seed=2))
    m2, h2 = qnn.train(m, iris, qnn.TrainConfig(epochs=3, seed=2))
    assert m1.ansatz == m2.ansatz

    def timeless(h):  # wall time is the one field that may differ
        return [{k: v for k, v in e.items() if k != "wall_s"} for e in h.epochs]

    assert timeless(h1) == timeless(h2)


def test_history_records_wall_time_and_gradient_norm(iris):
    m = qnn.build_model(qnn.LayerSpec(BEL, 1, 4), iris, seed=2)
    m = m.with_readout(np.array([1.2, 0.8, 1.0]), np.array([0.1, 0.0, -0.1]))
    # one batch per epoch: the first epoch's gradient is that of the start
    cfg = qnn.TrainConfig(epochs=2, batch_size=len(iris.train_y), seed=2)
    _, hist = qnn.train(m, iris, cfg)
    for record in hist.epochs:
        assert record["wall_s"] > 0
        assert math.isfinite(record["grad_norm"]) and record["grad_norm"] > 0
    _, grad, readout_grad = _loss_and_gradients(m, iris.train_x, iris.train_y)
    want = np.linalg.norm(np.concatenate([grad, readout_grad]))
    assert hist.epochs[0]["grad_norm"] == pytest.approx(want, rel=1e-12)


def test_a_diverging_run_is_one_error_and_no_warning(iris):
    m = qnn.build_model(qnn.LayerSpec(BEL, 1, 4), iris, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        with pytest.raises(ValueError) as err:
            qnn.train(m, iris, qnn.TrainConfig(epochs=2, learning_rate=1e300))
    assert str(err.value) == (
        "training diverged in epoch 1: the loss or a parameter is no longer finite"
    )


def test_a_non_finite_loss_is_reported_in_its_epoch(iris, monkeypatch):
    m = qnn.build_model(qnn.LayerSpec(BEL, 1, 4), iris, seed=0)
    real, calls = training._loss_and_gradients, []
    per_epoch = math.ceil(len(iris.train_y) / 16)

    def nan_after_the_first_epoch(model, x, y):
        calls.append(None)
        loss, grad, readout_grad = real(model, x, y)
        return (math.nan if len(calls) > per_epoch else loss), grad, readout_grad

    monkeypatch.setattr(training, "_loss_and_gradients", nan_after_the_first_epoch)
    with pytest.raises(ValueError, match="^training diverged in epoch 2: "):
        qnn.train(m, iris, qnn.TrainConfig(epochs=3, batch_size=16))
    assert len(calls) == per_epoch + 1


def test_retrain_touches_only_trainable_angles(iris):
    m = qnn.build_model(qnn.LayerSpec(BEL, 2, 4), iris, seed=3)
    m, _ = qnn.train(m, iris, qnn.TrainConfig(epochs=2, seed=3))
    opt_circ, _ = optimize(
        m.ansatz, OptimizeConfig(tolerance=0.05, greedy=GreedyParams(seed=3))
    )
    m_opt = m.with_ansatz(opt_circ)
    m_re, _ = qnn.retrain(m_opt, iris, qnn.TrainConfig(epochs=2, seed=3))
    frozen_before = [op for op in m_opt.ansatz.ops if not op.trainable]
    frozen_after = [op for op in m_re.ansatz.ops if not op.trainable]
    assert frozen_before == frozen_after
    slots = trainable_slots(m_re.ansatz)
    assert slots == trainable_slots(m_opt.ansatz)


def test_retraining_wins_back_what_optimization_cost(iris):
    # a small BEL(3, 4) version of the Iris pipeline: train, replace
    # rotations at tolerance 0.05, retrain; medians over five seeds
    rows = []
    for seed in range(5):
        m = qnn.build_model(qnn.LayerSpec(BEL, 3, 4), iris, seed=seed)
        m, _ = qnn.train(m, iris, qnn.TrainConfig(epochs=20, seed=seed))
        opt_circ, _ = optimize(
            m.ansatz, OptimizeConfig(tolerance=0.05, greedy=GreedyParams(seed=seed))
        )
        m_opt = m.with_ansatz(opt_circ)
        m_re, _ = qnn.retrain(m_opt, iris, qnn.TrainConfig(epochs=10, seed=seed))
        rows.append(
            [qnn.accuracy(mm, iris.train_x, iris.train_y) for mm in (m, m_opt, m_re)]
        )
    trained, optimized, retrained = np.median(rows, axis=0)
    assert trained >= 0.8
    assert optimized < trained  # the replacement costs accuracy ...
    assert retrained >= trained - 0.1  # ... and retraining wins it back
    assert retrained > optimized


def test_training_updates_readout(iris):
    m = qnn.build_model(qnn.LayerSpec(BEL, 2, 4), iris, seed=1)
    assert np.array_equal(m.readout_scale, np.ones(3))
    assert np.array_equal(m.readout_bias, np.zeros(3))
    m, _ = qnn.train(m, iris, qnn.TrainConfig(epochs=3, seed=1))
    assert not np.array_equal(m.readout_scale, np.ones(3))
    assert not np.array_equal(m.readout_bias, np.zeros(3))


def test_retrain_with_no_angles_trains_the_readout_alone(iris):
    assert qnn.retrain is qnn.train
    frozen = Circuit(4, (Op(GateKind.X, (0,)), Op(GateKind.CNOT, (0, 1))))
    m = qnn.build_model(qnn.LayerSpec(BEL, 1, 4), iris, seed=0).with_ansatz(frozen)
    cfg = qnn.TrainConfig(epochs=5, seed=0)
    m2, hist = qnn.retrain(m, iris, cfg)
    assert m2.ansatz == frozen
    assert not np.array_equal(m2.readout_scale, m.readout_scale)
    assert not np.array_equal(m2.readout_bias, m.readout_bias)
    assert [e["epoch"] for e in hist.epochs] == list(range(1, cfg.epochs + 1))
    assert all(e["grad_norm"] > 0 for e in hist.epochs)
    assert hist.epochs[-1]["train_loss"] < hist.epochs[0]["train_loss"]
    assert "warnings" not in hist.as_dict()


def test_angle_wrapping_keeps_values_in_ir_bounds():
    from pqc_forge.qnn.training import _wrap_angles

    vals = np.array([0.0, 2 * math.pi, -2 * math.pi, 7.0, -7.0, 12.5, -12.5])
    wrapped = _wrap_angles(vals)
    assert np.all(wrapped > -2 * math.pi - 1e-12)
    assert np.all(wrapped <= 2 * math.pi + 1e-12)
    # wrapping shifts by whole 4π periods, which leaves every rotation exact
    for v, w in zip(vals, wrapped):
        k = (v - w) / (4 * math.pi)
        assert abs(k - round(k)) <= 1e-12


def test_model_save_load_round_trip(tmp_path, iris):
    m = qnn.build_model(qnn.LayerSpec(BEL, 2, 4), iris, seed=4)
    m, _ = qnn.train(m, iris, qnn.TrainConfig(epochs=1, seed=4))
    path = tmp_path / "model.qc"
    qnn.save_model(m, path)
    loaded = qnn.load_model(path)
    assert loaded.ansatz == m.ansatz
    assert loaded.n_classes == m.n_classes
    assert loaded.feature_count == m.feature_count
    assert np.allclose(loaded.lo, m.lo) and np.allclose(loaded.hi, m.hi)
    assert np.array_equal(loaded.readout_scale, m.readout_scale)
    assert np.array_equal(loaded.readout_bias, m.readout_bias)
    assert qnn.evaluate(loaded, iris) == qnn.evaluate(m, iris)


def test_version_1_sidecar_loads_with_identity_readout(tmp_path, iris):
    m = qnn.build_model(qnn.LayerSpec(BEL, 1, 4), iris, seed=0)
    path = tmp_path / "old.qc"
    qnn.save_model(m, path)
    side = qnn.sidecar_path(path)
    meta = json.loads(side.read_text())
    for key in ("readout_scale", "readout_bias"):
        del meta[key]
    meta["version"] = 1
    side.write_text(json.dumps(meta))
    loaded = qnn.load_model(path)
    assert np.array_equal(loaded.readout_scale, np.ones(3))
    assert np.array_equal(loaded.readout_bias, np.zeros(3))


def test_sidecar_without_readout_qubits_loads(tmp_path, iris):
    m = qnn.build_model(qnn.LayerSpec(BEL, 1, 4), iris, seed=0)
    path = tmp_path / "bare.qc"
    qnn.save_model(m, path)
    side = qnn.sidecar_path(path)
    meta = json.loads(side.read_text())
    del meta["readout_qubits"]
    side.write_text(json.dumps(meta))
    assert qnn.load_model(path).readout_qubits == (0, 1, 2)


def test_sidecar_without_version_or_encoding_loads(tmp_path, iris):
    m = qnn.build_model(qnn.LayerSpec(BEL, 1, 4), iris, seed=0)
    path = tmp_path / "bare.qc"
    qnn.save_model(m, path)
    side = qnn.sidecar_path(path)
    meta = json.loads(side.read_text())
    del meta["version"], meta["encoding"]
    side.write_text(json.dumps(meta))
    assert qnn.evaluate(qnn.load_model(path), iris) == qnn.evaluate(m, iris)


def test_readout_shape_is_checked(iris):
    m = qnn.build_model(qnn.LayerSpec(BEL, 1, 4), iris, seed=0)
    with pytest.raises(ValueError, match="readout_scale"):
        m.with_readout(np.ones(2), np.zeros(3))


def test_load_model_requires_sidecar(tmp_path, iris):
    from pqc_forge import circuit as circ

    m = qnn.build_model(qnn.LayerSpec(BEL, 1, 4), iris, seed=0)
    path = tmp_path / "bare.qc"
    circ.save(m.ansatz, path)
    with pytest.raises(FileNotFoundError, match="sidecar"):
        qnn.load_model(path)
