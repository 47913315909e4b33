"""Forward pass, adjoint-method gradients, and Adam training.

The forward pass runs encoding + ansatz on |0...0⟩ exactly. The RX
feature encoding of |0...0⟩ is a product state, built as the ordered
outer product of the per-qubit (cos(x/2), -i·sin(x/2)) columns. The
logit of class k is the model's affine readout scale[k]·⟨Z_k⟩ + bias[k]
and class probabilities are the softmax of the logits. Loss is softmax
cross-entropy averaged over the batch. Training updates the trainable
angles and the readout scale and bias together, in one Adam state.

Angle gradients use the adjoint method (Jones & Gacon 2020,
arXiv:2009.02823). Every trainable angle θ enters as a factor
exp(-iθP/2) with a Pauli generator P: rx/ry/rz directly, and a
three-angle r gate as its rz(φ), ry(θ), rz(ω) factors. With
dL/dlogit = softmax - onehot, the loss gradient is that of ⟨ψ|O|ψ⟩ for
the diagonal observable O = Σ_k dL/dlogit[k]·scale[k]·Z_k. One forward
pass gives the final state ψ; the co-state λ = Oψ is then walked back
through every op's U† together with ψ, and at each trainable factor

    dL/dθ = Im⟨λ|P|ψ⟩,

taken with both states just after the factor. Pψ is an exact signed
permutation of ψ (``sim.apply_pauli_batch``), and the walk undoes each
run of consecutive cnots with one gather, the run in reverse order. A
batch costs one forward pass and one backward walk, O(ops) gate
applications whatever the number of angles, and keeps no per-op state.
The readout weights get their exact gradients from the same forward
pass:
dL/dscale[k] = Σ dL/dlogit[k]·⟨Z_k⟩ and dL/dbias[k] = Σ dL/dlogit[k].
The test suite checks the gradients against finite differences and
against the naive parameter-shift rule, two full circuits per angle.

The default learning rate is 1e-2, the default step size of PennyLane's
``AdamOptimizer``; the BEL and SEL models are PennyLane's
``BasicEntanglerLayers`` and ``StronglyEntanglingLayers`` templates. Adam
moves a parameter by at most about one learning rate per step (Kingma &
Ba, ICLR 2015, §2.1), and the Iris runs take 400 steps (50 epochs of 8
batches). At 1e-3 no angle of the 8-qubit BEL model moved more than
0.48 rad from its random start, so the trained model stayed close to its
initialization.

Everything is deterministic given the config seed: batches are shuffled
by one generator consumed in a fixed order, and every reduction runs
in a fixed order.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .. import gates, sim
from ..circuit import Circuit, Op
from ..gates import GateKind
from .data import Dataset
from .model import Model

TWO_PI = 2.0 * math.pi
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    learning_rate: float = 1e-2
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning rate must be finite and > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class History:
    """Per-epoch records of a training run.

    Each epoch record holds ``epoch``, ``train_loss`` (the mean batch
    loss), ``test_accuracy``, ``grad_norm`` (the L2 norm of the epoch's
    last full gradient, angles and readout) and ``wall_s`` (the epoch's
    wall time, its test evaluation included).
    """

    epochs: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"epochs": self.epochs}


class Adam:
    """Plain Adam with bias correction, one slot per trained parameter."""

    def __init__(self, n_params: int, learning_rate: float):
        self.learning_rate = learning_rate
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = ADAM_BETA1 * self.m + (1 - ADAM_BETA1) * grad
        self.v = ADAM_BETA2 * self.v + (1 - ADAM_BETA2) * grad**2
        m_hat = self.m / (1 - ADAM_BETA1**self.t)
        v_hat = self.v / (1 - ADAM_BETA2**self.t)
        return params - self.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def trainable_slots(c: Circuit) -> list[tuple[int, int]]:
    """(op index, angle index) for every trainable angle, in circuit order."""
    return [
        (i, a)
        for i, op in enumerate(c.ops)
        for a in range(len(op.angles))
        if op.trainable
    ]


def get_params(c: Circuit) -> np.ndarray:
    return np.array([c.ops[i].angles[a] for i, a in trainable_slots(c)])


def set_params(c: Circuit, values: np.ndarray) -> Circuit:
    """Circuit with trainable angles replaced by ``values`` (slot order).

    One walk over the ops: each trainable op takes the next
    ``len(op.angles)`` values.
    """
    flat = [float(v) for v in values]
    ops, used = [], 0
    for op in c.ops:
        if op.trainable:
            angles = tuple(flat[used : used + len(op.angles)])
            used += len(op.angles)
            if used <= len(flat):  # too few values is reported below
                op = Op(op.kind, op.qubits, angles, True)
        ops.append(op)
    if used != len(flat):
        raise ValueError(f"expected {used} values, got {len(flat)}")
    return c.with_ops(ops)


def _wrap_angles(values: np.ndarray) -> np.ndarray:
    """Map angles into (-2π, 2π]; rotations are 4π-periodic so this is exact."""
    return -((-values + TWO_PI) % (2 * TWO_PI) - TWO_PI)


def encode_batch(model: Model, x: np.ndarray) -> np.ndarray:
    """States after the per-sample RX feature encoding, shape (batch, 2**n).

    The outer product of the RX(x)|0⟩ columns, qubit 0 first, multiplies
    the same factors in the same order as applying each RX in turn.
    """
    x = np.atleast_2d(x)
    states = np.ones((x.shape[0], 1), dtype=complex)
    for q in range(model.n_qubits):
        theta = x[:, q % model.feature_count]
        col = np.stack([np.cos(theta / 2), -1j * np.sin(theta / 2)], axis=1)
        states = (states[:, :, None] * col[:, None, :]).reshape(len(x), -1)
    return states


def _forward(model: Model, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """States after encoding and ansatz, ⟨Z⟩ on every readout qubit
    (batch, n_classes) and the class logits, for raw (already scaled)
    feature rows."""
    states = sim.run_batch(model.ansatz, encode_batch(model, x))
    expect = np.stack([sim.expect_z_batch(states, q) for q in model.readout_qubits], axis=1)
    return states, expect, model.readout_scale * expect + model.readout_bias


def logits_batch(model: Model, x: np.ndarray) -> np.ndarray:
    """Class logits for a batch of raw (already scaled) feature rows."""
    return _forward(model, x)[2]


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def predict(model: Model, x: np.ndarray) -> np.ndarray:
    """Class ids for a batch of feature rows."""
    return np.argmax(logits_batch(model, x), axis=1)


def accuracy(model: Model, x: np.ndarray, y: np.ndarray) -> float:
    if len(y) == 0:
        return float("nan")
    return float(np.mean(predict(model, x) == y))


def _cross_entropy(probs: np.ndarray, y: np.ndarray) -> float:
    picked = probs[np.arange(len(y)), y]
    return float(-np.log(np.maximum(picked, 1e-300)).mean())


_GENERATOR = {GateKind.RX: GateKind.X, GateKind.RY: GateKind.Y, GateKind.RZ: GateKind.Z}


def _factors(op: Op) -> list[tuple[GateKind, np.ndarray]]:
    """(Pauli generator, 2×2 matrix) of every angle of a trainable op, circuit order."""
    return [
        (_GENERATOR[kind], gates.unitary(kind, (angle,)))
        for kind, angle in gates.rotation_factors(op)
    ]


def loss_and_gradient(
    model: Model, x: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Batch cross-entropy and its adjoint-method gradient.

    Returns the loss at the current angles and a vector with one entry
    per trainable slot of the ansatz (empty for a fully frozen circuit).
    """
    loss, grad, _ = _loss_and_gradients(model, x, y)
    return loss, grad


def _loss_and_gradients(
    model: Model, x: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """``loss_and_gradient`` plus the readout gradient (d/dscale, d/dbias)."""
    ops = model.ansatz.ops
    slots = trainable_slots(model.ansatz)
    states, expect, logits = _forward(model, x)
    probs = softmax(logits)
    loss = _cross_entropy(probs, y)

    # dL/dlogit; the batch mean is folded in here
    dl_dz = probs.copy()
    dl_dz[np.arange(len(y)), y] -= 1.0
    dl_dz /= len(y)
    readout_grad = np.concatenate([np.sum(dl_dz * expect, axis=0), np.sum(dl_dz, axis=0)])
    if not slots:
        return loss, np.zeros(0), readout_grad

    batch = len(y)
    # co-state λ = Σ_k (dL/dlogit_k · scale_k) Z_k ψ, stacked under ψ so
    # that one kernel call walks both back through each op
    weights = dl_dz * model.readout_scale
    lam = sum(
        weights[:, k, None] * sim.apply_pauli_batch(states, GateKind.Z, q)
        for k, q in enumerate(model.readout_qubits)
    )
    pair = np.concatenate([states, lam])
    grad = np.zeros(len(slots))
    s = len(slots)
    walked = reversed(ops[slots[0][0] :])
    for is_cnot, group in itertools.groupby(walked, key=sim.is_cnot_op):
        if is_cnot:
            # a cnot is its own inverse, so U† of a run is the run reversed,
            # which is the order the walk meets it in
            pair = sim.apply_cnots_batch(pair, [op.qubits for op in group])
            continue
        for op in group:
            q = op.qubits[0]
            if not op.trainable:
                pair = sim.apply_1q_batch(pair, gates.unitary(op.kind, op.angles).conj().T, q)
                continue
            for pauli, u in reversed(_factors(op)):
                # d⟨O⟩/dθ = Im⟨λ|P|ψ⟩ just after the factor exp(-iθP/2)
                s -= 1
                p_psi = sim.apply_pauli_batch(pair[:batch], pauli, q)
                grad[s] = float(np.vdot(pair[batch:], p_psi).imag)
                pair = sim.apply_1q_batch(pair, u.conj().T, q)
    return loss, grad, readout_grad


def train(model: Model, dataset: Dataset, cfg: TrainConfig) -> tuple[Model, History]:
    """Mini-batch Adam on the train split; returns a new model + history.

    The parameter vector is the trainable angles in slot order followed
    by the readout scale and bias. A circuit with no trainable angle left
    trains its readout alone and comes back with its circuit unchanged.
    Raises ValueError naming the epoch once the loss or a parameter is
    no longer finite.
    """
    history = History()
    rng = np.random.default_rng(cfg.seed)
    n_angles = len(trainable_slots(model.ansatz))
    params = np.concatenate(
        [get_params(model.ansatz), model.readout_scale, model.readout_bias]
    )
    adam = Adam(len(params), cfg.learning_rate)
    train_x, train_y = dataset.train_x, dataset.train_y
    test_x, test_y = dataset.test_x, dataset.test_y

    current = model
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(len(train_x))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            # a diverging run overflows: it ends in the error below, not in warnings
            with np.errstate(all="ignore"):
                loss, grad, readout_grad = _loss_and_gradients(
                    current, train_x[batch], train_y[batch]
                )
                full_grad = np.concatenate([grad, readout_grad])
                params = adam.step(params, full_grad)
            if not (math.isfinite(loss) and np.isfinite(params).all()):
                raise ValueError(
                    f"training diverged in epoch {epoch}: the loss or a parameter is no longer finite"
                )
            losses.append(loss)
            params[:n_angles] = _wrap_angles(params[:n_angles])
            angles, scale, bias = np.split(params, [n_angles, n_angles + model.n_classes])
            current = replace(
                current, ansatz=set_params(current.ansatz, angles), readout_scale=scale, readout_bias=bias
            )
        history.epochs.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(losses)),
                "test_accuracy": accuracy(current, test_x, test_y),
                "grad_norm": float(np.linalg.norm(full_grad)),
                "wall_s": time.perf_counter() - t0,
            }
        )
    return current, history


retrain = train  # the post-optimization run is the same loop, run for fewer epochs


def evaluate(model: Model, dataset: Dataset) -> dict:
    return {
        "train_accuracy": accuracy(model, dataset.train_x, dataset.train_y),
        "test_accuracy": accuracy(model, dataset.test_x, dataset.test_y),
    }
