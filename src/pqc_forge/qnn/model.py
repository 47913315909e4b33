"""Model assembly: entangling-layer ansatz, feature encoding, persistence.

A model is (encoding rule, trainable ansatz circuit, readout). The
encoding rule is fixed: qubit q gets a frozen RX with angle x[q mod F]
for F features, so every feature lands at least once and small feature
sets repeat around the register (iris: features 0–3 appear on qubits
0–3 and again on 4–7).

The readout measures ⟨Z⟩ on the first ``n_classes`` qubits and maps each
expectation through its own trainable affine map, so the logit of class
k is ``readout_scale[k]·⟨Z_k⟩ + readout_bias[k]`` (scale starts at 1,
bias at 0). These 2·n_classes classical weights are trained with the
angles and live in the sidecar, not in the circuit, so the optimizer
never replaces them and retraining can re-tune them. The
trainable bias is the one of the circuit-centric classifier (Schuld et
al., Phys. Rev. A 101, 032308, 2020); the trainable output scale follows
Skolik et al. (Quantum 6, 720, 2022), who add it because ⟨Z⟩ is confined
to [-1, 1]. Without it a softmax over raw ⟨Z⟩ values can never put more
than e/(e + 2/e) ≈ 0.79 on one of three classes, and cross-entropy can
then fall while accuracy drops.

Two ansatz families:

* basic entangler (``bel``): one trainable RX per qubit, then the
  circular ring cnot(q, q+1 mod n).
* strongly entangling (``sel``): one trainable three-angle R per qubit,
  then the ring cnot(q, q+r mod n) with per-layer range
  r = (layer mod (n-1)) + 1, which is what keeps the decomposed depth of
  the published 5-layer baselines well under the bel figure.

On disk a model is a circuit text file plus a JSON sidecar (same stem,
``.json``) carrying the encoding spec, readout, normalization bounds and
seeds, so any saved model can be evaluated without its dataset object.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .. import circuit as circ
from ..circuit import Circuit, Op
from ..gates import GateKind
from .data import Dataset

SIDECAR_FORMAT = "pqc-forge-model"
SIDECAR_VERSION = 2  # 2 added the readout scale and bias


class LayerKind(Enum):
    BASIC_ENTANGLER = "bel"
    STRONGLY_ENTANGLING = "sel"


@dataclass(frozen=True)
class LayerSpec:
    kind: LayerKind
    layers: int
    n_qubits: int

    def __post_init__(self):
        if self.layers < 1:
            raise ValueError(f"layers must be >= 1, got {self.layers}")
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")


def _ring(layer: int, n: int, kind: LayerKind) -> list[tuple[int, int]]:
    if n < 2:
        return []
    if kind is LayerKind.STRONGLY_ENTANGLING:
        r = (layer % (n - 1)) + 1
    else:
        r = 1
    return [(q, (q + r) % n) for q in range(n)]


def build_ansatz(spec: LayerSpec, seed: int = 0) -> Circuit:
    """Layered ansatz with angles drawn uniform in (-π, π) from the seed."""
    rng = np.random.default_rng(seed)
    ops: list[Op] = []
    for layer in range(spec.layers):
        for q in range(spec.n_qubits):
            if spec.kind is LayerKind.BASIC_ENTANGLER:
                angle = float(rng.uniform(-np.pi, np.pi))
                ops.append(Op(GateKind.RX, (q,), (angle,), trainable=True))
            else:
                angles = tuple(rng.uniform(-np.pi, np.pi, size=3).tolist())
                ops.append(Op(GateKind.R3, (q,), angles, trainable=True))
        for control, target in _ring(layer, spec.n_qubits, spec.kind):
            ops.append(Op(GateKind.CNOT, (control, target)))
    return Circuit(spec.n_qubits, tuple(ops))


@dataclass
class Model:
    ansatz: Circuit
    n_classes: int
    feature_count: int
    layer_kind: str
    layers: int
    lo: np.ndarray  # normalization bounds, copied from the training dataset
    hi: np.ndarray
    dataset_name: str
    seed: int
    split_seed: int = 0
    # per-class affine readout: logit_k = scale[k]·⟨Z_k⟩ + bias[k]
    readout_scale: np.ndarray | None = None
    readout_bias: np.ndarray | None = None

    def __post_init__(self):
        if self.readout_scale is None:
            self.readout_scale = np.ones(self.n_classes)
        if self.readout_bias is None:
            self.readout_bias = np.zeros(self.n_classes)
        self.readout_scale = np.asarray(self.readout_scale, dtype=float)
        self.readout_bias = np.asarray(self.readout_bias, dtype=float)
        for name in ("readout_scale", "readout_bias"):
            if getattr(self, name).shape != (self.n_classes,):
                raise ValueError(
                    f"{name} needs {self.n_classes} entries, "
                    f"got shape {getattr(self, name).shape}"
                )

    @property
    def n_qubits(self) -> int:
        return self.ansatz.n_qubits

    @property
    def readout_qubits(self) -> tuple[int, ...]:
        return tuple(range(self.n_classes))

    def with_ansatz(self, ansatz: Circuit) -> "Model":
        return replace(self, ansatz=ansatz)

    def with_readout(self, scale: np.ndarray, bias: np.ndarray) -> "Model":
        return replace(self, readout_scale=scale, readout_bias=bias)


def build_model(spec: LayerSpec, dataset: Dataset, seed: int = 0) -> Model:
    if dataset.n_classes > spec.n_qubits:
        raise ValueError(
            f"{dataset.n_classes} classes need at least that many qubits, "
            f"got {spec.n_qubits}"
        )
    return Model(
        ansatz=build_ansatz(spec, seed),
        n_classes=dataset.n_classes,
        feature_count=dataset.n_features,
        layer_kind=spec.kind.value,
        layers=spec.layers,
        lo=dataset.lo.copy(),
        hi=dataset.hi.copy(),
        dataset_name=dataset.name,
        seed=seed,
        split_seed=dataset.seed,
    )


def sidecar_path(path) -> Path:
    return Path(path).with_suffix(".json")


def check_model_path(path) -> Path:
    """``path`` as a Path; ValueError when it is its own sidecar path (ends in .json)."""
    path = Path(path)
    if sidecar_path(path) == path:
        raise ValueError(f"model path {path} ends in .json, which its sidecar would overwrite")
    return path


def save_model(model: Model, path, extra: dict | None = None) -> None:
    """Write ``path`` (circuit text) and its JSON sidecar."""
    path = check_model_path(path)
    circ.save(model.ansatz, path)
    meta = {
        "format": SIDECAR_FORMAT,
        "version": SIDECAR_VERSION,
        "dataset": model.dataset_name,
        "n_qubits": model.n_qubits,
        "n_classes": model.n_classes,
        "feature_count": model.feature_count,
        "readout_qubits": list(model.readout_qubits),
        "readout_scale": model.readout_scale.tolist(),
        "readout_bias": model.readout_bias.tolist(),
        "encoding": {"kind": "cyclic-rx"},
        "normalization": {"lo": model.lo.tolist(), "hi": model.hi.tolist()},
        "layer": {"kind": model.layer_kind, "layers": model.layers},
        "seed": model.seed,
        "split_seed": model.split_seed,
    }
    if extra:
        meta.update(extra)
    with open(sidecar_path(path), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _integer(side, key: str, value) -> int:
    """``value`` when it is a JSON integer; ValueError naming ``key`` otherwise."""
    if type(value) is not int:  # a bool is an int to isinstance
        raise ValueError(
            f"{side} has a malformed entry: {key} must be an integer, got {json.dumps(value)}"
        )
    return value


def load_model(path) -> Model:
    """Read a circuit file plus sidecar back into a Model.

    Raises ValueError when the sidecar lacks a key, holds a value of the
    wrong type, counts fewer than one class or feature, disagrees with
    the circuit's qubit count, its own class count or its feature count,
    or holds a non-finite normalization bound, a hi bound below its lo or
    a non-finite readout weight.
    """
    path = Path(path)
    ansatz = circ.load(path)
    side = sidecar_path(path)
    try:
        with open(side, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except OSError as exc:
        raise FileNotFoundError(f"missing model sidecar {side}: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("format") != SIDECAR_FORMAT:
        raise ValueError(f"{side} is not a {SIDECAR_FORMAT} sidecar")
    try:
        n_qubits, n_classes, feature_count, layers, seed, split_seed = (
            _integer(side, key, value)
            for key, value in (
                ("n_qubits", meta["n_qubits"]),
                ("n_classes", meta["n_classes"]),
                ("feature_count", meta["feature_count"]),
                ("layer.layers", meta["layer"]["layers"]),
                ("seed", meta["seed"]),
                ("split_seed", meta.get("split_seed", 0)),
            )
        )
        if n_qubits != ansatz.n_qubits:
            raise ValueError(f"{side} says {n_qubits} qubits, the circuit has {ansatz.n_qubits}")
        if n_classes > n_qubits:
            raise ValueError(f"{side} reads {n_classes} classes out of {n_qubits} qubits")
        if min(n_classes, feature_count) < 1:
            raise ValueError(
                f"{side} needs at least one class and one feature, "
                f"got {n_classes} and {feature_count}"
            )
        model = Model(
            ansatz=ansatz,
            n_classes=n_classes,
            feature_count=feature_count,
            layer_kind=meta["layer"]["kind"],
            layers=layers,
            lo=np.asarray(meta["normalization"]["lo"], dtype=float),
            hi=np.asarray(meta["normalization"]["hi"], dtype=float),
            dataset_name=meta["dataset"],
            seed=seed,
            split_seed=split_seed,
            # version-1 sidecars predate the affine readout: identity map
            readout_scale=meta.get("readout_scale"),
            readout_bias=meta.get("readout_bias"),
        )
    except KeyError as exc:
        raise ValueError(f"{side} lacks the key {exc}") from None
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{side} has a malformed entry: {exc}") from None
    for name in ("lo", "hi"):
        bounds = getattr(model, name)
        if bounds.shape != (model.feature_count,):
            raise ValueError(
                f"{side} has {bounds.size} {name} bounds for {model.feature_count} features"
            )
        if not np.all(np.isfinite(bounds)):
            raise ValueError(f"{side} has a non-finite {name} bound")
    if np.any(model.hi < model.lo):
        raise ValueError(f"{side} has a hi bound below its lo bound")
    for name in ("scale", "bias"):
        if not np.all(np.isfinite(getattr(model, f"readout_{name}"))):
            raise ValueError(f"{side} has a non-finite readout {name}")
    return model
