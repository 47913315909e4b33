"""QNN pipeline: datasets, layered models, and exact-statevector training."""

from .data import Dataset, load_dataset
from .model import (
    LayerKind,
    LayerSpec,
    Model,
    build_ansatz,
    build_model,
    load_model,
    save_model,
    sidecar_path,
)
from .training import (
    History,
    TrainConfig,
    accuracy,
    evaluate,
    loss_and_gradient,
    retrain,
    train,
)

__all__ = [
    "Dataset",
    "History",
    "LayerKind",
    "LayerSpec",
    "Model",
    "TrainConfig",
    "accuracy",
    "build_ansatz",
    "build_model",
    "evaluate",
    "load_dataset",
    "load_model",
    "loss_and_gradient",
    "retrain",
    "save_model",
    "sidecar_path",
    "train",
]
