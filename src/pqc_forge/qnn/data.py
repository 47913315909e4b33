"""Dataset ingestion: CSV loading, stratified split, [0, π] feature scaling.

Two datasets are supported:

* ``iris`` — 4 numeric columns + a species label, 150 rows, 3 classes.
  A copy ships with the package, so no path is needed.
* ``digits01`` — 64 pixel columns (8×8 images, row-major) + a digit
  label. Rows are filtered to digits 0 and 1, each image is 2×2
  mean-pooled down to 16 values, and the first 10 pooled values become
  the features. A path to the CSV must be supplied.

Both get a stratified 80/20 train/test split drawn from the seed, and
per-dimension min/max scaling to [0, π] computed on the train split only
(test rows are clipped into the same range). Given ``bounds``, such as a
saved model's, every row is scaled and clipped by those instead, so the
model sees its features the way it was trained.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

DATASET_NAMES = ("iris", "digits01")
FEATURE_COUNTS = {"iris": 4, "digits01": 10}
TRAIN_FRACTION = 0.8


@dataclass
class Dataset:
    name: str
    features: np.ndarray  # (n_samples, n_features), scaled to [0, π]
    labels: np.ndarray  # (n_samples,) int class ids
    train_idx: np.ndarray
    test_idx: np.ndarray
    lo: np.ndarray  # pre-scale bounds the features were scaled by
    hi: np.ndarray
    class_names: tuple[str, ...]
    seed: int

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def train_x(self) -> np.ndarray:
        return self.features[self.train_idx]

    @property
    def train_y(self) -> np.ndarray:
        return self.labels[self.train_idx]

    @property
    def test_x(self) -> np.ndarray:
        return self.features[self.test_idx]

    @property
    def test_y(self) -> np.ndarray:
        return self.labels[self.test_idx]


def _read_csv(path) -> list[list[str]]:
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise FileNotFoundError(f"cannot read dataset file {path}: {exc}") from exc
    if not rows:
        raise ValueError(f"dataset file {path} is empty")
    # optional header: first row whose first cell is not a number
    try:
        float(rows[0][0])
    except ValueError:
        rows = rows[1:]
    if not rows:
        raise ValueError(f"dataset file {path} has no data rows")
    return rows


def _parse_rows(rows, n_features: int, path) -> tuple[np.ndarray, list[str]]:
    feats = np.empty((len(rows), n_features))
    labels = []
    for i, row in enumerate(rows):
        if len(row) != n_features + 1:
            raise ValueError(
                f"{path}: row {i + 1} has {len(row)} columns, expected {n_features + 1}"
            )
        try:
            feats[i] = [float(v) for v in row[:n_features]]
        except ValueError as exc:
            raise ValueError(f"{path}: row {i + 1}: {exc}") from None
        if not np.isfinite(feats[i]).all():
            raise ValueError(f"{path}: row {i + 1} has a non-finite value")
        labels.append(row[n_features].strip())
    return feats, labels


def _pool_digits(pixels: np.ndarray) -> np.ndarray:
    """8×8 images → 2×2 mean pooling → 16 values; keep the first 10."""
    imgs = pixels.reshape(-1, 8, 8)
    pooled = imgs.reshape(-1, 4, 2, 4, 2).mean(axis=(2, 4)).reshape(-1, 16)
    return pooled[:, : FEATURE_COUNTS["digits01"]]


def _stratified_split(labels: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    train, test = [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        cut = int(TRAIN_FRACTION * len(idx))
        train.extend(idx[:cut])
        test.extend(idx[cut:])
    return np.sort(np.array(train)), np.sort(np.array(test))


def load_dataset(name: str, path=None, seed: int = 0, bounds=None) -> Dataset:
    """Load, split, and scale one of the supported datasets.

    ``bounds`` is an optional (lo, hi) pair of per-feature arrays, one
    entry per feature, to scale by; without it the train split's minima
    and maxima are used. Raises ValueError when a class has fewer than 2
    rows, which would leave its train or test split empty.
    """
    if name == "iris":
        if path is None:
            path = resources.files("pqc_forge").joinpath("data/iris.csv")
        rows = _read_csv(path)
        feats, raw_labels = _parse_rows(rows, FEATURE_COUNTS["iris"], path)
        class_names = tuple(sorted(set(raw_labels)))
        label_ids = {c: i for i, c in enumerate(class_names)}
        labels = np.array([label_ids[l] for l in raw_labels])
    elif name == "digits01":
        if path is None:
            raise ValueError("digits01 needs an explicit CSV path")
        rows = _read_csv(path)
        pixels, raw_labels = _parse_rows(rows, 64, path)
        try:
            digit = np.array([int(float(l)) for l in raw_labels])
        except ValueError:
            raise ValueError(f"{path}: digits labels must be integers") from None
        keep = (digit == 0) | (digit == 1)
        if not keep.any():
            raise ValueError(f"{path}: no rows with digit 0 or 1")
        feats = _pool_digits(pixels[keep])
        labels = digit[keep]
        class_names = ("0", "1")
    else:
        raise ValueError(f"unknown dataset {name!r}; expected one of {DATASET_NAMES}")

    for cls, count in zip(class_names, np.bincount(labels, minlength=len(class_names))):
        if count < 2:
            raise ValueError(
                f"{path}: class {cls!r} has {count} row(s); a train/test split needs 2"
            )
    train_idx, test_idx = _stratified_split(labels, seed)
    if bounds is None:
        lo, hi = feats[train_idx].min(axis=0), feats[train_idx].max(axis=0)
    else:
        lo, hi = bounds
    span = np.where(hi > lo, hi - lo, 1.0)
    scaled = np.clip((feats - lo) / span, 0.0, 1.0) * np.pi
    return Dataset(
        name=name,
        features=scaled,
        labels=labels,
        train_idx=train_idx,
        test_idx=test_idx,
        lo=lo,
        hi=hi,
        class_names=class_names,
        seed=seed,
    )
