#!/usr/bin/env python3
"""Value equality of the program's outputs in two checkouts.

    python3 tools/equiv.py PARENT_DIR CHANGE_DIR

Runs one fixed list of items in a child process per checkout, each
importing ``pqc_forge`` from that checkout's ``src/`` with BLAS pinned to
one thread:

* ``sim.run_batch`` on random circuits with cnot runs;
* ``circuit.metrics`` of 200 random circuits over every gate kind (ids,
  y, r gates, frozen rotations and cnots) and of the BEL and SEL ansatzes
  on 2-10 qubits;
* per model (BEL and SEL on 2-10 qubits, seed 0, Iris seed 0): the
  encoded states, the test-split logits, and loss, angle gradient and
  readout gradient of a 16-row batch;
* per trained model (BEL(5,8) and SEL(5,8)): 3 training epochs,
  then both optimize modes at tolerance 0.05 (serialized circuit and
  ``report.as_dict()``), then 2 retraining epochs of each result;
* the ``json.dumps`` text of both ``metrics`` lists and of every optimize
  report, as the CLI writes it: the value items above cannot see a key
  order or a tuple that replaced a list.
* ``greedy.transform_batch`` of 480 random targets per distance metric
  (random unitaries and alphabet words), in stacks of 24 with random
  ``iterations``, ``top_k``, ``restarts`` and int, tuple or None keys:
  every word and ``final_dist.hex()``, so the search kernel is compared
  directly, not only through the optimize passes;
* the ``--help`` text of the ``pqc-forge`` group and of each of its
  commands, through ``click.testing.CliRunner`` on ``pqc_forge.cli.main``,
  so a CLI refactor is checked byte for byte.

An item is reduced to a SHA-256 of its values: floats and arrays are
hashed after adding 0.0, so -0.0 and 0.0 hash alike, and wall times are
dropped. Prints the first item whose hashes differ and exits 1, or the
number of value-equal items and exits 0. Stdlib, numpy and click only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

TRAIN_EPOCHS, RETRAIN_EPOCHS, BATCH, TOLERANCE = 3, 2, 16, 0.05
SHAPES = (("bel", 2, 4), ("sel", 2, 4), ("sel", 3, 5), ("bel", 5, 8), ("sel", 5, 8), ("sel", 3, 10))
TRAINED = (("bel", 5, 8), ("sel", 5, 8))


def _feed(h, value) -> None:
    if isinstance(value, dict):
        h.update(b"{")
        for key in sorted(value):
            _feed(h, key)
            _feed(h, value[key])
        h.update(b"}")
    elif isinstance(value, (list, tuple)):
        h.update(f"[{len(value)}".encode())
        for v in value:
            _feed(h, v)
    elif isinstance(value, (float, complex, np.ndarray, np.floating, np.complexfloating)):
        a = np.asarray(value)
        if a.dtype.kind in "fc":
            a = a + 0.0  # -0.0 + 0.0 is 0.0: signed zeros hash alike
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    else:
        h.update(repr(value).encode())


def digest(value) -> str:
    """SHA-256 of ``value``'s values: nested dicts, lists, arrays and scalars."""
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()


def _history(history) -> list[dict]:
    return [{k: v for k, v in e.items() if k != "wall_s"} for e in history.epochs]


def _trained(model, history) -> dict:
    from pqc_forge.qnn import training

    return {
        "angles": training.get_params(model.ansatz),
        "scale": model.readout_scale,
        "bias": model.readout_bias,
        "history": _history(history),
    }


def _random_circuits(rng):
    """Circuits on 1-8 qubits whose cnot runs are 1-12 long, repeats included."""
    from pqc_forge.circuit import Circuit, Op
    from pqc_forge.gates import ALPHABET, GateKind

    for n in range(1, 9):
        ops = []
        for _ in range(12):
            q = int(rng.integers(n))
            if rng.random() < 0.5:
                ops.append(Op(GateKind.RY, (q,), (float(rng.uniform(-3, 3)),), True))
            else:
                ops.append(Op(ALPHABET[rng.integers(len(ALPHABET))], (q,)))
            if n > 1:
                for _ in range(int(rng.integers(13))):
                    c, t = rng.choice(n, size=2, replace=False)
                    ops.append(Op(GateKind.CNOT, (int(c), int(t))))
        yield Circuit(n, tuple(ops))


def _every_kind_circuits(rng, count=200):
    """Circuits on 1-8 qubits over every gate kind, some rotations frozen."""
    from pqc_forge.circuit import Circuit, Op
    from pqc_forge.gates import N_ANGLES, ROTATION_KINDS, GateKind

    for _ in range(count):
        n = int(rng.integers(1, 9))
        kinds = [k for k in GateKind if n > 1 or k is not GateKind.CNOT]
        ops = []
        for _ in range(int(rng.integers(0, 60))):
            kind = kinds[rng.integers(len(kinds))]
            if kind is GateKind.CNOT:
                c, t = rng.choice(n, size=2, replace=False)
                ops.append(Op(kind, (int(c), int(t))))
                continue
            angles = tuple(rng.uniform(-3, 3, N_ANGLES[kind]).tolist())
            trainable = kind in ROTATION_KINDS and rng.random() < 0.7
            ops.append(Op(kind, (int(rng.integers(n)),), angles, trainable))
        yield Circuit(n, tuple(ops))


def _searches(rng) -> list:
    """Words and exact distances of random ``transform_batch`` stacks."""
    from pqc_forge.gates import ALPHABET, unitary
    from pqc_forge.greedy import GreedyParams, transform_batch
    from pqc_forge.matrix import DistanceMetric

    out = []
    for metric in DistanceMetric:
        for _ in range(20):
            targets, keys = [], []
            for i in range(24):
                if i % 2:
                    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                    targets.append(np.linalg.qr(z)[0])
                else:
                    u = np.eye(2, dtype=complex)
                    for g in rng.integers(len(ALPHABET), size=int(rng.integers(0, 8))):
                        u = unitary(ALPHABET[g]) @ u
                    targets.append(u)
                keys.append([None, int(rng.integers(100)), (int(rng.integers(9)), i)][i % 3])
            params = GreedyParams(
                iterations=int(rng.integers(1, 31)),
                top_k=int(rng.integers(1, len(ALPHABET) + 1)),
                metric=metric,
                seed=int(rng.integers(100)),
                restarts=int(rng.integers(1, 11)),
            )
            results = transform_batch(targets, params, keys)
            out += [(r.mnemonics(), r.final_dist.hex()) for r in results]
    return out


def items():
    """(name, value) of every compared item, in a fixed order."""
    from pqc_forge import optimizer, qnn, sim
    from pqc_forge.circuit import metrics, serialize
    from pqc_forge.greedy import GreedyParams
    from pqc_forge.optimizer import OptimizeConfig, OptimizeMode
    from pqc_forge.qnn import training

    rng = np.random.default_rng(0)
    for i, c in enumerate(_random_circuits(rng)):
        dim = 1 << c.n_qubits
        states = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
        yield f"run_batch circuit {i}", sim.run_batch(c, states)

    random_metrics = [metrics(c).as_dict() for c in _every_kind_circuits(rng)]
    yield "metrics of random circuits", random_metrics
    yield "metrics of random circuits, JSON text", json.dumps(random_metrics)
    ansatz_metrics = [
        metrics(qnn.build_ansatz(qnn.LayerSpec(kind, layers, n), seed=0)).as_dict()
        for kind in qnn.LayerKind for layers in (1, 5, 8) for n in range(2, 11)
    ]
    yield "metrics of ansatzes", ansatz_metrics
    yield "metrics of ansatzes, JSON text", json.dumps(ansatz_metrics)
    yield "greedy searches", _searches(rng)

    data = qnn.load_dataset("iris", seed=0)
    x, y = data.train_x[:BATCH], data.train_y[:BATCH]
    models = {}
    for kind, layers, n in SHAPES:
        label = f"{kind.upper()}({layers},{n})"
        m = models[kind, layers, n] = qnn.build_model(
            qnn.LayerSpec(qnn.LayerKind(kind), layers, n), data, seed=0
        )
        affine = m.with_readout(np.linspace(-1.5, 2.0, m.n_classes), np.linspace(0.1, -0.2, m.n_classes))
        yield f"encode {label}", training.encode_batch(m, x)
        yield f"logits {label}", training.logits_batch(m, data.test_x)
        yield f"gradients {label}", training._loss_and_gradients(m, x, y)
        yield f"gradients {label} affine readout", training._loss_and_gradients(affine, x, y)

    for kind, layers, n in TRAINED:
        label = f"{kind.upper()}({layers},{n})"
        trained, history = qnn.train(
            models[kind, layers, n], data, qnn.TrainConfig(TRAIN_EPOCHS, seed=0)
        )
        yield f"train {label}", _trained(trained, history)
        for mode in OptimizeMode:
            cfg = OptimizeConfig(TOLERANCE, GreedyParams(seed=0), mode)
            out, report = optimizer.optimize(trained.ansatz, cfg)
            yield f"optimize {label} {mode.value}", {
                "circuit": serialize(out), "report": report.as_dict()
            }
            yield f"optimize {label} {mode.value} report, JSON text", json.dumps(report.as_dict())
            retrained, history = qnn.retrain(
                trained.with_ansatz(out), data, qnn.TrainConfig(RETRAIN_EPOCHS, seed=0)
            )
            yield f"retrain {label} {mode.value}", _trained(retrained, history)

    yield from _help_texts()


def _help_texts():
    """(name, ``--help`` output) of the CLI group and of each command."""
    from click.testing import CliRunner

    from pqc_forge.cli import main

    runner = CliRunner()
    yield "--help", runner.invoke(main, ["--help"]).output
    for name in sorted(main.commands):
        yield f"{name} --help", runner.invoke(main, [name, "--help"]).output


def emit(checkout: Path) -> None:
    """Print one JSON line per item: its name and digest."""
    sys.path.insert(0, str(checkout / "src"))
    for name, value in items():
        print(json.dumps({"item": name, "digest": digest(value)}), flush=True)


def collect(checkout: Path) -> list[dict]:
    """The items of one checkout; a failing child's stderr is passed on."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--emit", str(checkout.resolve())],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"equiv: the run in {checkout} failed")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", type=Path, nargs="*", metavar="DIR")
    ap.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.emit:
        emit(args.emit)
        return 0
    if len(args.checkouts) != 2:
        ap.error("expected PARENT_DIR CHANGE_DIR")
    parent, change = (collect(c) for c in args.checkouts)
    for p, c in zip(parent, change):
        if p != c:
            print(f"differs: {p['item']} (parent {p['digest'][:16]}, change {c['digest'][:16]})"
                  if p["item"] == c["item"] else f"differs: item {p['item']} vs {c['item']}")
            return 1
    if len(parent) != len(change):
        print(f"differs: {len(parent)} items in the parent, {len(change)} in the change")
        return 1
    print(f"{len(parent)} items value-equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
