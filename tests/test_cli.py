"""CLI surface: flags, files, exit codes, idempotency."""

import csv
import hashlib
import io
import json
import math
import re
from importlib import resources

import numpy as np
import pytest
from click.testing import CliRunner

from pqc_forge import circuit as circ, qnn
from pqc_forge.circuit import Circuit, Op
from pqc_forge.cli import main
from pqc_forge.gates import GateKind


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args, env=None):
    return runner.invoke(main, list(args), env=env, catch_exceptions=False)


def write_bel(path, layers=5, n=8, seed=0):
    c = qnn.build_ansatz(qnn.LayerSpec(qnn.LayerKind.BASIC_ENTANGLER, layers, n), seed)
    circ.save(c, path)
    return c


def strip_timestamps(text):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "-"', text)


def test_approx_gate_zero_angle(runner):
    result = invoke(runner, "approx-gate", "--gate", "rx", "--angle", "0")
    assert result.exit_code == 0
    assert "final dist:  0.0" in result.output


def test_approx_gate_pi(runner):
    result = invoke(runner, "approx-gate", "--gate", "rx", "--angle", "3.14159", "--seed", "0")
    assert result.exit_code == 0
    dist = float(result.output.split("final dist:")[1].split()[0])
    assert dist <= 1e-6


def test_approx_gate_grid_mirrors_published_table(runner):
    step = math.pi / 4
    result = invoke(
        runner, "approx-gate", "--gate", "rx",
        "--angle-grid", "0", str(2 * math.pi), str(step), "--seed", "1",
    )
    assert result.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert len(rows) == 9  # angles 0..2pi in pi/4 steps
    assert all(float(r["oracle_dist_len4"]) <= 1e-9 for r in rows)


def test_approx_gate_usage_errors(runner):
    result = runner.invoke(main, ["approx-gate", "--gate", "rx"])
    assert result.exit_code == 2
    result = runner.invoke(
        main,
        ["approx-gate", "--gate", "rx", "--angle", "1", "--angle-grid", "0", "1", "0.5"],
    )
    assert result.exit_code == 2
    result = runner.invoke(main, ["approx-gate", "--gate", "cz", "--angle", "1"])
    assert result.exit_code == 2
    result = runner.invoke(
        main, ["approx-gate", "--gate", "rx", "--angle", "1", "--restarts", "0"]
    )
    assert result.exit_code == 2
    assert "Error: restarts must be >= 1, got 0" in result.output
    for flags, message in [
        (["--angle", "inf"], "Invalid value for '--angle': must be finite, got inf"),
        (["--angle", "nan"], "Invalid value for '--angle': must be finite, got nan"),
        (
            ["--angle-grid", "0", "1", "nan"],
            "Invalid value for '--angle-grid': must be finite, got (0.0, 1.0, nan)",
        ),
    ]:
        result = runner.invoke(main, ["approx-gate", "--gate", "rx", *flags])
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert errors == [f"Error: {message}"]


def test_env_seed_fallback(runner):
    with_env = invoke(
        runner, "approx-gate", "--gate", "ry", "--angle", "1.0", env={"PQC_FORGE_SEED": "5"}
    )
    with_flag = invoke(runner, "approx-gate", "--gate", "ry", "--angle", "1.0", "--seed", "5")
    assert with_env.output == with_flag.output
    bad = runner.invoke(
        main, ["approx-gate", "--gate", "ry", "--angle", "1.0"], env={"PQC_FORGE_SEED": "x"}
    )
    assert bad.exit_code == 2


def test_metrics_reports_published_baseline(runner, tmp_path):
    path = tmp_path / "bel.qc"
    write_bel(path)
    result = invoke(runner, "metrics", "--in", str(path))
    assert result.exit_code == 0
    assert "decomposed gate count: 240" in result.output
    assert "remaining parameters:  40" in result.output
    json_path = tmp_path / "m.json"
    result = invoke(runner, "metrics", "--in", str(path), "--json", str(json_path))
    payload = json.loads(json_path.read_text())
    assert payload["decomposed_gate_count"] == 240
    assert payload["manifest"]["command"] == "metrics"


def test_metrics_missing_file_exits_1(runner, tmp_path):
    result = runner.invoke(main, ["metrics", "--in", str(tmp_path / "nope.qc")])
    assert result.exit_code == 1
    assert "error:" in result.output


def test_metrics_parse_error_exits_1(runner, tmp_path):
    bad = tmp_path / "bad.qc"
    bad.write_text("qubits 2\nrx 5 0.1\n")
    result = runner.invoke(main, ["metrics", "--in", str(bad)])
    assert result.exit_code == 1
    assert "line 2" in result.output


def test_optimize_writes_files_and_preserves_input(runner, tmp_path):
    path = tmp_path / "bel.qc"
    write_bel(path, layers=2, n=4)
    before = hashlib.sha256(path.read_bytes()).hexdigest()
    out = tmp_path / "out.qc"
    report = tmp_path / "report.json"
    result = invoke(
        runner, "optimize", "--in", str(path), "--tolerance", "0.05",
        "--out", str(out), "--report", str(report),
    )
    assert result.exit_code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == before
    payload = json.loads(report.read_text())
    assert payload["tolerance"] == 0.05
    assert payload["before"]["gates"] >= payload["after"]["gates"]
    assert payload["manifest"]["command"] == "optimize"
    circ.load(out)  # parses back


def test_manifest_records_every_resolved_flag(runner, tmp_path):
    path = tmp_path / "bel.qc"
    write_bel(path, layers=1, n=2)
    report = tmp_path / "report.json"
    invoke(
        runner, "optimize", "--in", str(path), "--tolerance", "0.05", "--iters", "5",
        "--top-k", "2", "--seed", "3", "--report", str(report),
    )
    flags = json.loads(report.read_text())["manifest"]["flags"]
    assert flags == {
        "in": str(path), "tolerance": 0.05, "mode": "per-gate", "iters": 5,
        "top-k": 2, "metric": "phase-invariant", "seed": 3, "report": str(report),
    }


def test_optimize_idempotent_modulo_timestamps(runner, tmp_path):
    path = tmp_path / "bel.qc"
    write_bel(path, layers=2, n=4)
    out = tmp_path / "out.qc"
    report = tmp_path / "report.json"
    outs = []
    for _ in range(2):
        invoke(
            runner, "optimize", "--in", str(path), "--tolerance", "0.05",
            "--seed", "3", "--out", str(out), "--report", str(report),
        )
        outs.append((out.read_text(), strip_timestamps(report.read_text())))
    assert outs[0] == outs[1]


def test_sweep_writes_csv_with_manifest(runner, tmp_path):
    path = tmp_path / "bel.qc"
    write_bel(path, layers=2, n=4)
    out = tmp_path / "sweep.csv"
    result = invoke(
        runner, "sweep", "--in", str(path), "--tolerances", "0.1,0.01,0.001",
        "--out", str(out),
    )
    assert result.exit_code == 0
    rows = list(csv.DictReader(out.open()))
    assert [r["tolerance"] for r in rows] == ["0.1", "0.01", "0.001"]
    assert (tmp_path / "sweep.csv.manifest.json").exists()


def test_sweep_bad_tolerances_usage_error(runner, tmp_path):
    path = tmp_path / "bel.qc"
    write_bel(path, layers=1, n=2)
    result = runner.invoke(main, ["sweep", "--in", str(path), "--tolerances", "abc"])
    assert result.exit_code == 2


def test_train_eval_optimize_retrain_pipeline(runner, tmp_path):
    model_path = tmp_path / "model.qc"
    result = invoke(
        runner, "train", "--dataset", "iris", "--layer-kind", "bel",
        "--layers", "1", "--qubits", "4", "--epochs", "2", "--out", str(model_path),
    )
    assert result.exit_code == 0
    assert model_path.exists()
    assert (tmp_path / "model.json").exists()
    assert (tmp_path / "model.history.json").exists()
    history = json.loads((tmp_path / "model.history.json").read_text())
    assert len(history["epochs"]) == 2

    result = invoke(runner, "eval", "--model", str(model_path))
    assert result.exit_code == 0
    assert "test accuracy" in result.output

    opt_path = tmp_path / "model.opt.qc"
    result = invoke(
        runner, "optimize", "--in", str(model_path), "--tolerance", "0.05",
        "--out", str(opt_path),
    )
    assert result.exit_code == 0
    assert (tmp_path / "model.opt.json").exists()  # sidecar carried over
    trained_readout = qnn.load_model(model_path).readout_scale
    assert np.array_equal(qnn.load_model(opt_path).readout_scale, trained_readout)

    retrained = tmp_path / "model.retrained.qc"
    result = invoke(
        runner, "retrain", "--model", str(opt_path), "--epochs", "2",
        "--out", str(retrained),
    )
    assert result.exit_code == 0
    assert not np.array_equal(qnn.load_model(retrained).readout_scale, trained_readout)
    result = invoke(runner, "eval", "--model", str(retrained))
    assert result.exit_code == 0


def test_sweep_with_dataset_adds_accuracy(runner, tmp_path):
    model_path = tmp_path / "model.qc"
    invoke(
        runner, "train", "--dataset", "iris", "--layer-kind", "bel",
        "--layers", "1", "--qubits", "4", "--epochs", "1", "--out", str(model_path),
    )
    out = tmp_path / "sweep.csv"
    result = invoke(
        runner, "sweep", "--in", str(model_path), "--tolerances", "0.05,0.1",
        "--dataset", "iris", "--out", str(out),
    )
    assert result.exit_code == 0
    rows = list(csv.DictReader(out.open()))
    assert all(0.0 <= float(r["accuracy"]) <= 1.0 for r in rows)


def test_sweep_dataset_without_sidecar_fails(runner, tmp_path):
    path = tmp_path / "bare.qc"
    write_bel(path, layers=1, n=4)
    result = runner.invoke(
        main, ["sweep", "--in", str(path), "--tolerances", "0.1", "--dataset", "iris"]
    )
    assert result.exit_code == 1
    assert "sidecar" in result.output


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda meta: meta.pop("n_classes"), "lacks the key 'n_classes'"),
        (lambda meta: meta.update(n_qubits=5), "says 5 qubits, the circuit has 4"),
        (lambda meta: meta.update(n_classes=5), "reads 5 classes out of 4 qubits"),
        (
            lambda meta: meta["normalization"].update(lo=[0.0] * 3),
            "has 3 lo bounds for 4 features",
        ),
        (
            lambda meta: meta["normalization"]["hi"].__setitem__(2, float("inf")),
            "has a non-finite hi bound",
        ),
        (
            lambda meta: meta["normalization"].update(hi=meta["normalization"]["lo"][::-1]),
            "has a hi bound below its lo bound",
        ),
        (
            lambda meta: meta["readout_scale"].__setitem__(0, float("nan")),
            "has a non-finite readout scale",
        ),
        (
            lambda meta: meta["readout_bias"].__setitem__(2, float("-inf")),
            "has a non-finite readout bias",
        ),
        (
            lambda meta: meta.update(normalization=None),
            "has a malformed entry: 'NoneType' object is not subscriptable",
        ),
        (
            lambda meta: meta.update(feature_count=0, normalization={"lo": [], "hi": []}),
            "needs at least one class and one feature, got 3 and 0",
        ),
        (
            lambda meta: meta.update(n_classes=0, readout_scale=[], readout_bias=[]),
            "needs at least one class and one feature, got 0 and 4",
        ),
    ],
    ids=[
        "missing-key", "qubit-count", "class-count", "bounds-length", "bounds-non-finite",
        "bounds-reversed", "readout-nan", "readout-infinity", "wrong-type",
        "no-features", "no-classes",
    ],
)
def test_eval_rejects_bad_sidecar(runner, tmp_path, edit, message):
    path = tmp_path / "model.qc"
    spec = qnn.LayerSpec(qnn.LayerKind.BASIC_ENTANGLER, 1, 4)
    qnn.save_model(qnn.build_model(spec, qnn.load_dataset("iris")), path)
    side = qnn.sidecar_path(path)
    meta = json.loads(side.read_text())
    edit(meta)
    side.write_text(json.dumps(meta))
    result = invoke(runner, "eval", "--model", str(path))
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    assert result.output.splitlines() == [f"error: cannot load model {path}: {side} {message}"]


def test_eval_rejects_a_model_that_does_not_fit_its_dataset(runner, tmp_path):
    path = tmp_path / "model.qc"
    spec = qnn.LayerSpec(qnn.LayerKind.BASIC_ENTANGLER, 1, 8)
    qnn.save_model(qnn.build_model(spec, qnn.load_dataset("iris")), path)
    side = qnn.sidecar_path(path)
    meta = json.loads(side.read_text())
    meta.update(feature_count=5, normalization={"lo": [0.0] * 5, "hi": [1.0] * 5})
    side.write_text(json.dumps(meta))
    result = invoke(runner, "eval", "--model", str(path))
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        f"error: model {path} encodes 5 features, dataset iris has 4"
    ]


def test_eval_scales_other_data_by_the_stored_bounds(runner, tmp_path):
    path = tmp_path / "model.qc"
    iris = qnn.load_dataset("iris")
    model = qnn.build_model(qnn.LayerSpec(qnn.LayerKind.BASIC_ENTANGLER, 1, 4), iris)
    qnn.save_model(model, path)
    # the bundled rows, moved to another feature range
    with (resources.files("pqc_forge") / "data" / "iris.csv").open() as fh:
        rows = list(csv.reader(fh))[1:]
    raw = np.array([[float(v) for v in row[:4]] for row in rows]) * 0.5 + 1.0
    other = tmp_path / "other.csv"
    with other.open("w", newline="") as fh:
        csv.writer(fh).writerows([*x, row[4]] for x, row in zip(raw, rows))
    scaled = np.clip((raw - model.lo) / (model.hi - model.lo), 0.0, 1.0) * np.pi
    want = qnn.accuracy(model, scaled[iris.test_idx], iris.labels[iris.test_idx])
    # the file's own range would score the model differently
    assert want != qnn.accuracy(model, iris.test_x, iris.test_y)
    result = invoke(runner, "eval", "--model", str(path), "--data", str(other))
    assert result.exit_code == 0
    assert f"test accuracy:  {want:.4f}" in result.output.splitlines()


def test_retrain_zero_parameters_warns(runner, tmp_path):
    model_path = tmp_path / "model.qc"
    invoke(
        runner, "train", "--dataset", "iris", "--layer-kind", "bel",
        "--layers", "1", "--qubits", "4", "--epochs", "1", "--out", str(model_path),
    )
    model = qnn.load_model(model_path)
    frozen = Circuit(4, tuple(Op(op.kind, op.qubits, op.angles, False) for op in model.ansatz.ops))
    qnn.save_model(model.with_ansatz(frozen), model_path)
    result = invoke(
        runner, "retrain", "--model", str(model_path), "--epochs", "2",
        "--out", str(tmp_path / "re.qc"),
    )
    assert result.exit_code == 0
    assert "warning" in result.output or "unchanged" in result.output


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("optimize", ["--tolerance", "0"], "tolerance must be in (0, 1], got 0.0"),
        ("optimize", ["--tolerance", "0.05", "--iters", "0"], "iterations must be >= 1, got 0"),
        ("sweep", ["--tolerances", "0.1,0"], "tolerance must be in (0, 1], got 0.0"),
        ("retrain", ["--epochs", "0"], "epochs must be >= 1, got 0"),
        (
            "train",
            ["--dataset", "iris", "--qubits", "4", "--lr", "nan"],
            "learning rate must be finite and > 0, got nan",
        ),
        ("retrain", ["--lr", "inf"], "learning rate must be finite and > 0, got inf"),
        (
            "train",
            ["--dataset", "iris", "--qubits", "2"],
            "3 classes need at least that many qubits, got 2",
        ),
    ],
    ids=[
        "optimize-tolerance-0",
        "optimize-iters-0",
        "sweep-later-tolerance-0",
        "retrain-epochs-0",
        "train-lr-nan",
        "retrain-lr-inf",
        "train-qubits-2",
    ],
)
def test_invalid_config_values_exit_2(runner, tmp_path, command, flags, message):
    path = tmp_path / "model.qc"
    iris = qnn.load_dataset("iris")
    spec = qnn.LayerSpec(qnn.LayerKind.BASIC_ENTANGLER, 1, 4)
    qnn.save_model(qnn.build_model(spec, iris), path)
    where = {
        "optimize": ["--in", str(path)],
        "sweep": ["--in", str(path)],
        "retrain": ["--model", str(path)],
    }.get(command, [])
    result = runner.invoke(main, [command, *where, *flags, "--out", str(tmp_path / "out.qc")])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert errors == [f"Error: {message}"]
    assert not (tmp_path / "out.qc").exists()
