"""CLI surface: flags, files, exit codes, idempotency."""

import csv
import hashlib
import io
import json
import math
import re
import warnings
from importlib import resources

import numpy as np
import click
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
        (["--angle-grid", "1", "0", "0.5"], "--angle-grid STOP must be >= START"),
        # grids whose point count overflows a float
        *(
            (["--angle-grid", *grid], "--angle-grid (STOP - START) / STEP must be finite, got inf")
            for grid in (("0", "1e308", "1e-308"), ("0", "1", "1e-320"), ("-1e308", "1e308", "1e308"))
        ),
    ]:
        result = runner.invoke(main, ["approx-gate", "--gate", "rx", *flags])
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert errors == [f"Error: {message}"]
    # START == STOP is a grid of one angle
    result = invoke(runner, "approx-gate", "--gate", "rx", "--angle-grid", "1", "1", "0.5")
    assert result.exit_code == 0
    assert "gate:        rx(1)" in result.output


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


def json_out_error(result, out):
    assert result.exit_code == 2
    assert f"--out's sidecar {out} and --out {out} are the same file" in result.output
    assert "Traceback" not in result.output


def test_train_rejects_a_json_out_path(runner, tmp_path):
    out = tmp_path / "m.json"
    result = runner.invoke(main, [
        "train", "--dataset", "iris", "--qubits", "4", "--layers", "1", "--epochs", "1",
        "--out", str(out),
    ])
    json_out_error(result, out)
    assert list(tmp_path.iterdir()) == []


def test_retrain_rejects_a_json_out_path(runner, tmp_path):
    path = tmp_path / "model.qc"
    spec = qnn.LayerSpec(qnn.LayerKind.BASIC_ENTANGLER, 1, 4)
    qnn.save_model(qnn.build_model(spec, qnn.load_dataset("iris")), path)
    out = tmp_path / "re.json"
    result = runner.invoke(main, ["retrain", "--model", str(path), "--out", str(out)])
    json_out_error(result, out)
    assert not out.exists()


def test_optimize_rejects_a_json_out_path_only_for_a_model(runner, tmp_path):
    path = tmp_path / "model.qc"
    spec = qnn.LayerSpec(qnn.LayerKind.BASIC_ENTANGLER, 1, 4)
    qnn.save_model(qnn.build_model(spec, qnn.load_dataset("iris")), path)
    out = tmp_path / "o.json"
    result = runner.invoke(
        main, ["optimize", "--in", str(path), "--tolerance", "0.05", "--out", str(out)]
    )
    json_out_error(result, out)
    assert not out.exists()
    # a bare circuit has no sidecar to collide with, even under a .json name
    bare = tmp_path / "bare.json"
    bare.write_text("qubits 2\nrx 0 0.001\ncnot 0 1\n")
    result = invoke(runner, "optimize", "--in", str(bare), "--tolerance", "0.05", "--out", str(out))
    assert result.exit_code == 0
    assert [op.kind for op in circ.load(out).ops] == [GateKind.CNOT]


@pytest.mark.parametrize(
    "args",
    [
        ["optimize", "--in", "m.qc", "--tolerance", "0.05", "--out", "o.qc", "--report", "o.json"],
        ["optimize", "--in", "m.qc", "--tolerance", "0.05", "--out", "p.qc", "--report", "p.qc"],
        ["optimize", "--in", "m.qc", "--tolerance", "0.05", "--out", "q.qc", "--report", "m.json"],
        ["sweep", "--in", "m.qc", "--tolerances", "0.1", "--out", "m.qc"],
        ["sweep", "--in", "m.qc", "--tolerances", "0.1", "--out", "m.json"],
        ["metrics", "--in", "m.qc", "--json", "m.qc"],
        ["retrain", "--model", "m.qc", "--epochs", "1", "--out", "m.qc"],
    ],
    ids=[
        "optimize-report-is-out-sidecar",
        "optimize-report-is-out",
        "optimize-report-is-in-sidecar",
        "sweep-out-is-in",
        "sweep-out-is-in-sidecar",
        "metrics-json-is-in",
        "retrain-in-place",
    ],
)
def test_a_command_never_writes_over_its_own_files(runner, tmp_path, args):
    spec = qnn.LayerSpec(qnn.LayerKind.BASIC_ENTANGLER, 1, 4)
    qnn.save_model(qnn.build_model(spec, qnn.load_dataset("iris")), tmp_path / "m.qc")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    files = {"m.qc", "m.json", "o.qc", "o.json", "p.qc", "q.qc"}
    result = runner.invoke(main, [str(tmp_path / a) if a in files else a for a in args])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and errors[0].endswith("are the same file")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_train_on_a_class_with_one_row_exits_1(runner, tmp_path):
    data = tmp_path / "tiny.csv"
    with open(data, "w", newline="") as fh:
        csv.writer(fh).writerows([[0.0] * 64 + [0], [1.0] * 64 + [1]])
    out = tmp_path / "m.qc"
    result = runner.invoke(main, [
        "train", "--dataset", "digits01", "--data", str(data), "--qubits", "2",
        "--layers", "1", "--epochs", "1", "--out", str(out),
    ])
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        f"error: cannot load dataset digits01: {data}: class '0' has 1 row(s); "
        "a train/test split needs 2"
    ]
    assert not out.exists()


def test_train_with_an_infinite_digits_label_exits_1(runner, tmp_path):
    data = tmp_path / "digits.csv"
    with open(data, "w", newline="") as fh:
        csv.writer(fh).writerows(
            [[0.0] * 64 + [0], [0.5] * 64 + [0], [1.0] * 64 + [1], [2.0] * 64 + ["inf"]]
        )
    out = tmp_path / "m.qc"
    result = runner.invoke(main, [
        "train", "--dataset", "digits01", "--data", str(data), "--qubits", "2",
        "--layers", "1", "--epochs", "1", "--out", str(out),
    ])
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    assert result.output.splitlines() == [
        f"error: cannot load dataset digits01: {data}: digits labels must be integers"
    ]
    assert [p.name for p in tmp_path.iterdir()] == ["digits.csv"]


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
        (
            lambda meta: meta.update(n_qubits=4.7),
            "has a malformed entry: n_qubits must be an integer, got 4.7",
        ),
        (
            lambda meta: meta.update(n_classes="3"),
            'has a malformed entry: n_classes must be an integer, got "3"',
        ),
        (
            lambda meta: meta.update(seed=2.9),
            "has a malformed entry: seed must be an integer, got 2.9",
        ),
        (
            lambda meta: meta.update(feature_count=True),
            "has a malformed entry: feature_count must be an integer, got true",
        ),
        (
            lambda meta: meta.update(readout_qubits=[3, 2, 1]),
            "has a malformed entry: readout_qubits must be [0, 1, 2], got [3, 2, 1]",
        ),
        (
            lambda meta: meta.update(split_seed=-1),
            "has a malformed entry: split_seed must be >= 0, got -1",
        ),
        (
            lambda meta: meta.update(seed=-1),
            "has a malformed entry: seed must be >= 0, got -1",
        ),
        (
            lambda meta: meta.update(n_qubits=40),
            "has a malformed entry: n_qubits must be <= 20, got 40",
        ),
        (
            lambda meta: meta.update(version=99),
            "has a malformed entry: version must be 1 or 2, got 99",
        ),
        (
            lambda meta: meta.update(version=2.0),
            "has a malformed entry: version must be 1 or 2, got 2.0",
        ),
        (
            lambda meta: meta["encoding"].update(kind="angle-ry"),
            'has a malformed entry: encoding.kind must be "cyclic-rx", got "angle-ry"',
        ),
        (
            lambda meta: meta["layer"].update(kind="zzz"),
            "has a malformed entry: 'zzz' is not a valid LayerKind",
        ),
        (
            lambda meta: meta["layer"].update(kind=5),
            "has a malformed entry: 5 is not a valid LayerKind",
        ),
        (
            lambda meta: meta["layer"].update(layers=0),
            "has a malformed entry: layers must be >= 1, got 0",
        ),
        (
            lambda meta: meta["layer"].update(layers=-3),
            "has a malformed entry: layers must be >= 1, got -3",
        ),
    ],
    ids=[
        "missing-key", "qubit-count", "class-count", "bounds-length", "bounds-non-finite",
        "bounds-reversed", "readout-nan", "readout-infinity", "wrong-type",
        "no-features", "no-classes", "float-qubits", "string-classes", "float-seed",
        "bool-features", "readout-qubits", "negative-split-seed", "negative-seed",
        "too-many-qubits", "unknown-version", "float-version", "unknown-encoding",
        "layer-kind-unknown", "layer-kind-number", "layers-zero", "layers-negative",
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


def test_retrain_zero_angles_trains_the_readout(runner, tmp_path):
    model_path = tmp_path / "model.qc"
    invoke(
        runner, "train", "--dataset", "iris", "--layer-kind", "bel",
        "--layers", "1", "--qubits", "4", "--epochs", "1", "--out", str(model_path),
    )
    model = qnn.load_model(model_path)
    frozen = Circuit(4, tuple(Op(op.kind, op.qubits, op.angles, False) for op in model.ansatz.ops))
    qnn.save_model(model.with_ansatz(frozen), model_path)
    out = tmp_path / "re.qc"
    result = invoke(runner, "retrain", "--model", str(model_path), "--epochs", "2", "--out", str(out))
    assert result.exit_code == 0
    assert "retrained: test accuracy " in result.output
    assert "warning" not in result.output
    retrained = qnn.load_model(out)
    assert retrained.ansatz == frozen
    assert not np.array_equal(retrained.readout_bias, model.readout_bias)
    history = json.loads((tmp_path / "re.history.json").read_text())
    assert [e["epoch"] for e in history["epochs"]] == [1, 2]
    assert all(e["grad_norm"] > 0 for e in history["epochs"])
    assert "warnings" not in history


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


def test_train_rejects_too_many_qubits_before_any_work(runner, tmp_path):
    # the missing data file is never opened: the register size fails first
    result = invoke(
        runner, "train", "--dataset", "iris", "--data", str(tmp_path / "missing.csv"),
        "--qubits", "40", "--out", str(tmp_path / "model.qc"),
    )
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert errors == ["Error: n_qubits must be <= 20, got 40"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args, env",
    [
        (["approx-gate", "--gate", "rx", "--angle", "1", "--seed", "-1"], None),
        (["optimize", "--in", "m.qc", "--tolerance", "0.05", "--out", "o.qc", "--seed", "-1"], None),
        (["train", "--dataset", "iris", "--qubits", "4", "--out", "o.qc", "--seed", "-1"], None),
        (["train", "--dataset", "iris", "--qubits", "4", "--out", "o.qc"], {"PQC_FORGE_SEED": "-1"}),
    ],
    ids=["approx-gate", "optimize", "train", "env"],
)
def test_a_negative_seed_is_a_usage_error(runner, tmp_path, args, env):
    spec = qnn.LayerSpec(qnn.LayerKind.BASIC_ENTANGLER, 1, 4)
    qnn.save_model(qnn.build_model(spec, qnn.load_dataset("iris")), tmp_path / "m.qc")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    result = runner.invoke(
        main, [str(tmp_path / a) if a in {"m.qc", "o.qc"} else a for a in args], env=env
    )
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert errors == ["Error: seed must be >= 0, got -1"]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_angle_grid_never_passes_stop(runner):
    def grid(*flags):
        result = invoke(runner, "approx-gate", "--gate", "rx", "--iters", "1", "--angle-grid", *flags)
        assert result.exit_code == 0
        return [float(r["angle"]) for r in csv.DictReader(io.StringIO(result.output))]

    # 0.6 + 0.6 = 1.2 lies past STOP = 1
    assert grid("0", "1", "0.6") == [0.0, 0.6]
    # a whole number of steps keeps np.arange's angles bit for bit, STOP included
    assert grid("0.1", "1", "0.3") == list(np.arange(0.1, 1.15, 0.3))


def test_running_out_of_memory_is_one_error_line(runner, tmp_path, monkeypatch):
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 2.00 GiB for an array")

    monkeypatch.setattr(qnn, "train", out_of_memory)
    out = tmp_path / "m.qc"
    result = runner.invoke(main, [
        "train", "--dataset", "iris", "--qubits", "4", "--layers", "1", "--epochs", "1",
        "--out", str(out),
    ])
    assert result.exit_code == 1
    assert result.output.splitlines() == ["error: Unable to allocate 2.00 GiB for an array"]
    assert list(tmp_path.iterdir()) == []


def test_a_non_finite_dataset_value_exits_1(runner, tmp_path):
    with (resources.files("pqc_forge") / "data" / "iris.csv").open() as fh:
        rows = list(csv.reader(fh))
    rows[3][1], rows[7][0] = "nan", "inf"
    data = tmp_path / "bad.csv"
    with data.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    message = f"error: cannot load dataset iris: {data}: row 3 has a non-finite value"
    out = tmp_path / "m.qc"
    result = runner.invoke(main, [
        "train", "--dataset", "iris", "--data", str(data), "--qubits", "4", "--layers", "1",
        "--epochs", "1", "--out", str(out),
    ])
    assert result.exit_code == 1
    assert result.output.splitlines() == [message]
    assert not out.exists()
    spec = qnn.LayerSpec(qnn.LayerKind.BASIC_ENTANGLER, 1, 4)
    qnn.save_model(qnn.build_model(spec, qnn.load_dataset("iris")), out)
    result = runner.invoke(main, ["eval", "--model", str(out), "--data", str(data)])
    assert result.exit_code == 1
    assert result.output.splitlines() == [message]


def test_a_diverging_training_run_is_one_error_line(runner, tmp_path):
    out = tmp_path / "m.qc"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        result = invoke(
            runner, "train", "--dataset", "iris", "--qubits", "4", "--layers", "1",
            "--epochs", "2", "--lr", "1e300", "--out", str(out),
        )
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: training diverged in epoch 1: the loss or a parameter is no longer finite"
    ]
    assert list(tmp_path.iterdir()) == []


REQUIRED = "required"
GREEDY = [("seed", "--seed", 0), ("metric", "--metric", "phase-invariant"),
          ("top_k", "--top-k", 4), ("iters", "--iters", 20)]
TRAINING = [("lr", "--lr", 0.01), ("batch_size", "--batch-size", 16), ("seed", "--seed", 0)]
PARAMETERS = {
    "approx-gate": [
        ("gate", "--gate", REQUIRED), ("angle", "--angle", None),
        ("angle_grid", "--angle-grid", None), *GREEDY, ("restarts", "--restarts", 8),
    ],
    "metrics": [("in_path", "--in", REQUIRED), ("json_path", "--json", None)],
    "optimize": [
        ("in_path", "--in", REQUIRED), ("tolerance", "--tolerance", REQUIRED),
        ("mode", "--mode", "per-gate"), *GREEDY,
        ("out_path", "--out", None), ("report_path", "--report", None),
    ],
    "sweep": [
        ("in_path", "--in", REQUIRED), ("tolerances", "--tolerances", REQUIRED),
        ("mode", "--mode", "per-gate"), *GREEDY, ("dataset", "--dataset", None),
        ("data_path", "--data", None), ("out_path", "--out", None),
    ],
    "train": [
        ("dataset", "--dataset", REQUIRED), ("data_path", "--data", None),
        ("layer_kind", "--layer-kind", "bel"), ("layers", "--layers", 5),
        ("qubits", "--qubits", REQUIRED), ("epochs", "--epochs", 50), *TRAINING,
        ("out_path", "--out", REQUIRED),
    ],
    "retrain": [
        ("model_path", "--model", REQUIRED), ("dataset", "--dataset", None),
        ("data_path", "--data", None), ("epochs", "--epochs", 20), *TRAINING,
        ("out_path", "--out", REQUIRED),
    ],
    "eval": [
        ("model_path", "--model", REQUIRED), ("dataset", "--dataset", None),
        ("data_path", "--data", None),
    ],
}
CHOICES = {
    "--gate": ["rx", "ry", "rz"],
    "--metric": ["literal-real", "phase-invariant"],
    "--mode": ["fused-runs", "per-gate"],
    "--dataset": ["iris", "digits01"],
    "--layer-kind": ["bel", "sel"],
}


def test_every_command_keeps_its_parameters_in_order():
    # the manifest lists a command's flags in this order, under these spellings
    got, choices = {}, {}
    for name, command in main.commands.items():
        got[name] = []
        for p in command.params:
            (flag,) = p.opts
            got[name].append((p.name, flag, REQUIRED if p.required else p.default))
            if isinstance(p.type, click.Choice):
                assert choices.setdefault(flag, list(p.type.choices)) == list(p.type.choices)
    assert got == PARAMETERS
    assert choices == CHOICES
