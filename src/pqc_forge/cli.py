"""pqc-forge command line: approximate, optimize, measure, train, evaluate.

Every command is a thin adapter over one library operation. Reports are
JSON, tables are CSV; each output file embeds a run manifest or gets one
written beside it. A manifest holds the command, every resolved flag
under its flag spelling (``top-k``, ``batch-size``; a flag left unset
with no default is omitted), the seed, the version and a timestamp, so
any artifact can be traced back to the exact invocation. ``--seed``
defaults to $PQC_FORGE_SEED, then 0, never to entropy.

Exit codes: 0 success; 1 an input or evaluation failure (an unreadable
or malformed file, a model that does not fit its data), reported as one
``error:`` line; 2 a usage error (a bad flag value), reported by click.
"""

# Tiny 2xN gate kernels gain nothing from BLAS threads and lose badly to
# thread churn; pin before numpy loads (no effect if it is already loaded).
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import csv
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from . import __version__, circuit as circ, qnn
from .gates import GateKind, unitary
from .greedy import GreedyParams, exhaustive_oracle, transform_batch
from .matrix import DistanceMetric
from .optimizer import OptimizeConfig, OptimizeMode, optimize, sweep
from .qnn.model import sidecar_path

_TRAIN_DEFAULTS = qnn.TrainConfig()
_GREEDY_DEFAULTS = GreedyParams()
_METRICS = {m.value: m for m in DistanceMetric}
_MODES = {m.value: m for m in OptimizeMode}
_LAYER_KINDS = {k.value: k for k in qnn.LayerKind}


def _manifest() -> dict:
    """Run manifest of the current command: every resolved flag, keyed by its spelling."""
    ctx = click.get_current_context()
    flags = {p.opts[0].lstrip("-"): ctx.params[p.name] for p in ctx.command.params}
    return {
        "command": ctx.info_name,
        "flags": {k: v for k, v in flags.items() if v is not None},
        "seed": ctx.params.get("seed", 0),
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_csv(path, rows: list[dict], manifest: dict) -> None:
    fields = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    _write_json(Path(str(path) + ".manifest.json"), manifest)


@contextmanager
def _usage_errors():
    """A config that rejects a flag value is a usage error: exit 2."""
    try:
        yield
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


def _load(what: str, fn, *args):
    """``fn(*args)``, with a failure reworded as ``cannot load <what>: …``."""
    try:
        return fn(*args)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load {what}: {exc}") from None


def _model_and_dataset(model_path, dataset, data_path):
    """A saved model and its split of ``dataset`` (default: the one it was trained on)."""
    model = _load(f"model {model_path}", qnn.load_model, model_path)
    name = dataset or model.dataset_name
    ds = _load(f"dataset {name}", qnn.load_dataset, name, data_path, model.split_seed)
    if ds.n_features != model.feature_count:
        raise ValueError(
            f"model {model_path} encodes {model.feature_count} features, "
            f"dataset {name} has {ds.n_features}"
        )
    return model, ds


def _finite(ctx, param, value):
    if value is not None and not np.all(np.isfinite(value)):
        raise click.BadParameter(f"must be finite, got {value}")
    return value


class _Main(click.Group):
    """An input failure escaping any command is one ``error:`` line and exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (OSError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(1)


@click.group(cls=_Main)
@click.version_option(__version__, prog_name="pqc-forge")
def main():
    """Greedy non-parametric optimization of parametric quantum circuits."""


_seed_option = click.option(
    "--seed", type=int, default=0, envvar="PQC_FORGE_SEED",
    help="Default: $PQC_FORGE_SEED or 0.",
)


def _greedy_flags(func):
    func = click.option(
        "--iters", type=int, default=_GREEDY_DEFAULTS.iterations, show_default=True
    )(func)
    func = click.option("--top-k", type=int, default=_GREEDY_DEFAULTS.top_k, show_default=True)(func)
    func = click.option(
        "--metric",
        type=click.Choice(sorted(_METRICS)),
        default=_GREEDY_DEFAULTS.metric.value,
        show_default=True,
    )(func)
    return _seed_option(func)


@main.command("approx-gate")
@click.option("--gate", type=click.Choice(["rx", "ry", "rz"]), required=True)
@click.option(
    "--angle", type=float, default=None, callback=_finite, help="Rotation angle in radians."
)
@click.option(
    "--angle-grid",
    nargs=3,
    type=float,
    default=None,
    callback=_finite,
    help="START STOP STEP grid of angles (inclusive of STOP).",
)
@_greedy_flags
@click.option("--restarts", type=int, default=_GREEDY_DEFAULTS.restarts, show_default=True)
def cmd_approx_gate(gate, angle, angle_grid, iters, top_k, metric, seed, restarts):
    """Approximate one rotation gate by fixed gates; report the distances."""
    if (angle is None) == (angle_grid is None):
        raise click.UsageError("give exactly one of --angle or --angle-grid")
    with _usage_errors():
        params = GreedyParams(
            iterations=iters, top_k=top_k, metric=_METRICS[metric], seed=seed,
            restarts=restarts,
        )
    kind = GateKind(gate)
    if angle_grid is not None:
        start, stop, step = angle_grid
        if step <= 0:
            raise click.UsageError("--angle-grid STEP must be > 0")
        angles = list(np.arange(start, stop + step / 2, step))
    else:
        angles = [angle]

    targets = [unitary(kind, (float(theta),)) for theta in angles]
    rows = []
    for theta, target, best in zip(angles, targets, transform_batch(targets, params)):
        _, oracle_dist = exhaustive_oracle(target, max_len=4, metric=params.metric)
        rows.append(
            {
                "angle": float(theta),
                "sequence": " ".join(best.mnemonics()) or "-",
                "final_dist": best.final_dist,
                "oracle_dist_len4": oracle_dist,
            }
        )

    if len(rows) == 1:
        row = rows[0]
        click.echo(f"gate:        {gate}({row['angle']:.10g})")
        click.echo(f"sequence:    {row['sequence']}")
        click.echo(f"final dist:  {row['final_dist']:.6e}")
        click.echo(f"oracle dist: {row['oracle_dist_len4']:.6e} (length <= 4)")
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


@main.command("metrics")
@click.option("--in", "in_path", type=click.Path(), required=True)
@click.option("--json", "json_path", type=click.Path(), default=None)
def cmd_metrics(in_path, json_path):
    """Depth / gate-count / parameter metrics of a circuit file."""
    m = circ.metrics(_load(f"circuit {in_path}", circ.load, in_path))
    click.echo(f"logical depth:         {m.logical_depth}")
    click.echo(f"logical gate count:    {m.logical_gate_count}")
    click.echo(f"decomposed depth:      {m.decomposed_depth}")
    click.echo(f"decomposed gate count: {m.decomposed_gate_count}")
    click.echo(f"remaining parameters:  {m.remaining_parameters}")
    if json_path:
        _write_json(json_path, {**m.as_dict(), "manifest": _manifest()})


@main.command("optimize")
@click.option("--in", "in_path", type=click.Path(), required=True)
@click.option("--tolerance", type=float, required=True)
@click.option(
    "--mode",
    type=click.Choice(sorted(_MODES)),
    default=OptimizeMode.PER_GATE.value,
    show_default=True,
)
@_greedy_flags
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--report", "report_path", type=click.Path(), default=None)
def cmd_optimize(in_path, tolerance, mode, iters, top_k, metric, seed, out_path, report_path):
    """Replace parametric gates whose approximation beats the tolerance."""
    with _usage_errors():
        cfg = OptimizeConfig(
            tolerance=tolerance,
            greedy=GreedyParams(iters, top_k, _METRICS[metric], seed),
            mode=_MODES[mode],
        )
    new_c, report = optimize(_load(f"circuit {in_path}", circ.load, in_path), cfg)
    out_path = out_path or str(Path(in_path).with_suffix(".opt.qc"))
    report_path = report_path or str(Path(out_path).with_suffix(".report.json"))
    circ.save(new_c, out_path)
    _write_json(report_path, {**report.as_dict(), "manifest": _manifest()})
    # a model circuit keeps its sidecar usable after optimization
    side = sidecar_path(in_path)
    if side.exists():
        side_out = sidecar_path(out_path)
        side_out.write_text(side.read_text(encoding="utf-8"), encoding="utf-8")
    b, a = report.before, report.after
    click.echo(
        f"replaced {report.replaced_count}/{report.transform_calls} targets; "
        f"gates {b.decomposed_gate_count} -> {a.decomposed_gate_count}, "
        f"depth {b.decomposed_depth} -> {a.decomposed_depth}, "
        f"params {b.remaining_parameters} -> {a.remaining_parameters}"
    )
    click.echo(f"wrote {out_path} and {report_path}")


@main.command("sweep")
@click.option("--in", "in_path", type=click.Path(), required=True)
@click.option("--tolerances", required=True, help="Comma-separated list, e.g. 0.1,0.01.")
@click.option(
    "--mode",
    type=click.Choice(sorted(_MODES)),
    default=OptimizeMode.PER_GATE.value,
    show_default=True,
)
@_greedy_flags
@click.option("--dataset", type=click.Choice(qnn.data.DATASET_NAMES), default=None)
@click.option("--data", "data_path", type=click.Path(), default=None)
@click.option("--out", "out_path", type=click.Path(), default=None)
def cmd_sweep(in_path, tolerances, mode, iters, top_k, metric, seed, dataset, data_path, out_path):
    """Optimize at several tolerances; emit one CSV row per tolerance."""
    try:
        tols = [float(t) for t in tolerances.split(",") if t.strip()]
    except ValueError:
        raise click.UsageError(f"bad --tolerances value {tolerances!r}")
    if not tols:
        raise click.UsageError("--tolerances is empty")
    with _usage_errors():
        greedy = GreedyParams(iters, top_k, _METRICS[metric], seed)
        # every tolerance is checked here, before any pass runs
        cfgs = [OptimizeConfig(tolerance=t, greedy=greedy, mode=_MODES[mode]) for t in tols]
    c = _load(f"circuit {in_path}", circ.load, in_path)
    evaluate = None
    if dataset is not None:
        model, ds = _model_and_dataset(in_path, dataset, data_path)

        def evaluate(opt_circuit):
            return qnn.accuracy(model.with_ansatz(opt_circuit), ds.test_x, ds.test_y)

    rows = sweep(c, tols, cfgs[0], evaluate=evaluate)
    if out_path:
        _write_csv(out_path, rows, _manifest())
        click.echo(f"wrote {out_path}")
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


@main.command("train")
@click.option("--dataset", type=click.Choice(qnn.data.DATASET_NAMES), required=True)
@click.option("--data", "data_path", type=click.Path(), default=None)
@click.option(
    "--layer-kind",
    type=click.Choice(sorted(_LAYER_KINDS)),
    default=qnn.LayerKind.BASIC_ENTANGLER.value,
    show_default=True,
)
@click.option("--layers", type=int, default=5, show_default=True)
@click.option("--qubits", type=int, required=True)
@click.option("--epochs", type=int, default=_TRAIN_DEFAULTS.epochs, show_default=True)
@click.option("--lr", type=float, default=_TRAIN_DEFAULTS.learning_rate, show_default=True)
@click.option("--batch-size", type=int, default=_TRAIN_DEFAULTS.batch_size, show_default=True)
@_seed_option
@click.option("--out", "out_path", type=click.Path(), required=True)
def cmd_train(dataset, data_path, layer_kind, layers, qubits, epochs, lr, batch_size, seed, out_path):
    """Train a fresh layered model; write circuit + sidecar + history."""
    with _usage_errors():
        spec = qnn.LayerSpec(_LAYER_KINDS[layer_kind], layers, qubits)
        cfg = qnn.TrainConfig(
            epochs=epochs, learning_rate=lr, batch_size=batch_size, seed=seed
        )
    ds = _load(f"dataset {dataset}", qnn.load_dataset, dataset, data_path, seed)
    with _usage_errors():
        model = qnn.build_model(spec, ds, seed=seed)
    model, history = qnn.train(model, ds, cfg)
    manifest = _manifest()
    qnn.save_model(model, out_path, extra={"manifest": manifest})
    hist_path = Path(str(out_path)).with_suffix(".history.json")
    _write_json(hist_path, {**history.as_dict(), "manifest": manifest})
    final = history.epochs[-1] if history.epochs else {}
    click.echo(
        f"trained {layer_kind}({layers}, {qubits}q) on {dataset}: "
        f"test accuracy {final.get('test_accuracy', float('nan')):.4f}"
    )
    click.echo(f"wrote {out_path}, {sidecar_path(out_path)}, {hist_path}")


@main.command("retrain")
@click.option("--model", "model_path", type=click.Path(), required=True)
@click.option("--dataset", type=click.Choice(qnn.data.DATASET_NAMES), default=None)
@click.option("--data", "data_path", type=click.Path(), default=None)
@click.option("--epochs", type=int, default=20, show_default=True)
@click.option("--lr", type=float, default=_TRAIN_DEFAULTS.learning_rate, show_default=True)
@click.option("--batch-size", type=int, default=_TRAIN_DEFAULTS.batch_size, show_default=True)
@_seed_option
@click.option("--out", "out_path", type=click.Path(), required=True)
def cmd_retrain(model_path, dataset, data_path, epochs, lr, batch_size, seed, out_path):
    """Re-train the surviving parameters of an optimized model."""
    with _usage_errors():
        cfg = qnn.TrainConfig(
            epochs=epochs, learning_rate=lr, batch_size=batch_size, seed=seed
        )
    model, ds = _model_and_dataset(model_path, dataset, data_path)
    model, history = qnn.retrain(model, ds, cfg)
    for warning in history.warnings:
        click.echo(f"warning: {warning}", err=True)
    manifest = _manifest()
    qnn.save_model(model, out_path, extra={"manifest": manifest})
    hist_path = Path(str(out_path)).with_suffix(".history.json")
    _write_json(hist_path, {**history.as_dict(), "manifest": manifest})
    if history.epochs:
        click.echo(f"retrained: test accuracy {history.epochs[-1]['test_accuracy']:.4f}")
    else:
        click.echo("model unchanged (nothing to retrain)")
    click.echo(f"wrote {out_path}")


@main.command("eval")
@click.option("--model", "model_path", type=click.Path(), required=True)
@click.option("--dataset", type=click.Choice(qnn.data.DATASET_NAMES), default=None)
@click.option("--data", "data_path", type=click.Path(), default=None)
def cmd_eval(model_path, dataset, data_path):
    """Accuracy of a saved model on its dataset."""
    scores = qnn.evaluate(*_model_and_dataset(model_path, dataset, data_path))
    click.echo(f"train accuracy: {scores['train_accuracy']:.4f}")
    click.echo(f"test accuracy:  {scores['test_accuracy']:.4f}")


if __name__ == "__main__":
    main()
