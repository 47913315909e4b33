"""Where each layer of the program is traced, and its per-layer metrics.

Every wrapper sits where the caller looks the function up, so the
program's own files stay as they are:

| layer        | wrapped at                                                    |
| ------------ | ------------------------------------------------------------- |
| qnn.data     | ``pqc_forge.qnn.load_dataset``                                |
| qnn.model    | ``pqc_forge.qnn.build_model``                                 |
| qnn.training | ``qnn.train``, ``qnn.retrain``, ``qnn.accuracy``; in          |
|              | ``qnn.training``: ``accuracy``, ``loss_and_gradient`` and the |
|              | per-batch ``_loss_and_gradients`` that ``train`` calls        |
| sim          | the public kernels of ``pqc_forge.sim`` (counters)            |
| optimizer    | ``optimizer.optimize``, ``optimizer.sweep``                   |
| greedy       | ``optimizer.param_gate_transform``                            |
| matrix       | ``greedy.distance``, ``optimizer.distance`` (counters)        |
| circuit      | ``optimizer.metrics``                                         |

The ``cli`` layer is not traced: it is a thin adapter, and timing it
would add process start-up to every figure.
"""

from __future__ import annotations

import statistics

from pqc_forge import greedy, optimizer, qnn, sim
from pqc_forge.qnn import training

import checks
from tracer import Tracer
from workloads import GRAD_BATCH

SIM_KERNELS = ("apply_1q_batch", "apply_cnot_batch", "apply_rx_batch", "run_batch", "expect_z_batch")
SETUP_ROUND = -1
PROBE_ROUND = -2


def _amplitudes(name: str):
    """Amplitudes a kernel writes: rows·2ⁿ per gate applied, none for a readout."""
    if name == "expect_z_batch":
        return lambda args: 0
    if name == "run_batch":
        return lambda args: args[1].size * len(args[0].ops)
    return lambda args: args[0].size


def install(tr: Tracer) -> None:
    """Wrap every traced function; ``tr.uninstall()`` undoes it."""
    tr.span(qnn, "load_dataset", "qnn.data.load_dataset")
    tr.span(qnn, "build_model", "qnn.model.build_model")
    tr.span(qnn, "train", "qnn.training.train")
    tr.span(qnn, "retrain", "qnn.training.retrain")
    tr.span(qnn, "accuracy", "qnn.training.accuracy")
    tr.span(training, "accuracy", "qnn.training.accuracy")
    tr.span(training, "loss_and_gradient", "qnn.training.loss_and_gradient")
    tr.span(training, "_loss_and_gradients", "qnn.training.step")
    for name in SIM_KERNELS:
        tr.counter(sim, name, "sim", work=_amplitudes(name))

    def on_pass(args, result):
        p = checks.Pass(args[0], args[1], *result)
        tr.counters["optimizer.replaced"] += p.report.replaced_count
        tr.counters["optimizer.split_kept"] += checks.split_kept(p)
        tr.counters["optimizer.longer_words"] += checks.longer_words(p)

    def on_search(args, result):
        tr.counters["greedy.dist_sum"] += result.final_dist

    tr.span(optimizer, "optimize", "optimizer.optimize", on_return=on_pass)
    tr.span(optimizer, "sweep", "optimizer.sweep")
    tr.span(optimizer, "param_gate_transform", "greedy.search", on_return=on_search)
    tr.span(optimizer, "metrics", "circuit.metrics")
    tr.counter(greedy, "distance", "matrix.distance")
    tr.counter(optimizer, "distance", "matrix.distance")


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def round_metrics(tr: Tracer, rnd: int, counted: dict) -> dict:
    """Per-layer figures of one traced round; ``counted`` holds its counter deltas."""
    only = {rnd}
    steps = [
        s[2] - s[1]
        for i, s in enumerate(tr.spans)
        if s[0] == "qnn.training.step"
        and s[4] == rnd
        and tr.has_ancestor(i, ("qnn.training.train", "qnn.training.retrain"))
    ]
    searches = tr.durations("greedy.search", only)
    sim_s = counted.get("sim.seconds", 0.0)
    amps = counted.get("sim.work", 0.0)
    return {
        "qnn.training.train_s": sum(tr.durations("qnn.training.train", only)),
        "qnn.training.retrain_s": sum(tr.durations("qnn.training.retrain", only)),
        "qnn.training.step_ms": 1e3 * _mean(steps),
        "qnn.training.steps": len(steps),
        "qnn.training.eval_ms": 1e3 * _mean(tr.durations("qnn.training.accuracy", only)),
        "sim.calls": counted.get("sim.calls", 0),
        "sim.self_s": sim_s,
        "sim.amp_updates": amps,
        "sim.amps_per_s": amps / sim_s if sim_s else 0.0,
        "greedy.searches": len(searches),
        "greedy.search_ms": 1e3 * _mean(searches),
        "greedy.self_s": tr.self_seconds("greedy.search", only),
        "greedy.mean_dist": counted.get("greedy.dist_sum", 0.0) / len(searches) if searches else 0.0,
        "matrix.distance_calls": counted.get("matrix.distance.calls", 0),
        "optimizer.passes": len(tr.durations("optimizer.optimize", only)),
        "optimizer.self_s": tr.self_seconds("optimizer.optimize", only),
        "optimizer.replaced": counted.get("optimizer.replaced", 0),
        "optimizer.split_kept": counted.get("optimizer.split_kept", 0),
        "optimizer.longer_words": counted.get("optimizer.longer_words", 0),
        "circuit.metrics_calls": len(tr.durations("circuit.metrics", only)),
        "circuit.metrics_ms": 1e3 * _mean(tr.durations("circuit.metrics", only)),
    }


def run_metrics(tr: Tracer, per_round: list[dict], model, traced_s, untraced_s) -> dict:
    """Per-layer metrics of a traced run: round figures averaged, plus set-up,
    the gradient probe, the training state cache and the tracing overhead."""
    setup = {SETUP_ROUND}
    out = {k: statistics.fmean(r[k] for r in per_round) for k in per_round[0]}
    grads = tr.durations("qnn.training.loss_and_gradient", {PROBE_ROUND})
    trainable_ops = sum(1 for op in model.ansatz.ops if op.trainable)
    traced, untraced = statistics.median(traced_s), statistics.median(untraced_s)
    out.update(
        {
            "qnn.data.load_s": sum(tr.durations("qnn.data.load_dataset", setup)),
            "qnn.model.build_s": sum(tr.durations("qnn.model.build_model", setup)),
            "qnn.training.grad_ms": 1e3 * statistics.median(grads),
            # one cached (batch, 2ⁿ) complex128 state per trainable op
            "qnn.training.cache_mb": trainable_ops * GRAD_BATCH * 16 * 2**model.n_qubits / 2**20,
            "trace.overhead_s": traced - untraced,
            "trace.overhead_pct": 100 * (traced - untraced) / untraced,
        }
    )
    return out
