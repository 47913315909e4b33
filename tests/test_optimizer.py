"""Replacement pass soundness, both modes, and the tolerance sweep."""

import json
import math

import numpy as np
import pytest

from helpers import full_unitary, random_circuit, sequence_product
from pqc_forge import gates, optimizer, qnn
from pqc_forge.circuit import Circuit, Op, metrics
from pqc_forge.gates import GateKind
from pqc_forge.greedy import GreedyParams
from pqc_forge.matrix import DistanceMetric, distance
from pqc_forge.optimizer import (
    OptimizeConfig,
    OptimizeMode,
    optimize,
    search,
    sweep,
)

ROTS = (GateKind.RX, GateKind.RY, GateKind.RZ)


def test_near_identity_rx_is_pruned_any_seed():
    # dist(RX(0.1), I) = 1 - cos(0.05) ~ 0.00125 < 0.05: replaced by nothing
    for seed in range(5):
        c = Circuit(1, (Op(GateKind.RX, (0,), (0.1,), True),))
        out, rep = optimize(c, OptimizeConfig(tolerance=0.05, greedy=GreedyParams(seed=seed)))
        assert out.ops == ()
        entry = rep.ledger[0]
        assert entry.replaced
        assert abs(entry.distance - (1 - math.cos(0.05))) <= 1e-12
        assert metrics(out).logical_gate_count == 0


def test_rx_half_pi_becomes_sx():
    for seed in range(5):
        c = Circuit(1, (Op(GateKind.RX, (0,), (math.pi / 2,), True),))
        out, _ = optimize(c, OptimizeConfig(tolerance=0.05, greedy=GreedyParams(seed=seed)))
        assert [op.kind for op in out.ops] == [GateKind.SX]
        assert not out.ops[0].trainable


def test_tiny_tolerance_keeps_everything():
    rng = np.random.default_rng(3)
    c = random_circuit(3, 20, rng)
    out, rep = optimize(c, OptimizeConfig(tolerance=1e-15))
    assert out == c
    assert rep.replaced_count == 0


def test_replacements_are_frozen_fixed_gates():
    rng = np.random.default_rng(5)
    c = random_circuit(4, 25, rng)
    out, rep = optimize(c, OptimizeConfig(tolerance=0.08))
    assert any(e.replaced for e in rep.ledger)
    spliced = [op for op in out.ops if op.kind in gates.ALPHABET]
    assert spliced  # replacements landed
    assert all(not op.trainable for op in spliced)
    assert all(op.kind is not GateKind.ID for op in out.ops)  # ids dropped


def test_replacement_soundness_against_recomputed_targets():
    rng = np.random.default_rng(7)
    cfg = OptimizeConfig(tolerance=0.08)
    c = random_circuit(4, 30, rng)
    _, rep = optimize(c, cfg)
    for entry in rep.ledger:
        if not entry.replaced:
            continue
        assert entry.distance < cfg.tolerance
        kind = GateKind(entry.gate)
        target = gates.unitary(kind, entry.angles)
        seq = [GateKind(g) for g in entry.replacement]
        assert abs(distance(target, sequence_product(seq)) - entry.distance) <= 1e-12


def test_cnot_subsequence_preserved():
    rng = np.random.default_rng(9)
    for mode in OptimizeMode:
        for _ in range(8):
            c = random_circuit(4, 30, rng)
            out, _ = optimize(c, OptimizeConfig(tolerance=0.1, mode=mode))
            before = [op.qubits for op in c.ops if op.kind is GateKind.CNOT]
            after = [op.qubits for op in out.ops if op.kind is GateKind.CNOT]
            assert before == after


def test_kept_rotations_bitwise_identical():
    rng = np.random.default_rng(11)
    c = random_circuit(4, 30, rng)
    out, rep = optimize(c, OptimizeConfig(tolerance=1e-9))
    kept_in = [op for op in c.ops if op.kind in ROTS]
    kept_out = [op for op in out.ops if op.kind in ROTS]
    assert kept_in == kept_out


def test_transform_call_count_per_gate_mode():
    ops = (
        Op(GateKind.RX, (0,), (0.3,), True),
        Op(GateKind.CNOT, (0, 1)),
        Op(GateKind.R3, (1,), (0.1, 0.2, 0.3), True),
        Op(GateKind.H, (0,)),
        Op(GateKind.RZ, (1,), (1.0,), True),
    )
    c = Circuit(2, ops)
    _, rep = optimize(c, OptimizeConfig(tolerance=0.01))
    # rx + 3 r-factors + rz = 5 parametric rotation factors
    assert rep.transform_calls == 5
    assert len(rep.ledger) == 5


def test_r3_split_tracks_factors():
    c = Circuit(1, (Op(GateKind.R3, (0,), (0.57, -0.04, -0.57), True),))
    out, rep = optimize(c, OptimizeConfig(tolerance=1e-9))
    assert [e.gate for e in rep.ledger] == ["rz", "ry", "rz"]
    assert [e.factor for e in rep.ledger] == [0, 1, 2]
    # nothing replaced at this tolerance: factors survive as rotations
    assert [op.kind for op in out.ops] == [GateKind.RZ, GateKind.RY, GateKind.RZ]
    assert [op.angles[0] for op in out.ops] == [0.57, -0.04, -0.57]
    assert all(op.trainable for op in out.ops)
    u_before = full_unitary(c)
    u_after = full_unitary(out)
    assert distance(u_before, u_after) <= 1e-12


def test_fused_runs_collapse_back_to_back_rotations():
    c = Circuit(1, (Op(GateKind.R3, (0,), (0.57, -0.04, -0.57), True),))
    cfg = OptimizeConfig(tolerance=0.05, mode=OptimizeMode.FUSED_RUNS)
    out, rep = optimize(c, cfg)
    # one search over the whole run instead of three factor searches
    assert rep.transform_calls == 1
    entry = rep.ledger[0]
    assert entry.span == 3
    assert entry.replaced
    assert entry.distance < 0.05
    # the rz(a)·ry(-0.04)·rz(-a) product is nearly the identity
    assert distance(np.eye(2, dtype=complex), full_unitary(out)) <= 0.05


def test_fused_runs_break_at_cnot_and_fixed_gates():
    ops = (
        Op(GateKind.RX, (0,), (0.4,), True),
        Op(GateKind.RZ, (0,), (0.4,), True),
        Op(GateKind.CNOT, (0, 1)),
        Op(GateKind.RX, (0,), (0.4,), True),
        Op(GateKind.X, (1,)),
        Op(GateKind.RY, (1,), (0.4,), True),
    )
    c = Circuit(2, ops)
    _, rep = optimize(c, OptimizeConfig(tolerance=1e-12, mode=OptimizeMode.FUSED_RUNS))
    spans = sorted((e.position, e.span) for e in rep.ledger)
    # run (rx,rz) on wire 0, then rx after the cnot, then ry after the x
    assert spans == [(0, 2), (3, 1), (5, 1)]


def test_global_distance_reported_small_circuits():
    rng = np.random.default_rng(13)
    c = random_circuit(3, 15, rng)
    _, rep = optimize(c, OptimizeConfig(tolerance=0.05))
    assert rep.global_distance is not None
    assert 0.0 <= rep.global_distance <= 1.0
    big = random_circuit(7, 10, rng)
    _, rep = optimize(big, OptimizeConfig(tolerance=0.05))
    assert rep.global_distance is None


@pytest.mark.parametrize("mode", list(OptimizeMode))
@pytest.mark.parametrize("metric", list(DistanceMetric))
def test_global_distance_matches_the_dense_oracle(mode, metric):
    rng = np.random.default_rng(14)
    for n in range(1, optimizer.GLOBAL_CHECK_MAX_QUBITS + 1):
        for tol in (0.01, 0.1, 0.3):
            c = random_circuit(n, 8 * n, rng, p_rotation=0.5)
            cfg = OptimizeConfig(tol, GreedyParams(metric=metric), mode)
            out, rep = optimize(c, cfg)
            want = distance(full_unitary(c), full_unitary(out), metric)
            assert abs(rep.global_distance - want) <= 1e-14


def test_report_json_schema():
    c = Circuit(1, (Op(GateKind.RX, (0,), (0.4,), True),))
    _, rep = optimize(c, OptimizeConfig(tolerance=0.05))
    payload = rep.as_dict()
    assert set(payload) == {
        "tolerance", "seed", "metric", "mode", "before", "after",
        "transform_calls", "global_distance", "ledger",
    }
    for side in ("before", "after"):
        assert set(payload[side]) == {"depth", "gates", "params"}
    json.dumps(payload)  # must be serializable as-is


def test_determinism():
    rng = np.random.default_rng(15)
    c = random_circuit(4, 30, rng)
    cfg = OptimizeConfig(tolerance=0.05, greedy=GreedyParams(seed=3))
    out1, rep1 = optimize(c, cfg)
    out2, rep2 = optimize(c, cfg)
    assert out1 == out2
    assert rep1.as_dict() == rep2.as_dict()


def test_mode_and_tolerance_validation():
    with pytest.raises(ValueError, match="tolerance"):
        OptimizeConfig(tolerance=0.0)
    with pytest.raises(ValueError, match="tolerance"):
        OptimizeConfig(tolerance=1.5)


def test_sweep_rows_and_monotonicity():
    rng = np.random.default_rng(17)
    c = random_circuit(4, 30, rng, p_cnot=0.25, p_rotation=0.6)
    tols = [0.001, 0.01, 0.05, 0.1]
    rows = sweep(c, tols, OptimizeConfig(tolerance=0.1, greedy=GreedyParams(seed=0)))
    assert [r["tolerance"] for r in rows] == tols
    gates_col = [r["gate_count"] for r in rows]
    params_col = [r["remaining_parameters"] for r in rows]
    assert gates_col == sorted(gates_col, reverse=True)
    assert params_col == sorted(params_col, reverse=True)
    assert "accuracy" not in rows[0]


def test_sweep_accuracy_column_via_callable():
    c = Circuit(1, (Op(GateKind.RX, (0,), (0.3,), True),))
    rows = sweep(c, [0.5], evaluate=lambda circ: 0.75)
    assert rows[0]["accuracy"] == 0.75


def test_sweep_rejects_empty_tolerances():
    with pytest.raises(ValueError, match="non-empty"):
        sweep(Circuit(1), [])


@pytest.fixture
def counted(monkeypatch):
    """Counts optimize passes, the targets the greedy kernel searches and
    the circuits measured."""
    calls = {"optimize": 0, "kernel": 0, "targets": 0, "metrics": 0}
    real_optimize, real_kernel = optimizer.optimize, optimizer.transform_batch
    real_metrics = optimizer.metrics

    def count_optimize(*args, **kwargs):
        calls["optimize"] += 1
        return real_optimize(*args, **kwargs)

    def count_kernel(targets, *args, **kwargs):
        calls["kernel"] += 1
        calls["targets"] += len(targets)
        return real_kernel(targets, *args, **kwargs)

    def count_metrics(*args, **kwargs):
        calls["metrics"] += 1
        return real_metrics(*args, **kwargs)

    monkeypatch.setattr(optimizer, "optimize", count_optimize)
    monkeypatch.setattr(optimizer, "transform_batch", count_kernel)
    monkeypatch.setattr(optimizer, "metrics", count_metrics)
    return calls


def test_sweep_checks_every_tolerance_before_searching(counted):
    c = Circuit(1, (Op(GateKind.RX, (0,), (0.3,), True),))
    with pytest.raises(ValueError, match="tolerance"):
        sweep(c, [0.1, 0])
    assert counted == {"optimize": 0, "kernel": 0, "targets": 0, "metrics": 0}


@pytest.mark.parametrize("mode", list(OptimizeMode))
def test_sweep_searches_each_run_once(counted, mode):
    c = random_circuit(4, 30, np.random.default_rng(19))
    tols = [0.001, 0.05, 0.1]
    sweep(c, tols, OptimizeConfig(tolerance=0.1, mode=mode))
    # the input is measured once, each output once
    assert counted["metrics"] == len(tols) + 1
    runs = len(optimize(c, OptimizeConfig(tolerance=0.1, mode=mode))[1].ledger)
    # the sweep: one pass per tolerance, one kernel call; then the pass above
    assert counted == {
        "optimize": len(tols), "kernel": 2, "targets": 2 * runs, "metrics": len(tols) + 3,
    }


@pytest.mark.parametrize("mode", list(OptimizeMode))
@pytest.mark.parametrize("metric", list(DistanceMetric))
def test_sweep_equals_independent_passes(monkeypatch, mode, metric):
    spec = qnn.LayerSpec(qnn.LayerKind.STRONGLY_ENTANGLING, 2, 4)
    circuits = [random_circuit(4, 40, np.random.default_rng(21)), qnn.build_ansatz(spec, 3)]
    greedy = GreedyParams(metric=metric, seed=2)
    tols = [0.001, 0.02, 0.1, 0.3]
    for c in circuits:
        passes, evaluated = [], []

        def record(*args, **kwargs):
            passes.append(optimize(*args, **kwargs))
            return passes[-1]

        def evaluate(circuit):
            evaluated.append(circuit)
            return len(circuit.ops)

        monkeypatch.setattr(optimizer, "optimize", record)
        rows = sweep(c, tols, OptimizeConfig(0.5, greedy, mode), evaluate=evaluate)
        monkeypatch.undo()
        assert len(passes) == len(evaluated) == len(tols)
        for tol, row, (out, rep), seen in zip(tols, rows, passes, evaluated):
            want_out, want_rep = optimize(c, OptimizeConfig(tol, greedy, mode))
            assert out == seen == want_out
            assert rep.as_dict() == want_rep.as_dict()
            assert row == {
                "tolerance": tol,
                "depth": want_rep.after.decomposed_depth,
                "gate_count": want_rep.after.decomposed_gate_count,
                "remaining_parameters": want_rep.after.remaining_parameters,
                "replaced": want_rep.replaced_count,
                "accuracy": float(len(want_out.ops)),
            }


def test_searched_results_must_match_the_pass():
    rng = np.random.default_rng(23)
    c, other = random_circuit(3, 20, rng), random_circuit(3, 20, rng)
    cfg = OptimizeConfig(tolerance=0.05)
    searched = search(c, cfg.mode, cfg.greedy)
    assert optimize(c, cfg, searched)[1].as_dict() == optimize(c, cfg)[1].as_dict()
    for wrong in (
        search(other, cfg.mode, cfg.greedy),
        search(c, OptimizeMode.FUSED_RUNS, cfg.greedy),
        search(c, cfg.mode, GreedyParams(seed=1)),
    ):
        with pytest.raises(ValueError, match="another circuit, mode or greedy params"):
            optimize(c, cfg, wrong)
