"""Circuit pass: replace parametric rotations with fixed-gate approximations.

Walks a trained circuit in op order. Every rx/ry/rz runs through the
greedy search; when the achieved distance beats the tolerance (strict
``<``) the rotation is spliced out in favor of the found sequence (id
gates dropped, replacements frozen), otherwise the original op is kept
bit-for-bit. Three-angle r gates are first split into their
rz(φ)·ry(θ)·rz(ω) factors and each factor is handled like a standalone
rotation. cnot and fixed gates always pass through unchanged.

Both modes group factors into runs and search each run once.
``PER_GATE`` mode gives every factor its own run. ``FUSED_RUNS`` mode
extends a wire's open run with each further factor on that wire, and any
other op closes the runs on its wires, so back-to-back rotations whose
product is near-identity vanish together instead of leaving a t·t†
style residue.

Each search draws from a random stream keyed by (seed, source position,
factor index), so reports are deterministic for a given seed no matter
how many gates are searched or in what order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import gates
from .circuit import Circuit, CircuitMetrics, Op, full_unitary, metrics
from .gates import GateKind
from .greedy import GreedyParams, param_gate_transform
from .matrix import distance

GLOBAL_CHECK_MAX_QUBITS = 6


class OptimizeMode(Enum):
    PER_GATE = "per-gate"
    FUSED_RUNS = "fused-runs"


@dataclass(frozen=True)
class OptimizeConfig:
    tolerance: float
    greedy: GreedyParams = GreedyParams()
    mode: OptimizeMode = OptimizeMode.PER_GATE

    def __post_init__(self):
        if not 0.0 < self.tolerance <= 1.0:
            raise ValueError(f"tolerance must be in (0, 1], got {self.tolerance}")


@dataclass(frozen=True)
class LedgerEntry:
    """Outcome of one greedy search (one rotation factor, or one fused run)."""

    position: int  # index of the (first) source op in the input circuit
    gate: str
    qubit: int
    angles: tuple[float, ...]
    factor: int | None  # r-gate factor index in per-gate mode
    span: int  # number of source factors covered (fused runs)
    replaced: bool
    distance: float
    replacement: tuple[str, ...]  # greedy sequence before id-dropping

    def as_dict(self) -> dict:
        return {
            "position": self.position,
            "gate": self.gate,
            "qubit": self.qubit,
            "angles": list(self.angles),
            "factor": self.factor,
            "span": self.span,
            "replaced": self.replaced,
            "distance": self.distance,
            "replacement": list(self.replacement),
        }


@dataclass
class OptimizeReport:
    tolerance: float
    seed: int
    metric: str
    mode: str
    before: CircuitMetrics
    after: CircuitMetrics
    ledger: list[LedgerEntry]
    transform_calls: int
    global_distance: float | None

    @property
    def replaced_count(self) -> int:
        return sum(1 for e in self.ledger if e.replaced)

    def as_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "seed": self.seed,
            "metric": self.metric,
            "mode": self.mode,
            "before": _metrics_triplet(self.before),
            "after": _metrics_triplet(self.after),
            "transform_calls": self.transform_calls,
            "global_distance": self.global_distance,
            "ledger": [e.as_dict() for e in self.ledger],
        }


def _metrics_triplet(m: CircuitMetrics) -> dict:
    return {
        "depth": m.decomposed_depth,
        "gates": m.decomposed_gate_count,
        "params": m.remaining_parameters,
    }


def _splice(sequence, qubit: int) -> list[Op]:
    """Replacement ops for a wire: greedy result minus id, all frozen."""
    return [Op(kind, (qubit,)) for kind in sequence if kind is not GateKind.ID]


@dataclass
class _Run:
    """Consecutive rotation factors on one wire, searched as one target."""

    position: int
    factor: int | None
    qubit: int
    factors: list[tuple[GateKind, float]] = field(default_factory=list)  # circuit order
    kept_ops: list[Op] = field(default_factory=list)  # what to emit when not replaced


def _search(run: _Run, cfg: OptimizeConfig):
    target = np.eye(2, dtype=complex)
    for kind, angle in run.factors:
        target = gates.unitary(kind, (angle,)) @ target
    seed_key = (cfg.greedy.seed, run.position, run.factor or 0)
    return param_gate_transform(target, cfg.greedy, seed_key=seed_key)


def optimize(c: Circuit, cfg: OptimizeConfig) -> tuple[Circuit, OptimizeReport]:
    """Run the replacement pass; returns the new circuit and its report."""
    # Per-gate mode is fused mode with one factor per run.
    per_gate = cfg.mode is OptimizeMode.PER_GATE
    slots: list[Op | _Run] = []
    open_runs: dict[int, _Run] = {}
    for pos, op in enumerate(c.ops):
        if op.kind not in gates.ROTATION_KINDS:
            for q in op.qubits:
                open_runs.pop(q, None)
            slots.append(op)
            continue
        q = op.qubits[0]
        factors = gates.rotation_factors(op)
        multi = len(factors) > 1
        for f_idx, (kind, angle) in enumerate(factors):
            run = None if per_gate else open_runs.get(q)
            if run is None:
                run = open_runs[q] = _Run(pos, f_idx if multi else None, q)
                slots.append(run)
            run.factors.append((kind, angle))
            run.kept_ops.append(op if not multi else Op(kind, op.qubits, (angle,), op.trainable))

    out_ops: list[Op] = []
    ledger: list[LedgerEntry] = []
    for slot in slots:
        if isinstance(slot, Op):
            out_ops.append(slot)
            continue
        res = _search(slot, cfg)
        replaced = res.final_dist < cfg.tolerance
        out_ops.extend(_splice(res.sequence, slot.qubit) if replaced else slot.kept_ops)
        ledger.append(
            LedgerEntry(
                position=slot.position,
                gate=slot.factors[0][0].value if len(slot.factors) == 1 else "fused",
                qubit=slot.qubit,
                angles=tuple(a for _, a in slot.factors),
                factor=slot.factor,
                span=len(slot.factors),
                replaced=replaced,
                distance=res.final_dist,
                replacement=tuple(k.value for k in res.sequence),
            )
        )

    new_circuit = Circuit(c.n_qubits, tuple(out_ops))
    global_dist = None
    if c.n_qubits <= GLOBAL_CHECK_MAX_QUBITS:
        global_dist = distance(
            full_unitary(c), full_unitary(new_circuit), cfg.greedy.metric
        )
    report = OptimizeReport(
        tolerance=cfg.tolerance,
        seed=cfg.greedy.seed,
        metric=cfg.greedy.metric.value,
        mode=cfg.mode.value,
        before=metrics(c),
        after=metrics(new_circuit),
        ledger=ledger,
        transform_calls=len(ledger),
        global_distance=global_dist,
    )
    return new_circuit, report


def sweep(
    c: Circuit,
    tolerances,
    cfg: OptimizeConfig | None = None,
    evaluate=None,
) -> list[dict]:
    """Optimize at each tolerance; one result row per tolerance.

    ``evaluate``, when given, is a callable mapping an optimized circuit
    to a test accuracy (the CLI wires a dataset-backed model evaluation
    in here). Rows carry decomposed depth / gate count and the surviving
    parameter count, mirroring the published sweep tables.
    """
    tolerances = list(tolerances)
    if not tolerances:
        raise ValueError("tolerances must be non-empty")
    base = cfg or OptimizeConfig(tolerance=tolerances[0])
    rows = []
    for tol in tolerances:
        run_cfg = OptimizeConfig(tolerance=tol, greedy=base.greedy, mode=base.mode)
        optimized, report = optimize(c, run_cfg)
        row = {
            "tolerance": tol,
            "depth": report.after.decomposed_depth,
            "gate_count": report.after.decomposed_gate_count,
            "remaining_parameters": report.after.remaining_parameters,
            "replaced": report.replaced_count,
        }
        if evaluate is not None:
            row["accuracy"] = float(evaluate(optimized))
        rows.append(row)
    return rows
