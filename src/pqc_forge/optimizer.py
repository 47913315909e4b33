"""Circuit pass: replace parametric rotations with fixed-gate approximations.

Walks a trained circuit in op order. Every rx/ry/rz runs through the
greedy search; when the achieved distance beats the tolerance (strict
``<``) the rotation is spliced out in favor of the found sequence (id
gates dropped, replacements frozen). cnot and fixed gates always pass
through unchanged.

What comes back for a search that misses the tolerance depends on the
op. An rx/ry/rz op is kept bit-for-bit. A three-angle r gate is split
into its rz(φ)·ry(θ)·rz(ω) factors before the search, and each factor
not replaced comes back as a rotation of its own: an r gate with no
factor replaced still comes back as three ops, not as the original op.
A fused run that is not replaced comes back as its ops, with every r
gate among them split the same way. ROADMAP Open item 1 is the fix.

Both modes group factors into runs and search each run once.
``PER_GATE`` mode gives every factor its own run. ``FUSED_RUNS`` mode
extends a wire's open run with each further factor on that wire, and any
other op closes the runs on its wires, so back-to-back rotations whose
product is near-identity vanish together instead of leaving a t·t†
style residue.

``search`` plans the runs and searches all of them in one
``greedy.transform_batch`` call. The results do not depend on the
tolerance, so ``sweep`` searches once and splices at every tolerance.
Each search draws from a random stream keyed by (seed, source position,
factor index), so reports are deterministic for a given seed no matter
how many gates are searched or in what order.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import gates
from .circuit import Circuit, CircuitMetrics, Op, full_unitary, metrics
from .gates import GateKind
# param_gate_transform stays importable here: bench/layers.py wraps this name.
from .greedy import GreedyParams, GreedyResult, param_gate_transform, transform_batch  # noqa: F401
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

    def target(self) -> np.ndarray:
        u = np.eye(2, dtype=complex)
        for kind, angle in self.factors:
            u = gates.unitary(kind, (angle,)) @ u
        return u


@dataclass(frozen=True)
class Searched:
    """Greedy results for every run of ``circuit``, planned in ``mode``.

    ``results[i]`` belongs to the i-th run of ``slots``. The results
    depend on the circuit, the mode and the greedy params but not on the
    tolerance, so one ``Searched`` serves every tolerance of a sweep.
    """

    circuit: Circuit
    mode: OptimizeMode
    greedy: GreedyParams
    slots: tuple  # the circuit's ops in order, each rotation run as a _Run
    results: tuple[GreedyResult, ...]


def _plan(c: Circuit, mode: OptimizeMode) -> list:
    """The circuit's ops in order, with rotation factors grouped into runs."""
    # Per-gate mode is fused mode with one factor per run.
    per_gate = mode is OptimizeMode.PER_GATE
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
    return slots


def search(c: Circuit, mode: OptimizeMode, greedy: GreedyParams) -> Searched:
    """Plan the runs of ``c`` and search all of them in one kernel call."""
    slots = _plan(c, mode)
    runs = [slot for slot in slots if isinstance(slot, _Run)]
    results = transform_batch(
        [run.target() for run in runs],
        greedy,
        [(greedy.seed, run.position, run.factor or 0) for run in runs],
    )
    return Searched(c, mode, greedy, tuple(slots), tuple(results))


def optimize(
    c: Circuit, cfg: OptimizeConfig, searched: Searched | None = None
) -> tuple[Circuit, OptimizeReport]:
    """Run the replacement pass; returns the new circuit and its report.

    ``searched``, from ``search(c, cfg.mode, cfg.greedy)``, reuses results
    already searched; results for another circuit, mode or greedy params
    raise ValueError.
    """
    if searched is None:
        searched = search(c, cfg.mode, cfg.greedy)
    elif (searched.circuit, searched.mode, searched.greedy) != (c, cfg.mode, cfg.greedy):
        raise ValueError("searched results belong to another circuit, mode or greedy params")

    out_ops: list[Op] = []
    ledger: list[LedgerEntry] = []
    results = iter(searched.results)
    for slot in searched.slots:
        if isinstance(slot, Op):
            out_ops.append(slot)
            continue
        res = next(results)
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
    # every tolerance is checked before the search
    cfgs = [dataclasses.replace(base, tolerance=tol) for tol in tolerances]
    searched = search(c, base.mode, base.greedy)
    rows = []
    for run_cfg in cfgs:
        # through the module-level optimize, so that a wrapper of it sees every pass
        optimized, report = optimize(c, run_cfg, searched)
        row = {
            "tolerance": run_cfg.tolerance,
            "depth": report.after.decomposed_depth,
            "gate_count": report.after.decomposed_gate_count,
            "remaining_parameters": report.after.remaining_parameters,
            "replaced": report.replaced_count,
        }
        if evaluate is not None:
            row["accuracy"] = float(evaluate(optimized))
        rows.append(row)
    return rows
