"""Circuit pass: replace parametric rotations with fixed-gate approximations.

Walks a trained circuit in op order. Every rx/ry/rz runs through the
greedy search; when the achieved distance beats the tolerance (strict
``<``) the rotation is spliced out in favor of the found sequence (id
gates dropped, replacements frozen). cnot and fixed gates always pass
through unchanged.

Every rotation is planned as its factor ops, one single-angle op per
factor with the source op's wire and trainable flag: an rx/ry/rz op is
its own one factor, and a three-angle r gate is rz(φ), ry(θ), rz(ω). A
run that is not replaced emits its factor ops. So an rx/ry/rz op comes
back bit-for-bit, but an r gate with no factor replaced comes back as
three ops, not as the original op. ROADMAP Open item 1 is the fix, and
``bench/test_bench.py::test_r_gate_split_fault_is_reported`` pins the
fault.

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
how many gates are searched or in what order. ``search`` also measures
the input circuit once, so a sweep's passes share its ``before`` metrics.

On at most ``GLOBAL_CHECK_MAX_QUBITS`` qubits the report carries the
exact distance between the input and output circuits. Both unitaries
come from the statevector simulator: ``sim.run_batch`` pushes the 2ⁿ
basis states through each circuit, and the columns of the result are
the circuit's unitary.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import gates, sim
from .circuit import Circuit, CircuitMetrics, Op, metrics
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


@dataclass
class OptimizeReport:
    tolerance: float
    seed: int
    metric: str
    mode: str
    before: CircuitMetrics
    after: CircuitMetrics
    transform_calls: int
    global_distance: float | None
    ledger: list[LedgerEntry]

    @property
    def replaced_count(self) -> int:
        return sum(1 for e in self.ledger if e.replaced)

    def as_dict(self) -> dict:
        """The fields as JSON values; ``before``/``after`` keep depth, gates and params."""
        return dataclasses.asdict(self) | {
            side: {"depth": m.decomposed_depth, "gates": m.decomposed_gate_count,
                   "params": m.remaining_parameters}
            for side, m in (("before", self.before), ("after", self.after))
        }


@dataclass
class _Run:
    """Consecutive rotation factors on one wire, searched as one target.

    ``ops`` holds one single-angle op per factor, in circuit order: the
    target's factors, and what the pass emits when the run is not replaced.
    """

    position: int
    factor: int | None
    ops: list[Op] = field(default_factory=list)

    def target(self) -> np.ndarray:
        u = np.eye(2, dtype=complex)
        for op in self.ops:
            u = gates.unitary(op.kind, op.angles) @ u
        return u


@dataclass(frozen=True)
class Searched:
    """Greedy results for every run of ``circuit``, planned in ``mode``.

    ``results[i]`` belongs to the i-th run of ``slots``. The results
    depend on the circuit, the mode and the greedy params but not on the
    tolerance, so one ``Searched`` serves every tolerance of a sweep.
    ``before`` is the circuit's metrics, which every pass reports.
    """

    circuit: Circuit
    mode: OptimizeMode
    greedy: GreedyParams
    slots: tuple  # the circuit's ops in order, each rotation run as a _Run
    results: tuple[GreedyResult, ...]
    before: CircuitMetrics


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
        for f_idx, (kind, angle) in enumerate(factors):
            run = None if per_gate else open_runs.get(q)
            if run is None:
                run = open_runs[q] = _Run(pos, f_idx if len(factors) > 1 else None)
                slots.append(run)
            run.ops.append(Op(kind, op.qubits, (angle,), op.trainable))
    return slots


def search(c: Circuit, mode: OptimizeMode, greedy: GreedyParams) -> Searched:
    """Plan the runs of ``c``, search all of them in one kernel call, and
    measure ``c``."""
    slots = _plan(c, mode)
    runs = [slot for slot in slots if isinstance(slot, _Run)]
    results = transform_batch(
        [run.target() for run in runs],
        greedy,
        [(greedy.seed, run.position, run.factor or 0) for run in runs],
    )
    return Searched(c, mode, greedy, tuple(slots), tuple(results), metrics(c))


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
        wire = slot.ops[0].qubits
        out_ops.extend(
            [Op(kind, wire) for kind in res.sequence if kind is not GateKind.ID]
            if replaced else slot.ops
        )
        ledger.append(
            LedgerEntry(
                position=slot.position,
                gate=slot.ops[0].kind.value if len(slot.ops) == 1 else "fused",
                qubit=wire[0],
                angles=tuple(op.angles[0] for op in slot.ops),
                factor=slot.factor,
                span=len(slot.ops),
                replaced=replaced,
                distance=res.final_dist,
                replacement=tuple(k.value for k in res.sequence),
            )
        )

    new_circuit = Circuit(c.n_qubits, tuple(out_ops))
    global_dist = None
    if c.n_qubits <= GLOBAL_CHECK_MAX_QUBITS:
        basis = np.eye(1 << c.n_qubits, dtype=complex)
        global_dist = distance(
            sim.run_batch(c, basis).T, sim.run_batch(new_circuit, basis).T, cfg.greedy.metric
        )
    report = OptimizeReport(
        tolerance=cfg.tolerance,
        seed=cfg.greedy.seed,
        metric=cfg.greedy.metric.value,
        mode=cfg.mode.value,
        before=searched.before,
        after=metrics(new_circuit),
        transform_calls=len(ledger),
        global_distance=global_dist,
        ledger=ledger,
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
