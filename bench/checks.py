"""Checks of the program's outputs against ``reference`` and the method.

A check raises ``CheckError`` when an output is wrong. ``check_pass``
returns instead whether the pass hit the one fault the benchmark counts
as a failed operation: ``optimizer.optimize`` emits a three-angle ``r``
gate none of whose factors was replaced as its three factors, where its
docstring promises the original op bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import reference as ref

LOGIT_ATOL = 1e-9
DIST_ATOL = 1e-9
GRAD_STEP = 1e-5
GRAD_ATOL = 1e-7
ROTATIONS = ("rx", "ry", "rz", "r")


class CheckError(AssertionError):
    """An output of the program disagrees with the reference."""


@dataclass
class Pass:
    """One ``optimizer.optimize`` call: its input, config and outputs."""

    source: object  # Circuit
    cfg: object  # OptimizeConfig
    output: object  # Circuit
    report: object  # OptimizeReport


def _sig(op) -> tuple:
    return (op.kind.value, tuple(op.qubits), tuple(op.angles), bool(op.trainable))


def _factors(op) -> list[tuple[str, float]]:
    """An op's rotation factors in circuit order: r(φ, θ, ω) = rz·ry·rz."""
    if op.kind.value == "r":
        phi, theta, omega = op.angles
        return [("rz", phi), ("ry", theta), ("rz", omega)]
    return [(op.kind.value, op.angles[0])]


@dataclass
class _Search:
    """What one ledger entry must cover: a factor, or a run of factors."""

    position: int
    factor: int | None
    qubit: int
    factors: list  # (name, angle)
    ops: list  # source op indices covered, in order


def expected_searches(source, fused: bool) -> list[_Search]:
    """The searches a pass must run, in ledger order.

    Per-gate: one per rotation factor. Fused: one per maximal run of
    factors on one wire that no other op touching the wire interrupts.
    """
    searches: list[_Search] = []
    open_runs: dict[int, _Search] = {}
    for pos, op in enumerate(source.ops):
        if op.kind.value not in ROTATIONS:
            for q in op.qubits:
                open_runs.pop(q, None)
            continue
        q = op.qubits[0]
        factors = _factors(op)
        multi = len(factors) > 1
        if fused:
            run = open_runs.get(q)
            if run is None:
                run = _Search(pos, 0 if multi else None, q, [], [])
                open_runs[q] = run
                searches.append(run)
            run.factors.extend(factors)
            run.ops.append(pos)
        else:
            for f, factor in enumerate(factors):
                searches.append(_Search(pos, f if multi else None, q, [factor], [pos]))
    return searches


def _target(search: _Search) -> np.ndarray:
    u = ref.I2
    for name, angle in search.factors:
        u = ref.gate(name, (angle,)) @ u
    return u


def check_ledger(p: Pass) -> list[tuple[_Search, object]]:
    """Ledger entries against the source: coverage, distances, decisions."""
    fused = p.report.mode == "fused-runs"
    searches = expected_searches(p.source, fused)
    ledger = p.report.ledger
    if len(ledger) != len(searches):
        raise CheckError(f"ledger has {len(ledger)} entries, source needs {len(searches)}")
    tol = p.cfg.tolerance
    for s, e in zip(searches, ledger):
        where = f"ledger entry at op {s.position} factor {s.factor}"
        if (e.position, e.factor, e.qubit) != (s.position, s.factor, s.qubit):
            raise CheckError(f"{where}: covers op {e.position} factor {e.factor}")
        if tuple(e.angles) != tuple(a for _, a in s.factors) or e.span != len(s.factors):
            raise CheckError(f"{where}: angles {e.angles} do not match the source")
        d = ref.distance(_target(s), ref.word_unitary(e.replacement))
        if abs(d - e.distance) > DIST_ATOL:
            raise CheckError(f"{where}: ledger distance {e.distance!r}, word gives {d!r}")
        if e.replaced != (e.distance < tol):
            raise CheckError(f"{where}: replaced={e.replaced} at distance {e.distance}")
        if e.replaced and d >= tol + DIST_ATOL:
            raise CheckError(f"{where}: word is {d} from its target, tolerance {tol}")
    return list(zip(searches, ledger))


def _emit(source, pairs, split_untouched: bool) -> list[tuple]:
    """Output the pass should produce, from the source and the ledger.

    With ``split_untouched`` false an op none of whose factors was
    replaced stays verbatim, as the optimizer documents; with it true
    such an ``r`` op is emitted as its three factors.
    """
    ops = source.ops
    by_op: dict[int, list] = {}
    for s, e in pairs:
        for pos in s.ops:
            by_op.setdefault(pos, []).append((s, e))

    def kept(pos) -> list[tuple]:
        op = ops[pos]
        factors = _factors(op)
        if len(factors) == 1 or not split_untouched:
            return [_sig(op)]
        return [(n, op.qubits, (a,), op.trainable) for n, a in factors]

    out: list[tuple] = []
    for pos, op in enumerate(ops):
        if pos not in by_op:
            out.append(_sig(op))
            continue
        entries = by_op[pos]
        if not any(e.replaced for _, e in entries):
            if entries[0][0].ops[0] == pos:  # a run emits at its first op
                for p in entries[0][0].ops:
                    out.extend(kept(p))
            continue
        for s, e in entries:
            if s.ops[0] != pos:
                continue
            if e.replaced:
                q = (s.qubit,)
                out.extend((g, q, (), False) for g in e.replacement if g != "id")
            elif len(s.ops) == 1 and len(entries) > 1:  # one kept factor of an r op
                name, angle = s.factors[0]
                out.append((name, op.qubits, (angle,), op.trainable))
            else:
                for p in s.ops:
                    out.extend(kept(p))
    return out


def _cnots(c) -> list:
    return [op.qubits for op in c.ops if op.kind.value == "cnot"]


def check_pass(p: Pass) -> bool:
    """Check one optimize pass; returns False when it hit the split fault."""
    pairs = check_ledger(p)
    if _cnots(p.output) != _cnots(p.source):
        raise CheckError("cnots changed order or count")
    got = [_sig(op) for op in p.output.ops]
    ok = got == _emit(p.source, pairs, split_untouched=False)
    if not ok and got != _emit(p.source, pairs, split_untouched=True):
        raise CheckError("output is not the source with the ledger's words spliced in")
    for c, m in ((p.source, p.report.before), (p.output, p.report.after)):
        gates, depth = ref.basis_counts(c)
        params = sum(len(op.angles) for op in c.ops if op.trainable)
        if (gates, depth, params) != (
            m.decomposed_gate_count,
            m.decomposed_depth,
            m.remaining_parameters,
        ):
            raise CheckError(f"report metrics {m} disagree with {(gates, depth, params)}")
    return ok


def split_kept(p: Pass) -> int:
    """``r`` ops with no replaced factor: the ones the split fault hits."""
    searches = expected_searches(p.source, p.report.mode == "fused-runs")
    replaced = {pos for s, e in zip(searches, p.report.ledger) if e.replaced for pos in s.ops}
    return sum(
        1
        for pos, op in enumerate(p.source.ops)
        if op.kind.value == "r" and pos not in replaced
    )


def longer_words(p: Pass) -> int:
    """Replacements whose basis cost exceeds that of the factors they replace."""
    searches = expected_searches(p.source, p.report.mode == "fused-runs")
    return sum(
        1
        for s, e in zip(searches, p.report.ledger)
        if e.replaced
        and sum(ref.BASIS_COST[g] for g in e.replacement)
        > sum(ref.BASIS_COST[n] for n, _ in s.factors)
    )


def check_nested(passes: list[Pass]) -> None:
    """Across one mode's tolerances: nested replaced sets, falling parameters."""
    passes = sorted(passes, key=lambda p: p.cfg.tolerance)
    prev_set, prev_params = None, None
    for p in passes:
        replaced = {(e.position, e.factor) for e in p.report.ledger if e.replaced}
        params = p.report.after.remaining_parameters
        if prev_set is not None and not prev_set <= replaced:
            raise CheckError(f"replaced set at tolerance {p.cfg.tolerance} drops entries")
        if prev_params is not None and params > prev_params:
            raise CheckError(f"parameters rise to {params} at tolerance {p.cfg.tolerance}")
        prev_set, prev_params = replaced, params


def reference_logits(model, x) -> np.ndarray:
    return ref.logits(
        ref.plain_ops(model.ansatz),
        model.n_qubits,
        model.readout_scale,
        model.readout_bias,
        x,
    )


def check_logits(program_logits, want: np.ndarray) -> None:
    err = float(np.max(np.abs(np.asarray(program_logits) - want)))
    if not err <= LOGIT_ATOL:
        raise CheckError(f"test logits differ from the reference by {err:.3e}")


def check_accuracy(reported: float, want_logits: np.ndarray, y) -> float:
    """Reported accuracy against argmax of the reference logits.

    A sample whose two best logits tie within LOGIT_ATOL may go either
    way. Returns the reference accuracy.
    """
    y = np.asarray(y)
    top2 = np.sort(want_logits, axis=1)[:, -2:]
    ties = int(np.sum(top2[:, 1] - top2[:, 0] <= LOGIT_ATOL))
    hits = int(np.sum(np.argmax(want_logits, axis=1) == y))
    if abs(reported * len(y) - hits) > ties + 1e-9:
        raise CheckError(f"accuracy {reported} but the reference gives {hits}/{len(y)}")
    return hits / len(y)


def check_gradient(model, x, y, loss: float, grad) -> None:
    """Loss and gradient against central differences of the reference loss."""
    ops = ref.plain_ops(model.ansatz)
    trainable = [op.trainable for op in model.ansatz.ops]
    slots = [(i, a) for i, (_, _, ang) in enumerate(ops) if trainable[i] for a in range(len(ang))]

    def ref_loss(i=None, a=None, h=0.0) -> float:
        shifted = list(ops)
        if i is not None:
            name, qubits, angles = ops[i]
            angles = list(angles)
            angles[a] += h
            shifted[i] = (name, qubits, tuple(angles))
        z = ref.logits(shifted, model.n_qubits, model.readout_scale, model.readout_bias, x)
        return ref.cross_entropy(z, y)

    if abs(loss - ref_loss()) > 1e-10:
        raise CheckError(f"loss {loss!r} but the reference gives {ref_loss()!r}")
    if len(grad) != len(slots):
        raise CheckError(f"gradient has {len(grad)} entries, model has {len(slots)} angles")
    fd = np.array(
        [(ref_loss(i, a, GRAD_STEP) - ref_loss(i, a, -GRAD_STEP)) / (2 * GRAD_STEP) for i, a in slots]
    )
    err = float(np.max(np.abs(np.asarray(grad) - fd), initial=0.0))
    if not err <= GRAD_ATOL:
        raise CheckError(f"gradient differs from finite differences by {err:.3e}")


def check_direction(before, after) -> None:
    """The paper's direction with acceptance criterion 4's circuit bands:
    decomposed gates down by 35% or more, depth by 5% or more."""
    gate_cut = 1 - after.decomposed_gate_count / before.decomposed_gate_count
    depth_cut = 1 - after.decomposed_depth / before.decomposed_depth
    if gate_cut < 0.35 or depth_cut < 0.05:
        raise CheckError(f"gates -{gate_cut:.1%} (want ≥35%), depth -{depth_cut:.1%} (want ≥5%)")
