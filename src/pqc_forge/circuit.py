"""Circuit IR, the line-based text format, and depth / gate-count metrics.

Circuit files are UTF-8 text, one op per line::

    # comment (runs to end of line)
    qubits 8
    x 0            # fixed single-qubit gates: x y z h s t id sx sdg sxdg tdg
    rx 1 0.5       # rotations carry angles in radians and are trainable
    rx! 1 0.5      # '!' freezes a rotation: never trained, but optimize may replace it
    r 2 0.1 0.2 0.3
    cnot 0 1

``serialize`` emits a canonical form (17 significant digits per angle) so
that parse ∘ serialize is the identity on circuits and serialize ∘ parse
is the identity on canonical text.

Depth is the longest path in the dependency DAG where two ops conflict
iff they share a qubit. The decomposed variants count every op by its
``gates.BASIS_COST``, the length of its own rewrite over the
{cx, id, rz, sx, x} basis (id vanishes); no cross-gate fusion is
applied, so counts are reproducible. ``tests/helpers.py`` holds the
verified rewrite, and the tests check these counts against it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

from .gates import BASIS_COST, GateKind, N_ANGLES, ROTATION_KINDS

MAX_ANGLE = 4 * math.pi


class ParseError(ValueError):
    """Raised on malformed circuit text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Op:
    """One gate application: kind, qubit indices, angles, trainable flag."""

    kind: GateKind
    qubits: tuple[int, ...]
    angles: tuple[float, ...] = ()
    trainable: bool = False

    def __post_init__(self):
        n_q = 2 if self.kind is GateKind.CNOT else 1
        if len(self.qubits) != n_q:
            raise ValueError(f"{self.kind.value} takes {n_q} qubit(s), got {self.qubits}")
        if self.kind is GateKind.CNOT and self.qubits[0] == self.qubits[1]:
            raise ValueError("cnot control and target must differ")
        if len(self.angles) != N_ANGLES[self.kind]:
            raise ValueError(
                f"{self.kind.value} takes {N_ANGLES[self.kind]} angle(s), got {len(self.angles)}"
            )
        for a in self.angles:
            if not -MAX_ANGLE < a < MAX_ANGLE:
                raise ValueError(f"angle {a} outside (-4π, 4π)")
        if self.trainable and self.kind not in ROTATION_KINDS:
            raise ValueError(f"{self.kind.value} cannot be trainable")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list on ``n_qubits`` wires. Immutable value type."""

    n_qubits: int
    ops: tuple[Op, ...] = ()

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be positive, got {self.n_qubits}")
        for op in self.ops:
            for q in op.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(
                        f"qubit index {q} out of range for {self.n_qubits} qubits"
                    )

    def with_ops(self, ops) -> "Circuit":
        return replace(self, ops=tuple(ops))


@dataclass(frozen=True)
class CircuitMetrics:
    logical_depth: int
    logical_gate_count: int
    decomposed_depth: int
    decomposed_gate_count: int
    remaining_parameters: int

    def as_dict(self) -> dict:
        return asdict(self)


_MNEMONIC_TO_KIND = {kind.value: kind for kind in GateKind}


def _parse_angle(token: str, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(line_no, f"bad angle {token!r}") from None


def parse(text: str) -> Circuit:
    """Parse circuit text; raises ParseError naming the offending line."""
    n_qubits = None
    ops: list[Op] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n_qubits is None:
            if tokens[0] != "qubits" or len(tokens) != 2:
                raise ParseError(line_no, "expected 'qubits <n>' header")
            try:
                n_qubits = int(tokens[1])
            except ValueError:
                raise ParseError(line_no, f"bad qubit count {tokens[1]!r}") from None
            if n_qubits < 1:
                raise ParseError(line_no, f"qubit count must be positive, got {n_qubits}")
            continue
        mnemonic = tokens[0]
        frozen = mnemonic.endswith("!")
        if frozen:
            mnemonic = mnemonic[:-1]
        kind = _MNEMONIC_TO_KIND.get(mnemonic)
        if kind is None:
            raise ParseError(line_no, f"unknown gate {tokens[0]!r}")
        if frozen and kind not in ROTATION_KINDS:
            raise ParseError(line_no, f"'!' only applies to rotations, not {mnemonic!r}")
        n_q = 2 if kind is GateKind.CNOT else 1
        n_a = N_ANGLES[kind]
        if len(tokens) != 1 + n_q + n_a:
            raise ParseError(
                line_no,
                f"{mnemonic} expects {n_q} qubit(s) and {n_a} angle(s), "
                f"got {len(tokens) - 1} argument(s)",
            )
        try:
            qubits = tuple(int(t) for t in tokens[1 : 1 + n_q])
        except ValueError:
            raise ParseError(line_no, "bad qubit index") from None
        angles = tuple(_parse_angle(t, line_no) for t in tokens[1 + n_q :])
        for q in qubits:
            if not 0 <= q < n_qubits:
                raise ParseError(line_no, f"qubit index {q} out of range (qubits {n_qubits})")
        trainable = kind in ROTATION_KINDS and not frozen
        try:
            ops.append(Op(kind, qubits, angles, trainable))
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
    if n_qubits is None:
        raise ParseError(1, "empty circuit file; expected 'qubits <n>' header")
    return Circuit(n_qubits, tuple(ops))


def serialize(c: Circuit) -> str:
    """Canonical text form of a circuit (inverse of ``parse``)."""
    lines = [f"qubits {c.n_qubits}"]
    for op in c.ops:
        mnemonic = op.kind.value
        if op.kind in ROTATION_KINDS and not op.trainable:
            mnemonic += "!"
        parts = [mnemonic, *(str(q) for q in op.qubits)]
        parts.extend(f"{a:.17g}" for a in op.angles)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def load(path) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def save(c: Circuit, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(c))


def metrics(c: Circuit) -> CircuitMetrics:
    """Counts, depths and trainable angles of ``c`` in one pass over its ops.

    A single-qubit op adds its basis cost to its wire's basis depth and 1
    to its logical depth; a cnot sets both its wires to their max + 1.
    Depths live in dicts keyed by the wires the ops touch, so the work
    does not grow with ``n_qubits``.
    """
    logical: dict[int, int] = {}
    basis: dict[int, int] = {}
    gate_count = params = 0
    for op in c.ops:
        cost = BASIS_COST[op.kind]
        gate_count += cost
        if op.trainable:
            params += len(op.angles)
        if op.kind is GateKind.CNOT:
            a, b = op.qubits
            logical[a] = logical[b] = max(logical.get(a, 0), logical.get(b, 0)) + 1
            basis[a] = basis[b] = max(basis.get(a, 0), basis.get(b, 0)) + 1
        else:
            (q,) = op.qubits
            logical[q] = logical.get(q, 0) + 1
            basis[q] = basis.get(q, 0) + cost
    return CircuitMetrics(
        logical_depth=max(logical.values(), default=0),
        logical_gate_count=len(c.ops),
        decomposed_depth=max(basis.values(), default=0),
        decomposed_gate_count=gate_count,
        remaining_parameters=params,
    )
