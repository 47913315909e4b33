"""Circuit IR, text round-trips, and depth / gate-count metrics."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    decompose,
    decompose_to_basis,
    full_unitary,
    random_circuit,
    random_kind_circuit,
)
from pqc_forge.circuit import Circuit, Op, ParseError, metrics, parse, serialize
from pqc_forge.gates import GateKind


def test_parse_single_rx():
    c = parse("qubits 1\nrx 0 3.14159\n")
    assert c.n_qubits == 1
    assert c.ops == (Op(GateKind.RX, (0,), (3.14159,), True),)


def test_parse_cnot():
    c = parse("qubits 2\ncnot 0 1\n")
    assert c.ops == (Op(GateKind.CNOT, (0, 1)),)


def test_parse_out_of_range_names_line():
    with pytest.raises(ParseError, match="line 2"):
        parse("qubits 4\nrx 5 0.1\n")


def test_parse_errors():
    with pytest.raises(ParseError, match="line 1"):
        parse("frobnicate 0\n")
    with pytest.raises(ParseError, match="unknown gate"):
        parse("qubits 2\nfrob 0\n")
    with pytest.raises(ParseError, match="expects"):
        parse("qubits 2\nrx 0\n")  # missing angle
    with pytest.raises(ParseError, match="expects"):
        parse("qubits 2\ncnot 0\n")
    with pytest.raises(ParseError, match="bad angle"):
        parse("qubits 2\nrx 0 nope\n")
    with pytest.raises(ParseError, match="'!'"):
        parse("qubits 2\nx! 0\n")
    with pytest.raises(ParseError, match="empty"):
        parse("# nothing here\n")
    with pytest.raises(ParseError, match="differ"):
        parse("qubits 2\ncnot 1 1\n")


def test_parse_comments_and_blank_lines():
    text = "# header\n\nqubits 2  # two wires\n x 0 # pauli\n\n  cnot 0 1\n"
    c = parse(text)
    assert [op.kind for op in c.ops] == [GateKind.X, GateKind.CNOT]


def test_serialize_rx_pi_exact_text():
    c = Circuit(1, (Op(GateKind.RX, (0,), (math.pi,), True),))
    assert serialize(c) == "qubits 1\nrx 0 3.1415926535897931\n"


def test_serialize_empty_circuit():
    assert serialize(Circuit(3)) == "qubits 3\n"


def test_frozen_rotation_round_trips():
    text = "qubits 1\nrx! 0 0.5\nrx 0 0.25\n"
    c = parse(text)
    assert c.ops[0].trainable is False
    assert c.ops[1].trainable is True
    assert serialize(c) == "qubits 1\nrx! 0 0.5\nrx 0 0.25\n"


def test_round_trip_seeded_circuits():
    rng = np.random.default_rng(21)
    for _ in range(30):
        c = random_circuit(int(rng.integers(1, 7)), int(rng.integers(0, 40)), rng)
        assert parse(serialize(c)) == c


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    c = random_circuit(int(rng.integers(1, 6)), int(rng.integers(0, 25)), rng)
    assert parse(serialize(c)) == c


def test_op_validation():
    with pytest.raises(ValueError, match="cannot be trainable"):
        Op(GateKind.X, (0,), (), True)
    with pytest.raises(ValueError, match="angle"):
        Op(GateKind.RX, (0,), (13.0,), True)  # outside (-4pi, 4pi)
    with pytest.raises(ValueError, match="qubit"):
        Circuit(2, (Op(GateKind.X, (2,)),))


def test_metrics_single_cnot():
    m = metrics(Circuit(2, (Op(GateKind.CNOT, (0, 1)),)))
    assert m.logical_depth == 1
    assert m.logical_gate_count == 1
    assert m.decomposed_depth == 1
    assert m.decomposed_gate_count == 1
    assert m.remaining_parameters == 0


def test_metrics_as_dict_keeps_the_field_order():
    m = metrics(Circuit(2, (Op(GateKind.RX, (0,), (0.3,), True), Op(GateKind.CNOT, (0, 1)))))
    assert list(m.as_dict().items()) == [
        ("logical_depth", 2), ("logical_gate_count", 2), ("decomposed_depth", 6),
        ("decomposed_gate_count", 6), ("remaining_parameters", 1),
    ]


def test_metrics_id_contributes_nothing_decomposed():
    c = Circuit(1, (Op(GateKind.ID, (0,)), Op(GateKind.ID, (0,))))
    m = metrics(c)
    assert m.logical_gate_count == 2
    assert m.decomposed_gate_count == 0
    assert m.decomposed_depth == 0


def test_metrics_parallel_ops_share_depth():
    c = Circuit(2, (Op(GateKind.X, (0,)), Op(GateKind.X, (1,))))
    assert metrics(c).logical_depth == 1


def test_decomposed_count_is_sum_of_per_op_lengths():
    rng = np.random.default_rng(33)
    for _ in range(20):
        c = random_circuit(4, 25, rng)
        expected = sum(
            len(decompose_to_basis(op.kind, op.angles)) for op in c.ops
        )
        assert metrics(c).decomposed_gate_count == expected
        assert len(decompose(c).ops) == expected


def dag_depth(ops) -> int:
    """Longest path of the dependency DAG, op by op over all its predecessors."""
    depth: list[int] = []
    for i, op in enumerate(ops):
        preds = [depth[j] for j in range(i) if set(ops[j].qubits) & set(op.qubits)]
        depth.append(1 + max(preds, default=0))
    return max(depth, default=0)


def test_metrics_equal_the_rewritten_circuit():
    rng = np.random.default_rng(14)
    for _ in range(60):
        c = random_kind_circuit(int(rng.integers(1, 6)), int(rng.integers(0, 40)), rng)
        rewritten = decompose(c)
        m = metrics(c)
        assert m.logical_gate_count == len(c.ops)
        assert m.logical_depth == dag_depth(c.ops)
        assert m.decomposed_gate_count == len(rewritten.ops)
        assert m.decomposed_depth == dag_depth(rewritten.ops)
        assert m.remaining_parameters == sum(len(op.angles) for op in c.ops if op.trainable)


def test_metrics_of_a_huge_register_touch_only_its_wires():
    t0 = time.perf_counter()
    m = metrics(parse("qubits 1000000000\nh 999999999\ncnot 0 5\n"))
    assert time.perf_counter() - t0 < 0.5
    assert (m.logical_depth, m.decomposed_depth, m.decomposed_gate_count) == (1, 3, 4)


def test_remaining_parameters_counts_trainable_angles():
    c = Circuit(
        2,
        (
            Op(GateKind.RX, (0,), (0.5,), True),
            Op(GateKind.R3, (1,), (0.1, 0.2, 0.3), True),
            Op(GateKind.RZ, (0,), (0.7,), False),  # frozen: not counted
        ),
    )
    assert metrics(c).remaining_parameters == 4


def test_depth_invariant_under_disjoint_swap():
    rng = np.random.default_rng(5)
    for _ in range(40):
        c = random_circuit(4, 20, rng)
        ops = list(c.ops)
        # swap a random adjacent disjoint pair, depth must not change
        idx = [
            i
            for i in range(len(ops) - 1)
            if not set(ops[i].qubits) & set(ops[i + 1].qubits)
        ]
        if not idx:
            continue
        i = idx[rng.integers(len(idx))]
        ops[i], ops[i + 1] = ops[i + 1], ops[i]
        swapped = Circuit(c.n_qubits, tuple(ops))
        assert metrics(swapped).logical_depth == metrics(c).logical_depth
        assert metrics(swapped).decomposed_depth == metrics(c).decomposed_depth


def test_full_unitary_empty_is_identity():
    assert np.allclose(full_unitary(Circuit(2)), np.eye(4))


def test_full_unitary_hh_is_identity():
    c = Circuit(1, (Op(GateKind.H, (0,)), Op(GateKind.H, (0,))))
    assert np.max(np.abs(full_unitary(c) - np.eye(2))) < 1e-12


def test_full_unitary_x_cnot_truth_table():
    c = Circuit(2, (Op(GateKind.X, (0,)), Op(GateKind.CNOT, (0, 1))))
    ket00 = np.zeros(4)
    ket00[0] = 1
    assert np.argmax(np.abs(full_unitary(c) @ ket00)) == 3  # |11>


def test_full_unitary_qubit_limit():
    with pytest.raises(ValueError, match="at most 10"):
        full_unitary(Circuit(11))
