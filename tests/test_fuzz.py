"""Property tests over the input edges: circuit text, model sidecars, CLI flags.

Each property only checks that bad input ends in the documented way: a
``ParseError``, a ``ValueError``/``OSError``, or a CLI exit code of 0, 1
or 2 without a traceback. No strategy generates a qubit, iteration,
layer or grid-length value, since those size the arrays a run allocates.
"""

import copy
import json
import math

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from pqc_forge import circuit as circ, qnn
from pqc_forge.circuit import ParseError
from pqc_forge.cli import main
from pqc_forge.gates import GateKind

FUZZ = settings(derandomize=True, deadline=None, max_examples=40, database=None)

MNEMONICS = [kind.value for kind in GateKind]
TOKENS = st.one_of(
    st.sampled_from(MNEMONICS + [m + "!" for m in MNEMONICS] + ["qubits", "#", "!"]),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0", "0.5", "-3.2", "13", "1e-320"]),
    st.sampled_from(["0", "1", "2", "-1", "3"]),
    st.floats().map(repr),
    st.text(max_size=4),
)
LINES = st.lists(TOKENS, max_size=6).map(" ".join)
TEXTS = st.tuples(st.sampled_from(["", "qubits 2\n", "qubits 3\n"]), st.lists(LINES, max_size=8)).map(
    lambda parts: parts[0] + "\n".join(parts[1])
)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)
SIDECAR_FIELDS = [
    ("format",),
    ("version",),
    ("encoding", "kind"),
    ("dataset",),
    ("n_qubits",),
    ("n_classes",),
    ("feature_count",),
    ("readout_qubits",),
    ("readout_scale",),
    ("readout_bias",),
    ("normalization",),
    ("normalization", "lo"),
    ("layer",),
    ("layer", "kind"),
    ("layer", "layers"),
    ("seed",),
    ("split_seed",),
]


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.qc"
    spec = qnn.LayerSpec(qnn.LayerKind.BASIC_ENTANGLER, 1, 4)
    qnn.save_model(qnn.build_model(spec, qnn.load_dataset("iris")), path)
    return path


@pytest.fixture(scope="module")
def circuit_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("circuit") / "c.qc"
    path.write_text("qubits 2\nrx 0 0.3\nh 1\ncnot 0 1\nr 1 0.1 1.5 -2.0\nrz 0 3.1\n")
    return path


def clean_exit(args):
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code in (0, 1, 2)
    assert "Traceback" not in result.output


@FUZZ
@given(TEXTS)
def test_parse_round_trips_or_raises_parse_error(text):
    try:
        c = circ.parse(text)
    except ParseError:
        return
    assert circ.parse(circ.serialize(c)) == c


@FUZZ
@given(st.sampled_from(SIDECAR_FIELDS), JSON_VALUES)
@example(("n_qubits",), math.inf)  # int() raises OverflowError, not ValueError
@example(("readout_scale",), [10**400, 1, 1])
def test_load_model_loads_or_raises(model_file, field, value):
    side = qnn.sidecar_path(model_file)
    meta = json.loads(side.read_text())
    edited = copy.deepcopy(meta)
    *parents, key = field
    slot = edited
    for name in parents:
        slot = slot[name]
    slot[key] = value
    side.write_text(json.dumps(edited))
    try:
        qnn.load_model(model_file)
    except (ValueError, OSError):
        pass
    finally:
        side.write_text(json.dumps(meta))


@FUZZ
@given(st.floats())
def test_optimize_tolerance_exits_cleanly(circuit_file, tolerance):
    out = circuit_file.with_name("out.qc")
    clean_exit(["optimize", "--in", str(circuit_file), f"--tolerance={tolerance!r}", "--out", str(out)])


@FUZZ
@given(st.floats())
def test_approx_gate_angle_exits_cleanly(angle):
    clean_exit(["approx-gate", "--gate", "rx", f"--angle={angle!r}", "--iters", "1"])
