"""tools/equiv.py: value hashing, and a run of the repo against itself."""

import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("equiv", ROOT / "tools" / "equiv.py")
equiv = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(equiv)


def test_digest_compares_by_value():
    a = {"x": np.array([0.0, 1.5 - 2j]), "loss": 0.25, "rows": [1, "a", None]}
    signed = {"rows": [1, "a", None], "loss": 0.25, "x": np.array([-0.0, 1.5 - 2j])}
    assert equiv.digest(a) == equiv.digest(signed)
    assert equiv.digest(a) != equiv.digest({**a, "loss": np.nextafter(0.25, 1.0)})
    assert equiv.digest(a) != equiv.digest({**a, "x": a["x"].astype(np.complex64)})
    assert equiv.digest([1, 2]) != equiv.digest([[1, 2]])


def test_repo_equals_itself(capsys):
    assert equiv.main([str(ROOT), str(ROOT)]) == 0
    out = capsys.readouterr().out
    assert out.endswith("items value-equal\n") and int(out.split()[0]) > 30
