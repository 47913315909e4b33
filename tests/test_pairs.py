"""The summary that tools/pairs.py writes, on canned result lines."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def line(run_s, gates, failed=0, attempted=4, correct=True):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "run_s": {"value": run_s, "unit": "s"},
            "gates_after": {"value": gates, "unit": "gates"},
        },
    }


def runs_of(workload, parent, change):
    """Result lines in the order tools/pairs.py runs them: even pairs parent first."""
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        order = [("parent", p), ("change", c)]
        for side, result in order if pair % 2 == 0 else order[::-1]:
            runs.append({"workload": workload, "pair": pair, "side": side, "result": result})
    return runs


def test_summary_counts_wins_medians_and_spread():
    runs = runs_of(
        "a",
        [line(1.0, 10), line(3.0, 10), line(2.0, 10), line(5.0, 10)],
        [line(0.5, 10), line(3.5, 10), line(1.0, 10), line(2.0, 10)],
    ) + runs_of("b", [line(1.0, 7, failed=1)] * 2, [line(1.0, 7, failed=1, correct=False)] * 2)
    summary = pairs.summarize(runs, {"run_s": "lower", "gates_after": "lower"})
    assert list(summary) == ["a", "b"]
    a = summary["a"]
    assert a["pairs"] == 4 and a["correct"]
    assert a["failed_share"] == {"parent": [0.0], "change": [0.0]}
    run_s = a["run_s"]
    assert run_s["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.5}
    assert run_s["change"]["median"] == 1.5
    assert run_s["change_pct"] == pytest.approx(-40.0)
    assert (run_s["change_wins"], run_s["parent_wins"]) == (3, 1)
    assert run_s["parent_iqr"] == pytest.approx(1.75)
    # equal values are ties, which count for neither side
    assert (a["gates_after"]["change_wins"], a["gates_after"]["parent_wins"]) == (0, 0)
    b = summary["b"]
    assert not b["correct"]
    assert b["failed_share"] == {"parent": [0.25], "change": [0.25]}


def test_summary_respects_higher_is_better_and_half_done_pairs():
    runs = runs_of("a", [line(1.0, 10), line(1.0, 10)], [line(2.0, 12), line(2.0, 12)])
    runs.append({"workload": "a", "pair": 2, "side": "change", "result": line(9.0, 99)})
    summary = pairs.summarize(runs, {"gates_after": "higher"})
    assert summary["a"]["pairs"] == 2
    assert summary["a"]["gates_after"]["change_wins"] == 2
    one = pairs.summarize(runs[:2], {"run_s": "lower"})["a"]["run_s"]
    assert one["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    source = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a multi-line string
        that is not a docstring"""
        return text
'''
    assert pairs.code_lines(source) == 6
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(source, encoding="utf-8")
    (pkg / "b.py").write_text("x = 1\n\n", encoding="utf-8")
    assert pairs.src_lines(tmp_path) == len(source.splitlines()) + 2
    assert pairs.src_code_lines(tmp_path) == 7
