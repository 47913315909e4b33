#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, written to one JSON file.

    python3 tools/pairs.py PARENT_DIR CHANGE_DIR --pairs 10 --out BENCH_<pr>.json

PARENT_DIR and CHANGE_DIR are two checkouts. For every workload in the
change's ``BENCHMARK.json``, each pair runs ``bench/run.py --workload W
--seed S --seconds T --trace 0`` once from each checkout, in its own
directory. Even pairs run the parent first and odd pairs the change, so
neither side always gets the second slot on a shared machine. The file
holds every result line, the per-metric medians and quartiles, the pairs
each side won, the machine record and each side's ``src/`` line count,
both of all lines and of code lines only (no blank, comment or docstring
lines). It is rewritten after every pair. Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tokenize
from pathlib import Path

SIDES = ("parent", "change")
BLAS_PINNING = "OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1, set by bench/run.py"
NUMPY_PROBE = (
    "import json, numpy; blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
    "print(json.dumps({'numpy': numpy.__version__, "
    "'blas': ' '.join(str(blas.get(k, '')) for k in ('name', 'version', 'openblas configuration'))}))"
)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``bench/run.py`` run from ``checkout``."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _quartiles(xs: list[float]) -> dict:
    if len(xs) == 1:  # the file is written from the first pair on
        return {"median": xs[0], "q1": xs[0], "q3": xs[0]}
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload: correctness, failed share and, per metric, each side's
    quartiles, the pairs each side won (ties count for neither) and the
    parent's quartile spread. ``better`` maps a metric to "lower" or "higher"."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        res = {(r["pair"], r["side"]): r["result"] for r in runs if r["workload"] == workload}
        pairs = sorted({p for p, s in res if all((p, side) in res for side in SIDES)})
        row = {
            "pairs": len(pairs),
            "correct": all(res[p, s]["correct"] for p in pairs for s in SIDES),
            "failed_share": {
                s: sorted({res[p, s]["failed"] / res[p, s]["attempted"] for p in pairs})
                for s in SIDES
            },
        }
        for metric, direction in better.items():
            values = {s: [res[p, s]["metrics"][metric]["value"] for p in pairs] for s in SIDES}
            sign = 1 if direction == "lower" else -1
            gains = [sign * (p - c) for p, c in zip(values["parent"], values["change"])]
            stats = {s: _quartiles(values[s]) for s in SIDES}
            base = stats["parent"]["median"]
            row[metric] = {
                **stats,
                "change_pct": 100 * (stats["change"]["median"] / base - 1) if base else 0.0,
                "change_wins": sum(g > 0 for g in gains),
                "parent_wins": sum(g < 0 for g in gains),
                "parent_iqr": stats["parent"]["q3"] - stats["parent"]["q1"],
            }
        summary[workload] = row
    return summary


def _sources(checkout: Path) -> list[str]:
    return [p.read_text(encoding="utf-8") for p in sorted((checkout / "src").rglob("*.py"))]


def src_lines(checkout: Path) -> int:
    """All lines of ``src/**/*.py``."""
    return sum(len(text.splitlines()) for text in _sources(checkout))


_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """Lines of Python source that hold code: not blank, comment or docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def src_code_lines(checkout: Path) -> int:
    """Code lines of ``src/**/*.py`` (see ``code_lines``)."""
    return sum(code_lines(text) for text in _sources(checkout))


def machine() -> dict:
    probe = subprocess.run([sys.executable, "-c", NUMPY_PROBE], check=True,
                           capture_output=True, text=True).stdout
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            **json.loads(probe), "blas_threads": BLAS_PINNING}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    checkouts = {"parent": args.parent, "change": args.change}
    lines = {s: src_lines(checkouts[s]) for s in SIDES}
    code = {s: src_code_lines(checkouts[s]) for s in SIDES}
    record = {
        "command": f"python3 bench/run.py --workload W --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "method": f"{args.pairs} pairs per workload; even pairs run the parent first; "
                  "quartiles by the inclusive method; ties count for neither side",
        "machine": machine(),
        "src_lines": {**lines, "delta": lines["change"] - lines["parent"]},
        "src_code_lines": {**code, "delta": code["change"] - code["parent"]},
        "runs": [],
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                result = run_once(checkouts[side], workload, args.seed, args.seconds)
                record["runs"].append(
                    {"workload": workload, "pair": pair, "side": side, "result": result})
            record["summary"] = summarize(record["runs"], better)
            args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
            print(f"{workload} pair {pair} done", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
