#!/usr/bin/env python3
"""pqc-forge benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload bel8-pipeline --seed 0 --seconds 30 --trace 0

Run from the repository root. The program is imported from ``src/``;
nothing is installed. One process, single-threaded, with every BLAS
pinned to one thread before numpy loads.

A run measures set-up in fresh child processes, builds the workload's
inputs from the seed, then repeats timed rounds of the same calls as
long as the next round is expected to end within ``--seconds`` (at
least one round). Every round's
outputs are checked against the independent reference after its timer
stops. With ``--trace 0`` the last line carries the end-to-end metrics;
with ``--trace 1`` untraced and traced rounds alternate and it carries
the per-layer metrics and the tracing overhead. Spans are written to
``.bench_out/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7
GRAD_PROBES = 3


def _cpu_seconds() -> float:
    self_, kids = (resource.getrusage(w) for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return self_.ru_utime + self_.ru_stime + kids.ru_utime + kids.ru_stime


def _setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of a fresh process that imports, loads and builds."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import layers
    import workloads
    from checks import CheckError
    from tracer import Tracer

    wl = workloads.WORKLOADS[workload]
    setup_s = _setup_seconds(workload, seed)
    tr = Tracer()
    if trace:
        tr.round = layers.SETUP_ROUND
        layers.install(tr)
    st = wl.setup(seed)
    tr.uninstall()

    correct, problem = True, None
    try:
        workloads.check_gradient(st)
    except CheckError as exc:
        correct, problem = False, f"gradient: {exc}"

    attempted = failed = 0
    times = {False: [], True: []}  # traced? -> round wall times
    cpu, gates, depth, per_round = [], [], [], []
    spent, rnd = 0.0, 0
    # stop before a round that would end past ``seconds``, after at least
    # one round (one of each kind when tracing)
    while rnd == 0 or spent * (rnd + 1) / rnd <= seconds or (trace and not times[True]):
        traced = trace and rnd % 2 == 1
        if traced:
            tr.round = rnd
            layers.install(tr)
            before = dict(tr.counters)
        c0, t0 = _cpu_seconds(), time.perf_counter()
        out = wl.round(st)
        t1, c1 = time.perf_counter(), _cpu_seconds()
        if traced:
            tr.uninstall()
            per_round.append(
                layers.round_metrics(
                    tr, rnd, {k: v - before.get(k, 0) for k, v in tr.counters.items()}
                )
            )
        times[traced].append(t1 - t0)
        cpu.append(c1 - c0)
        spent += t1 - t0
        rnd += 1
        gates.append(sum(p.report.after.decomposed_gate_count for p in out.passes))
        depth.append(sum(p.report.after.decomposed_depth for p in out.passes))
        attempted += out.operations
        try:
            failed += workloads.check_round(wl, st, out)
        except CheckError as exc:
            correct, problem = False, f"round {rnd - 1}: {exc}"
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if len(set(gates)) != 1 or len(set(depth)) != 1:
        correct, problem = False, f"rounds disagree: gates {gates}, depth {depth}"
    if problem:
        print(f"check failed: {problem}", file=sys.stderr)

    if trace:
        tr.round = layers.PROBE_ROUND
        layers.install(tr)
        x, y = workloads.grad_batch(st)
        for _ in range(GRAD_PROBES):
            layers.training.loss_and_gradient(st.model, x, y)
        tr.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        tr.dump(OUT_DIR / f"trace-{workload}-{seed}.json")
        values = layers.run_metrics(tr, per_round, st.model, times[True], times[False])
    else:
        values = {
            "setup_s": setup_s,
            "run_s": statistics.median(times[False]),
            "cpu_s": statistics.median(cpu),
            "peak_rss_mb": peak_rss_mb,
            "gates_after": gates[0],
            "depth_after": depth[0],
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "values": values}


def _units() -> dict:
    """Metric units, from ``BENCHMARK.json`` beside this directory."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import, load and build, then exit (the set-up probe)")
    args = ap.parse_args(argv)

    if not (SRC / "pqc_forge").is_dir():
        print(f"error: no program sources at {SRC / 'pqc_forge'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.WORKLOADS[args.workload].setup(args.seed)
        return 0
    units = _units()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    values = result.pop("values")
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
