"""bohrlab benchmark: one closed-loop client, one workload per run.

    python3 labbench/run.py --workload abelian-search --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``.
The client sends the next experiment to ``bohrlab.cli.run_experiment`` only
after the previous one has returned, in a fresh child process with one BLAS
thread and no other threads. Every output is checked independently of the
code that produced it (see verify.py).

``--trace 0`` prints the end-to-end metrics of an untraced run. ``--trace 1``
runs the same experiments untraced and then with spans at every module
boundary (see spans.py), and prints the per-layer metrics, each layer's
share of the traced time beside its predicted role, and the tracing
overhead. The last line of standard output is always one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".labbench"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170
DOMINANT_SHARE = 0.15
END_TO_END = {"setup_s": "s", "exp_p50_s": "s", "exp_tail_s": "s",
              "experiments_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "groups.build_calls": "count", "groups.build_self_s": "s",
    "groups.product_set_calls": "count", "groups.product_set_self_s": "s",
    "reps.irreps_calls": "count", "reps.irreps_cache_hit_ratio": "ratio",
    "reps.irreps_self_s": "s", "reps.hom_residual_calls": "count",
    "reps.hom_residual_self_s": "s", "reps.direct_sum_calls": "count",
    "reps.direct_sum_self_s": "s", "reps.distances_calls": "count",
    "reps.distances_self_s": "s",
    "bohr.candidates": "count", "bohr.distinct_realized": "count",
    "bohr.distinct_realized_ratio": "ratio", "bohr.enumerate_self_s": "s",
    "bohr.bohr_set_calls": "count", "bohr.bohr_set_self_s": "s",
    "bohr.nm_refine_self_s": "s", "bohr.greedy_cover_self_s": "s",
    "regularity.translate_defect_calls": "count",
    "regularity.translates": "count",
    "regularity.translate_defect_self_s": "s",
    "regularity.eps_subset_calls": "count", "regularity.eps_subset_self_s": "s",
    "regularity.search_self_s": "s",
    "productsets.search_self_s": "s", "productsets.separated_cover_self_s": "s",
    "productsets.quasirandom_self_s": "s",
    "convolve.calls": "count", "convolve.self_s": "s",
    "convolve.overlap_self_s": "s", "convolve.flops_computed": "flop",
    "convolve.bytes_computed": "B",
    "stability.ladder_calls": "count", "stability.nodes": "count",
    "stability.self_s": "s", "stability.us_per_node": "us",
    "stability.budget_exhausted": "count",
    "cli.self_s": "s", "gen.self_s": "s",
    "trace.experiment_s": "s", "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


class ChildError(RuntimeError):
    pass


def spawn(mode: str, args) -> dict:
    """Run one child process to completion and return its JSON result."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "child.py"), mode, args.workload,
           str(args.seed), str(args.seconds), repr(time.monotonic()),
           str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} child timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise ChildError(f"{mode} child exited with code {proc.returncode}")
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        raise ChildError(f"{mode} child printed no result")
    return json.loads(lines[-1])


def tail(times: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least 10 samples above it
    (nearest rank), and that percentile; the maximum when there are fewer
    than 11 samples."""
    n = len(times)
    ordered = sorted(times)
    if n <= 10:
        return ordered[-1], 100
    pct = (100 * (n - 10)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_failures(run: dict, label: str) -> None:
    for line in run["failures"][:5]:
        print(f"  FAILED ({label}) {line}")


def end_to_end(args) -> tuple[dict, int, int]:
    setups = [spawn("setup", args)["setup_s"] for _ in range(SETUP_REPEATS - 1)]
    run = spawn("plain", args)
    setups.append(run["setup_s"])
    times = run["times"]
    attempted, failed = len(times), len(run["failures"])
    tail_s, pct = tail(times)
    work = run["work"]
    metrics = {
        "setup_s": statistics.median(setups),
        "exp_p50_s": statistics.median(times),
        "exp_tail_s": tail_s,
        "experiments_per_s": attempted / sum(times),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    failed_ratio = failed / attempted
    searches = work["searches"]
    conclusive_ratio = work["conclusive"] / searches if searches else 1.0
    kinds = {k: run["kinds"].count(k) for k in sorted(set(run["kinds"]))}

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s: closed "
          f"loop, 1 client, {attempted} experiments, {run['threads']} thread(s)")
    print(f"  kinds: {json.dumps(kinds)}")
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "exp_p50_s": f"median of {attempted} samples",
        "exp_tail_s": f"p{pct} of {attempted} samples, "
                      f"{attempted - math.ceil(pct * attempted / 100)} beyond",
    }
    for name, unit in END_TO_END.items():
        print(f"  {name:20s} {fmt(metrics[name]):>12s} {unit:5s} {notes.get(name, '')}")
    print(f"  {'failed_ratio':20s} {fmt(failed_ratio):>12s} ratio "
          f"{failed} of {attempted} raised or failed verification")
    print(f"  {'conclusive_ratio':20s} {fmt(conclusive_ratio):>12s} ratio "
          f"{work['conclusive']} of {work['searches']} budgeted searches")
    print(f"  raw wall clock: exp_p50_s {statistics.median(run['raw_times']):.6g}, "
          f"summed {sum(run['raw_times']):.6g} s; speed probe median "
          f"{run['probe_median_s'] * 1e3:.4g} ms")
    print(f"  work: candidates_scored={work['candidates_scored']} "
          f"ladder_nodes={work['ladder_nodes']} payload_sha256={run['digest']}")
    report_failures(run, "untraced")
    return metrics, attempted, failed


def per_layer(args) -> tuple[dict, int, int]:
    plain = spawn("plain", args)
    traced = spawn("traced", args)
    layers = traced["layers"]
    traced_s = layers["trace.experiment_s"]
    layers["trace.overhead_ratio"] = traced_s / sum(plain["times"])
    attempted = len(plain["times"]) + len(traced["times"])
    failed = len(plain["failures"]) + len(traced["failures"])
    if traced["digest"] != plain["digest"]:
        failed += 1
        print("  FAILED tracing changed the payloads")

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s: traced "
          f"run of {len(traced['times'])} experiments, {layers['trace.spans']} spans "
          f"in {traced['spans_file']}")
    for name, unit in PER_LAYER.items():
        print(f"  {name:36s} {fmt(layers[name]):>14s} {unit}")
    own = spans.layer_self(layers)
    total = sum(own.values()) + layers["trace.unattributed_s"]
    print(f"  layer self times + unattributed = {total:.6f} s; "
          f"traced experiment time = {traced_s:.6f} s")
    dominant = workloads.PREDICTED_DOMINANT[args.workload]
    ranked = sorted(own, key=own.get, reverse=True)
    measured_dominant = [l for l in ranked if own[l] / traced_s >= DOMINANT_SHARE]
    print(f"  {'layer':12s} {'share':>6s}  prediction on {args.workload}")
    for layer in ranked:
        moves, on, flat = workloads.LAYER_PREDICTIONS[layer]
        role = ("dominant; " if layer in dominant else "") + (
            f"moves {moves}" if args.workload in on
            else "flat" if args.workload in flat else "no prediction")
        print(f"  {layer:12s} {own[layer] / traced_s:6.1%}  {role}")
    print(f"  dominant layers (share >= {DOMINANT_SHARE:.0%}): predicted "
          f"{', '.join(dominant)}; measured {', '.join(measured_dominant)}")
    print(f"  work: candidates_scored={traced['work']['candidates_scored']} "
          f"ladder_nodes={traced['work']['ladder_nodes']} "
          f"payload_sha256={traced['digest']}")
    report_failures(plain, "untraced")
    report_failures(traced, "traced")
    return {name: layers[name] for name in PER_LAYER}, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "bohrlab" / "__init__.py").is_file():
        print(f"error: no bohrlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, attempted, failed = per_layer(args)
            units = PER_LAYER
        else:
            metrics, attempted, failed = end_to_end(args)
            units = END_TO_END
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
