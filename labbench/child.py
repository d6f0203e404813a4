"""One benchmark process: set up, run one workload's experiments, report.

Started by run.py in a fresh interpreter with one BLAS thread, so that the
import cost lands in set-up and peak RSS belongs to one workload. Usage:

    python3 labbench/child.py MODE WORKLOAD SEED SECONDS SPAWNED_AT OUT_DIR

MODE is ``setup`` (set up, report set-up time, exit), ``plain`` (run the
experiments) or ``traced`` (run them with spans at every module boundary).
SPAWNED_AT is the parent's ``time.monotonic()`` just before the spawn. The
result is one JSON object on standard output.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import json
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _threads() -> int:
    """OS threads of this process (Linux), else Python threads."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


# Probe kernel per workload; set-up (imports, config generation) uses "mixed".
WORKLOAD_PROBE = {"ladder-pilot": "rows", "nonabelian-mix": "batched",
                  "abelian-search": "mixed"}


def make_probe(kind: str):
    """A fixed ~5 ms CPU kernel, and its reference time.

    Every time this process reports is a wall time scaled by reference /
    (probe time measured around it): seconds at the reference speed, at
    which the kernel takes its reference time (its typical time on a 2-core
    x86 virtual machine). This cancels most of the drift in the host's share of the
    CPU, which on a shared machine changes wall times by half or more within
    a run. How much a slow phase slows code depends on the code, so the
    kernel mimics the workload: "rows", masked 60x60 row operations with
    argwhere, for the ladder search; "batched", 3x3 products and SVDs, as in
    the homomorphism residuals that dominate the non-abelian mix; "mixed",
    interpreted loops, small numpy operations and small SVDs.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    mats = rng.standard_normal((64, 4, 4)) + 1j * rng.standard_normal((64, 4, 4))
    x = np.arange(64)
    table = rng.random((60, 60))
    blocks = rng.standard_normal((256, 3, 3)) + 1j * rng.standard_normal((256, 3, 3))

    def mixed() -> None:
        acc = 0
        for i in range(20000):
            acc += i * i
        for _ in range(60):
            np.argwhere((x[:, None] - x[None, :]) % 7 == 0)
        np.linalg.svd(mats, compute_uv=False)

    def batched() -> None:
        acc = 0
        for i in range(4000):
            acc += i * i
        for _ in range(3):
            prod = np.einsum("pij,pjk->pik", blocks, blocks)
            np.linalg.svd(prod - blocks, compute_uv=False)

    def rows() -> None:
        for _ in range(3):
            mask = np.ones((60, 60), dtype=bool)
            for a in range(0, 60, 2):
                row = np.abs(table[a, :][None, :] - table[:, a][:, None]) >= 0.1
                mask = mask & row
                np.argwhere(mask)

    kernel, reference_s = {"rows": (rows, 0.0045), "batched": (batched, 0.005),
                           "mixed": (mixed, 0.006)}[kind]

    def probe() -> float:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start

    return probe, reference_s


def main(argv: list[str]) -> int:
    mode, workload, seed, seconds, spawned_at, out_dir = argv
    sys.path.insert(0, str(SRC))
    import bohrlab.cli as cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"bohrlab imported from {cli.__file__}, not {SRC}")
    from bohrlab.groups import build_group

    import spans
    import verify
    import workloads

    configs = workloads.build(workload, int(seed), float(seconds))
    cli.run_experiment({"kind": "group-info", "group": "zmod:12"})
    raw_setup_s = time.monotonic() - float(spawned_at)
    setup_probe, setup_reference_s = make_probe("mixed")
    setup_s = (raw_setup_s * setup_reference_s
               / statistics.median(setup_probe() for _ in range(3)))
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0
    probe, reference_s = make_probe(WORKLOAD_PROBE[workload])

    recorder = None
    if mode == "traced":
        recorder = spans.Recorder()
        spans.install(recorder)
    checker = verify.Checker(lambda desc: build_group(desc).table)

    digest = hashlib.sha256()
    times, probes, kinds, failures = [], [], [], []
    work = {"candidates_scored": 0, "ladder_nodes": 0, "searches": 0,
            "conclusive": 0}
    for i, config in enumerate(configs):
        if recorder is not None:
            recorder.experiment = i
        probes.append(probe())
        start = time.perf_counter()
        try:
            report = cli.run_experiment(config)
        except Exception as exc:  # a failed experiment is counted, not fatal
            times.append(time.perf_counter() - start)
            kinds.append(config["kind"])
            failures.append(f"{i} {config}: raised {exc!r}")
            digest.update(f"error {config['kind']}\n".encode())
            continue
        times.append(time.perf_counter() - start)
        kinds.append(config["kind"])
        payload = report.payload
        digest.update(json.dumps(payload, sort_keys=True).encode() + b"\n")
        problems = checker.check(config, report.status, payload)
        if problems:
            failures.append(f"{i} {config}: {'; '.join(problems)}")
        work["candidates_scored"] += payload.get("candidates_scored", 0)
        if config["kind"] == "ladder":
            work["ladder_nodes"] += payload["nodes"]
        ok = verify.conclusive(config, payload)
        if ok is not None:
            work["searches"] += 1
            work["conclusive"] += ok

    probes.append(probe())
    # An experiment's speed factor comes from the median of the six probes
    # nearest to it: the host's speed drifts over seconds, a single 4 ms
    # probe is noisy.
    scale = [reference_s / statistics.median(probes[max(0, i - 2):i + 4])
             for i in range(len(times))]

    result = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "times": [t * f for t, f in zip(times, scale)],
        "raw_times": times,
        "probe_median_s": sorted(probes)[len(probes) // 2],
        "kinds": kinds,
        "failures": failures,
        "work": work,
        "digest": digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": _threads(),
    }
    if recorder is not None:
        result["layers"] = spans.layer_metrics(recorder, result["times"], scale)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"spans-{workload}-seed{seed}.tsv.gz"
        spans.write(recorder, path)
        result["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
