"""The benchmark's payload digests, pinned: every workload at seed 101,
nonabelian-mix and ladder-pilot at seed 7 too; and the canonical payload of
each fixture. Also the spans the seed-101 nonabelian regularity searches
read, a work counter of the candidate walk.

One child process with one BLAS thread, as the benchmark's, builds each
workload's experiment list and runs it twice through ``cli.run_experiment``,
hashing the payloads as the benchmark's child process does; nonabelian-mix
also at two threads. The second pass searches the shared groups
with the irreps, level tables and combos the first one left on them.
"""

import json
import subprocess
import sys
from pathlib import Path

from bohrlab import bohr
from bohrlab.cli import run_experiment
from test_cli import _child_env
from test_guards import _labbench_workloads

LABBENCH = Path(__file__).resolve().parents[1] / "labbench"
FIXTURES = Path(__file__).resolve().parent / "fixtures"

DIGESTS = {
    "abelian-search":
        "2cf7deafa09ee90a0e0f4cbb88d90e4eccdeb0143a189f1a921e87a135c7feae",
    "nonabelian-mix":
        "79b2fcfe05677aeb483c0eea328f82c5470d0d248b5ba9e57f73d674e9c10bf6",
    "ladder-pilot":
        "b1934bc9666148b41a06ad604a7bfa1a6706eaa6dc8a1432668faa007b0ba76d",
}
SEED_7_NONABELIAN = \
    "e3f040e0a18e41c4c3ec7104b552c3643b03fa93b6fd724a6e0af954923bba10"
# 90 ladder searches of 6,237 nodes in all
SEED_7_LADDER = \
    "b932f43d8fafa55eb8c42210931b1418b968167a8136280fc0ae510095dcf464"

# sha256 of each fixture's ``Report.payload_canonical()``, the same at one
# and at two BLAS threads
FIXTURE_DIGESTS = {
    "bogolyubov_z200.ini":
        "cd060284e24b0932e07400bf888e3d3b7755bd7a61acf79d6681d31068f544ab",
    "bohr_z12.ini":
        "2ae7b09d7c7fa301ea01b40611079dd46db5a3121d8216e9ba1cd9b13a8219cb",
    "convolve_z16.ini":
        "93eb81c0dd140d526075d172dce5e57ffb60278c096ed44d6a89821c303b4cb0",
    "croot_sisask_z101.ini":
        "3ed023e67224395955c6f4fe7b593bd0dbf3463395c10257df43a5011b2f3b19",
    "group_info_z12.ini":
        "b26d465515589843c36b5b0e30d9b8c384b6975dcfc9a2b4b9f70e5775f4f9e6",
    "irreps_s4.ini":
        "ddf314a52d2c48ea0efbad7d1fa913acf7c051f29ed44ff15df913e8a798cd86",
    "ladder_budget1.ini":
        "49da45520cc1ee379c94e95f546095303c0042e6f6af822a5eaf6e0122a0c3c8",
    "ladder_z4.ini":
        "f5021fa781bd5886112fd4428092371491138290ec3e36ae8c8298ba99da5a79",
    "quasirandom_a5.ini":
        "a299fbaec915ae05790af7c5497cf5a3c41c06d6ba7f91f558a7b92d8bf201c0",
    "regularity_noise_expect_none.ini":
        "d330ebbb77ea16f74ac0fd908d133e305cd6518a756439fdfa84140092e08d7a",
    "regularity_zpz.ini":
        "9fff77d6ad060eb82f9906cf0db6b74d3394d2f100b0c122e7b422c8d724ab47",
    "two_set_z12.ini":
        "22fa3998cbdb90886afbcf6d9f1e3a8665041d15c5db926de9840e4d99aa9e8e",
}

CHILD = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
import workloads
from bohrlab import cli

digests = {}
for workload in sys.argv[3:]:
    configs = workloads.build(workload, int(sys.argv[2]), 30)
    for _ in range(2):
        digest = hashlib.sha256()
        for config in configs:
            try:
                payload = cli.run_experiment(config).payload
            except Exception:
                digest.update(f"error {config['kind']}\\n".encode())
                continue
            digest.update(json.dumps(payload, sort_keys=True).encode() + b"\\n")
        digests.setdefault(workload, []).append(digest.hexdigest())
print(json.dumps(digests))
"""


FIXTURE_CHILD = """
import hashlib, json, sys
from pathlib import Path
from bohrlab import cli

print(json.dumps({
    path.name: hashlib.sha256(cli.run_experiment(cli.load_config(str(path)))
                              .payload_canonical().encode()).hexdigest()
    for path in sorted(Path(sys.argv[1]).glob("*.ini"))}))
"""


def _run_child(tmp_path, *args, code=CHILD, threads="1"):
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, cwd=tmp_path,
        env=_child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_seed_101_digests_hold_on_a_replay(tmp_path):
    out = _run_child(tmp_path, LABBENCH, 101, *DIGESTS)
    assert out == {w: [d, d] for w, d in DIGESTS.items()}


def test_seed_101_nonabelian_digest_holds_at_two_blas_threads(tmp_path):
    # the benchmark's child runs at one BLAS thread; the decompositions
    # pin it themselves, so the payloads do not depend on the process's count
    out = _run_child(tmp_path, LABBENCH, 101, "nonabelian-mix", threads="2")
    assert out == {"nonabelian-mix": [DIGESTS["nonabelian-mix"]] * 2}


def test_seed_7_nonabelian_digest_holds_on_a_replay(tmp_path):
    out = _run_child(tmp_path, LABBENCH, 7, "nonabelian-mix")
    assert out == {"nonabelian-mix": [SEED_7_NONABELIAN] * 2}


def test_seed_7_ladder_digest_holds_on_a_replay(tmp_path):
    out = _run_child(tmp_path, LABBENCH, 7, "ladder-pilot")
    assert out == {"ladder-pilot": [SEED_7_LADDER] * 2}


def test_fixture_payload_digests(tmp_path):
    out = _run_child(tmp_path, FIXTURES, code=FIXTURE_CHILD)
    assert out == FIXTURE_DIGESTS


TRACED = """
import json, sys
sys.path.insert(0, sys.argv[1])
import spans, workloads
from bohrlab import cli

configs = workloads.build(sys.argv[3], int(sys.argv[2]), 30)
cli.run_experiment({"kind": "group-info", "group": "zmod:12"})
recorder = spans.Recorder()
spans.install(recorder)
for config in configs:
    cli.run_experiment(config)
names = [recorder.names[span[0]] for span in recorder.spans]
print(json.dumps({name: names.count(name) for name in sorted(set(names))}))
"""


def _traced_calls(tmp_path, workload, pinned):
    """Span counts of a traced seed-101 run of ``workload``, by name, for
    the names in ``pinned``: compared as one dict, a moved pin shows every
    moved count."""
    proc = subprocess.run(
        [sys.executable, "-c", TRACED, str(LABBENCH), "101", workload],
        capture_output=True, text=True, cwd=tmp_path,
        env=_child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                       MKL_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout)
    return {name: calls.get(name) for name in pinned}


def test_seed_101_abelian_search_traces_every_distance_read(tmp_path):
    # a rep class that overrode UnitaryRep.identity_distances would take
    # its reads out of the benchmark's reps.distances span and counter
    pinned = {"reps.distances": 387, "reps.direct_sum": 14,
              "reps.irreps": 24}  # one irreps call per search
    assert _traced_calls(tmp_path, "abelian-search", pinned) == pinned


def test_seed_101_nonabelian_mix_traces_every_distance_read(tmp_path):
    # a level table reads each irrep's distances; a search builds a direct
    # sum, and reads its distances, for each row its screen keeps alone
    pinned = {"reps.distances": 241, "reps.direct_sum": 102}
    assert _traced_calls(tmp_path, "nonabelian-mix", pinned) == pinned


def test_seed_101_regularity_searches_walk_few_spans(monkeypatch):
    # the nonabelian-mix regularity searches accept on small levels, each
    # read as whole radius rounds a span, level 1 too: 3 spans on sym:4 and
    # 3 on dihedral:30, where a radius at a time walks 16 and 12, to the
    # same candidate
    real = bohr._spans
    walked = []

    def counting(group, space):
        for span in real(group, space):
            walked.append(span)
            yield span

    monkeypatch.setattr(bohr, "_spans", counting)
    got = {}
    for config in _labbench_workloads().build("nonabelian-mix", 101, 30):
        if config["kind"] == "regularity" and config["group"] in (
                "sym:4", "dihedral:30"):
            walked.clear()
            scored = run_experiment(config).payload["candidates_scored"]
            got.setdefault(config["group"], set()).add((len(walked), scored))
    assert got == {"sym:4": {(3, 33)}, "dihedral:30": {(3, 110)}}
