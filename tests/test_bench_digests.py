"""The benchmark's payload digests, pinned: every workload at seed 101, and
nonabelian-mix at seed 7 too.

One child process with one BLAS thread (the irreps payload of dihedral:50
depends on the thread count) builds each workload's experiment list and
runs it twice through ``cli.run_experiment``, hashing the payloads as the
benchmark's child process does. The second pass replays every candidate
walk the first one stored on the shared groups.
"""

import json
import subprocess
import sys
from pathlib import Path

from test_cli import _child_env

LABBENCH = Path(__file__).resolve().parents[1] / "labbench"

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

# The walks the runs leave stored, as (group, specs): every one fits the
# storage limit (about 229k of bohr.STORED_ENTRIES = 524k entries) and none
# stopped growing. A walk stores whole blocks, so these counts include the
# candidates a search built past the one it accepted.
STREAMS = [["alt:5", 11], ["dihedral:12", 61], ["dihedral:30", 128],
           ["sym:4", 175], ["zmod:101", 150], ["zmod:101", 707],
           ["zmod:12", 8], ["zmod:200", 60], ["zmod:200", 120], ["zmod:60", 8]]

CHILD = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
import workloads
from bohrlab import cli, groups

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
streams = sorted((g.descriptor, len(s.specs), s.growing)
                 for g in groups._SHARED.values() for s in g._streams.values())
print(json.dumps({"digests": digests, "streams": streams}))
"""


def _run_child(tmp_path, seed, workloads):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(LABBENCH), str(seed), *workloads],
        capture_output=True, text=True, cwd=tmp_path,
        env=_child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                       MKL_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_seed_101_digests_hold_on_a_replay(tmp_path):
    out = _run_child(tmp_path, 101, DIGESTS)
    assert out["digests"] == {w: [d, d] for w, d in DIGESTS.items()}
    assert out["streams"] == [[*stream, True] for stream in STREAMS]


def test_seed_7_nonabelian_digest_holds_on_a_replay(tmp_path):
    out = _run_child(tmp_path, 7, ["nonabelian-mix"])
    assert out["digests"] == {"nonabelian-mix": [SEED_7_NONABELIAN] * 2}
