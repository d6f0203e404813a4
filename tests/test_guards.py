import ast
import subprocess
import sys
from pathlib import Path

import bohrlab

ROOT = Path(__file__).resolve().parent.parent


def test_no_assert_statements_in_library():
    # runtime guards must survive python -O, which strips assert statements
    found = []
    for path in sorted(Path(bohrlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_benchmark_span_targets_are_bound():
    # the benchmark's traced run wraps named library functions; install
    # raises when one of them is deleted or no longer bound anywhere
    code = ("import sys\n"
            f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'labbench')!r}]\n"
            "import bohrlab.cli\n"
            "import spans\n"
            "spans.install(spans.Recorder())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
