import ast
import functools
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bohrlab
from bohrlab.cli import COMMON, KINDS, load_config, resolve

ROOT = Path(__file__).resolve().parent.parent


def test_no_assert_statements_in_library():
    # runtime guards must survive python -O, which strips assert statements
    found = []
    for path in sorted(Path(bohrlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _bound_names(stmt):
    """The names a module-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _read_names(stmt):
    """The names a statement reads: loaded names, attributes, imports."""
    return ({n.id for n in ast.walk(stmt)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            | {a.name for n in ast.walk(stmt) if isinstance(n, ast.ImportFrom)
               for a in n.names})


def test_private_module_names_are_read_in_src():
    # a private module-level name that nothing in src/ reads outside its own
    # definition is dead, as a helper is once a refactor retires its callers
    private, read = set(), set()
    for path in sorted(Path(bohrlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            bound = _bound_names(stmt)
            private |= {f"{path.name}:{name}" for name in bound
                        if name.startswith("_") and not name.startswith("__")}
            read |= _read_names(stmt) - bound
    assert sorted(p for p in private if p.split(":")[1] not in read) == []


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


def test_readme_library_tour_names_exist():
    # a row `bohrlab.<module>` | contents names only what that module has
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = text.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(bohrlab\.\w+)` \| (.*) \|$", tour, re.M)
    assert len(rows) >= 8
    missing = []
    for modname, contents in rows:
        module = importlib.import_module(modname)
        for name in re.findall(r"`([A-Za-z_][\w.]*?)(?:\(\))?`", contents):
            try:
                functools.reduce(getattr, name.split("."), module)
            except AttributeError:
                missing.append(f"{modname}: {name}")
    assert missing == []


def test_readme_quick_example_runs():
    # the README's quick example is run as written, so API drift fails here
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    after = text.split("Quick example:", 1)[1]
    code = re.search(r"```python\n(.*?)```", after, re.S).group(1)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok ")


def _strict_json(path):
    def no_constant(name):
        raise ValueError(f"{path.name}: non-finite number {name}")

    def no_duplicates(items):
        keys = [k for k, _ in items]
        if len(set(keys)) != len(keys):
            raise ValueError(f"{path.name}: duplicate key")
        return dict(items)

    return json.loads(path.read_text(encoding="utf-8"),
                      parse_constant=no_constant, object_pairs_hook=no_duplicates)


def _recorded_runs(node):
    # a recorded run is a labbench/run.py result line: it carries `correct`
    if isinstance(node, dict):
        if "correct" in node:
            return [node]
        return [run for value in node.values() for run in _recorded_runs(value)]
    if isinstance(node, list):
        return [run for value in node for run in _recorded_runs(value)]
    return []


def test_committed_bench_files_are_well_formed():
    # a perf-trajectory file claims a gain on a benchmark workload and
    # metric, and every run it quotes passed the benchmark's output checks
    bench = _strict_json(ROOT / "BENCHMARK.json")
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        doc = _strict_json(path)
        claimed = doc["claimed"]
        assert claimed["workload"] in workloads, path.name
        assert claimed["metric"] in metrics, path.name
        assert doc["pairs"], path.name
        for pair in doc["pairs"]:
            assert pair["workload"] == claimed["workload"], path.name
            for side in ("parent", "change"):
                assert claimed["metric"] in pair[side]["metrics"], path.name
        for run in _recorded_runs(doc):
            assert run["correct"] is True and run["failed"] == 0, path.name


def _labbench_module(name):
    # read-only use of the benchmark's experiment lists and checker
    spec = importlib.util.spec_from_file_location(
        f"labbench_{name}", ROOT / "labbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _labbench_workloads():
    return _labbench_module("workloads")


def test_fixture_configs_resolve():
    paths = sorted((ROOT / "tests" / "fixtures").glob("*.ini"))
    assert len(paths) >= 12
    for path in paths:
        resolve(load_config(str(path)))


@pytest.mark.parametrize("seed", [101, 7, 201])
def test_benchmark_configs_resolve(seed):
    workloads = _labbench_workloads()
    for name in workloads.WORKLOADS:
        configs = workloads.build(name, seed, 30)
        assert configs, name
        for config in configs:
            resolve(config)


def test_readme_key_table_lists_kinds_keys():
    # each row's required and optional keys are exactly the declared ones
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    cli = text.split("## CLI", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (every kind|`[\w-]+`) \|(.*)\|(.*)\|$", cli, re.M)
    found = {}
    for label, required, optional in rows:
        found[label.strip("`")] = (set(re.findall(r"`(\w+)`", required)),
                                   set(re.findall(r"`(\w+)`", optional)))
    declared = {"every kind": COMMON, **{k: keys for k, (_, keys) in KINDS.items()}}
    expected = {label: ({k for k, d in keys.items() if isinstance(d, type)},
                        {k for k, d in keys.items() if not isinstance(d, type)})
                for label, keys in declared.items()}
    assert found == expected
