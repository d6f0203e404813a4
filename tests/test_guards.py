import ast
from pathlib import Path

import bohrlab


def test_no_assert_statements_in_library():
    # runtime guards must survive python -O, which strips assert statements
    found = []
    for path in sorted(Path(bohrlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
