"""Checks on the library source itself."""

import ast
from pathlib import Path

import gaugeqec


def test_no_assert_statements_in_the_library():
    # ``python -O`` strips asserts, so no invariant may live in one
    found = []
    for path in sorted(Path(gaugeqec.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []
