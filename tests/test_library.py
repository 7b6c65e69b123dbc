"""Rules that hold for the library source as a whole."""

import ast
from pathlib import Path

import gtflow


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements; invariants must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(gtflow.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
