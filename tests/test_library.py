"""Rules that hold for the library source as a whole."""

import ast
from pathlib import Path

import gtflow


def _library_nodes():
    for path in sorted(Path(gtflow.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield path.name, node


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements; invariants must raise instead
    found = [f"{name}:{node.lineno}" for name, node in _library_nodes() if isinstance(node, ast.Assert)]
    assert found == []


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_raises_its_own_errors_not_assertion_error():
    # a failed invariant raises the module's error, which callers can catch
    found = [
        f"{name}:{node.lineno}"
        for name, node in _library_nodes()
        if isinstance(node, ast.Raise) and node.exc is not None and _raises_assertion_error(node)
    ]
    assert found == []
