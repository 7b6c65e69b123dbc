"""Rules that hold for the library source as a whole."""

import ast
from collections import Counter
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


# Sites allowed a true division: none; a quotient is a Fraction or an
# exact int floor division.
_DIVISION_SITES = set()


def test_library_arithmetic_is_exact():
    # no float enters the library: no float literal, no float() call, and a
    # true division only at a listed site
    found = []
    for name, node in _library_nodes():
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{name}:{node.lineno}: float literal")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"{name}:{node.lineno}: float() call")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            if (name, ast.unparse(node)) not in _DIVISION_SITES:
                found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    assert found == [], "\n".join(found)


# A reference oracle that tests compare the library against; nothing in the
# library calls it, by design.
_UNREACHED_BY_DESIGN = {"combinat.enumerate_shsyt_corner_oracle"}


def _identifiers(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _public_definitions():
    """(qualified name, definition) for every public top-level function and
    class of the library and every public method of such a class."""
    for path in sorted(Path(gtflow.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item


def _caller_trees():
    """The parsed library and benchmark-harness sources."""
    callers = sorted(Path(gtflow.__file__).parent.glob("*.py"))
    callers += sorted((Path(__file__).parents[1] / "bench").glob("*.py"))
    return [ast.parse(path.read_text()) for path in callers]


def test_every_public_name_is_reached_from_the_library():
    # a public name is used by the library (or the benchmark harness, which
    # drives it as a user would) somewhere outside its own definition
    uses = Counter(name for tree in _caller_trees() for name in _identifiers(tree))
    unreached = [
        qualified
        for qualified, node in _public_definitions()
        if qualified not in _UNREACHED_BY_DESIGN
        and uses[node.name] == Counter(_identifiers(node))[node.name]
    ]
    assert unreached == [], "\n".join(unreached)


def _callee(call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _passes(call, index: int, name: str) -> bool:
    """Whether the call passes the parameter at positional index `index` (or
    None for keyword-only) named `name`; an unpacked argument passes all."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def test_every_default_is_set_by_a_caller():
    # a defaulted parameter that no caller sets is an option nobody uses:
    # some call in the library or the benchmark harness must pass it
    calls = [node for tree in _caller_trees() for node in ast.walk(tree) if isinstance(node, ast.Call)]
    unset = []
    for qualified, node in _public_definitions():
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        # a method's first parameter is bound by the attribute access
        bound = qualified.count(".") == 2 and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
        )
        first = len(positional) - len(args.defaults)
        defaulted = [(i - bound, a.arg) for i, a in enumerate(positional) if i >= first]
        defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        for index, name in defaulted:
            if not any(_callee(c) == node.name and _passes(c, index, name) for c in calls):
                unset.append(f"{qualified}({name})")
    assert unset == [], "\n".join(unset)
