"""No function in critlat calls itself by name, except a few whose depth is
bounded by the structure of their input rather than by its size.

Searches keep explicit stacks, so that a long chain never reaches Python's
recursion limit.  This test parses the package and fails on any module-level
function or nested def that calls itself by name.  A method is skipped: a
bare name inside it names the module function, not the method.
"""

import ast
from pathlib import Path

import critlat

# (module, function) -> why its depth is bounded
ALLOWED = {
    ("lattice", "dual"): "one level per product nested in a product: a product, lazy or "
                         "dense, dualizes its factors",
    ("lattice", "_product_tables"): "halves the factor list at each level (log2 of the "
                                    "factor count), plus one level per nested lazy factor",
    ("lattice", "_hom_failure"): "one level per lazy product nested on either side",
    ("lattice", "is_distributive"): "one level per lazy product nested in a lazy product",
    ("lattice", "builtin"): 'bool:n calls builtin("2") once, which does not recurse',
}


def _self_calls(tree):
    """(name, line) of every module-level function or nested def calling
    itself by name."""
    found = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not in_class and any(
                        isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
                        and c.func.id == child.name for c in ast.walk(child)):
                    found.append((child.name, child.lineno))
                visit(child, False)
            elif isinstance(child, ast.ClassDef):
                visit(child, True)
            else:
                visit(child, in_class)

    visit(tree, False)
    return found


def test_no_function_calls_itself():
    root = Path(critlat.__file__).parent
    found = {}
    for path in sorted(root.glob("*.py")):
        for name, line in _self_calls(ast.parse(path.read_text(encoding="utf-8"))):
            found[(path.stem, name)] = f"{path.name}:{line}"
    unexpected = {k: v for k, v in found.items() if k not in ALLOWED}
    assert not unexpected, f"recursive functions: {unexpected}"
    # an entry whose function no longer recurses goes too
    assert set(found) == set(ALLOWED)


def test_guard_sees_nested_defs_and_skips_methods():
    tree = ast.parse(
        "def outer():\n"
        "    def walk(k):\n"
        "        return walk(k - 1)\n"
        "class C:\n"
        "    def join(self):\n"
        "        return join(self)\n"
        "    def method(self):\n"
        "        def inner():\n"
        "            inner()\n")
    assert [name for name, _ in _self_calls(tree)] == ["walk", "inner"]
