"""Homomorphisms are checked where they enter the library, and the maps it
computes are trusted.

The public Homomorphism constructor (and from_labels) checks the mapping;
Homomorphism._trusted checks nothing.  This test parses the package and
fails on any call that passes a `check` keyword, and on any call of the
constructor, Homomorphism(...) or cls(...) inside the class, outside the
functions where a map enters or a certificate leaves.
"""

import ast
from pathlib import Path

import critlat

# function -> what its checked map is
CHECKED = {
    "from_labels": "a label map from the caller",
    "inclusion_hom": "the inclusion of a sublattice the caller gives",
    "hs_member": "the S/theta -> M isomorphism of a witness",
    "subdirect_decomposition": "the embedding into the product of SI quotients",
}


def _calls(tree):
    """(enclosing function, line, keyword names) of each constructor call:
    Homomorphism(...), or cls(...) inside class Homomorphism."""
    found = []

    def visit(node, func, in_hom):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name, in_hom)
                continue
            if isinstance(child, ast.ClassDef):
                visit(child, func, child.name == "Homomorphism")
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and (
                    child.func.id == "Homomorphism" or (in_hom and child.func.id == "cls")):
                found.append((func, child.lineno))
            visit(child, func, in_hom)

    visit(tree, None, False)
    return found


def _trees():
    root = Path(critlat.__file__).parent
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(root.glob("*.py"))}


def test_no_call_passes_check():
    found = [f"{name}:{node.lineno}" for name, tree in _trees().items()
             for node in ast.walk(tree) if isinstance(node, ast.Call)
             and any(k.arg == "check" for k in node.keywords)]
    assert not found, f"calls with a check keyword: {found}"


def test_constructor_only_where_maps_enter_or_leave():
    found = {}
    for name, tree in _trees().items():
        for func, line in _calls(tree):
            found.setdefault(func, []).append(f"{name}:{line}")
    unexpected = {k: v for k, v in found.items() if k not in CHECKED}
    assert not unexpected, f"checked maps built from library results: {unexpected}"
    # an entry whose function no longer builds a checked map goes too
    assert set(found) == set(CHECKED)


def test_guard_sees_cls_inside_the_class_only():
    tree = ast.parse(
        "def f():\n"
        "    return Homomorphism(a, b, m)\n"
        "class Homomorphism:\n"
        "    def g(cls):\n"
        "        return cls(a, b, m), cls.__new__(cls)\n"
        "class Other:\n"
        "    def h(cls):\n"
        "        return cls(a)\n")
    assert [func for func, _ in _calls(tree)] == ["f", "g"]
