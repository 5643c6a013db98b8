"""The library asks a monoid's realization only through its carrier: a
realization's label, ``Monoid.kind``, is read where a monoid is printed
and where a family's base is parsed, and nowhere else, so no suite branches
on which realization it runs on."""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "monoid_spectra")

# the functions, as Class.method or function, that may read `.kind`
READS_KIND = {"Monoid.__repr__", "family_from_json"}


def kind_reads(tree):
    """(enclosing function, line) of every read of an attribute `kind`."""
    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
                yield from walk(child, inner)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "kind" \
                    and isinstance(child.ctx, ast.Load):
                yield where, child.lineno
            yield from walk(child, where)

    yield from walk(tree, "")


def test_kind_is_read_only_to_print_and_parse():
    stray = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            stray += [f"{name}:{line} in {where or 'module'}"
                      for where, line in kind_reads(tree)
                      if where not in READS_KIND]
    assert not stray, stray
