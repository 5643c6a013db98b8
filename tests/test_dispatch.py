"""The library asks a monoid's realization only through its carrier: a
realization's label, ``Monoid.kind``, is read where a monoid is printed
and where a family's base is parsed, and nowhere else, so no suite branches
on which realization it runs on.  Every carrier reads in a layout, so none
has a ``layout`` flag, and a lattice's dimension is read by the window
guard, the lattice carrier and the family parser alone: a dimension past 2
is refused where the carrier is built, not by each suite.  The axiom
checkers read a closure in one place, a pack's reach read, so every scan
compares ints and reads its witness from them."""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "monoid_spectra")

# the functions, as Class.method or function, that may read `.kind`
READS_KIND = {"Monoid.__repr__", "family_from_json"}


def attribute_reads(tree, attr):
    """(enclosing function, line) of every read of an attribute `attr`."""
    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
                yield from walk(child, inner)
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr \
                    and isinstance(child.ctx, ast.Load):
                yield where, child.lineno
            yield from walk(child, where)

    yield from walk(tree, "")


def package():
    """(module file name, its tree) of every module of the package."""
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read())


def test_kind_is_read_only_to_print_and_parse():
    stray = [f"{name}:{line} in {where or 'module'}"
             for name, tree in package()
             for where, line in attribute_reads(tree, "kind")
             if where not in READS_KIND]
    assert not stray, stray


def test_dim_is_read_only_by_the_window_the_lattice_and_the_family():
    stray = [f"{name}:{line} in {where or 'module'}"
             for name, tree in package()
             for where, line in attribute_reads(tree, "dim")
             if where not in ("GroupoidContext.window", "family_from_json")
             and not where.startswith("LatticeCarrier.")]
    assert not stray, stray


def test_no_carrier_has_a_layout_attribute():
    """Nothing in ``monoid``, where the carriers live, binds ``layout``: no
    class attribute and no instance attribute."""
    stray = [node.lineno for node in ast.walk(dict(package())["monoid.py"])
             if isinstance(getattr(node, "ctx", None), ast.Store)
             and "layout" in (getattr(node, "id", ""),
                              getattr(node, "attr", ""))]
    assert not stray, stray


def test_the_checkers_ask_closures_only_in_the_reach_read():
    """In ``window`` and ``packs`` only ``_Pack.reach`` reads ``.closure``,
    for the systems that name no members."""
    trees = dict(package())
    stray = [f"{name}:{line} in {where or 'module'}"
             for name in ("window.py", "packs.py")
             for where, line in attribute_reads(trees[name], "closure")
             if where != "_Pack.reach"]
    assert not stray, stray
