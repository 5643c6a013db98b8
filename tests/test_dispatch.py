"""The library asks a monoid's realization only through its carrier: a
realization's label, ``Monoid.kind``, is read where a monoid is printed
and where a family's base is parsed, and nowhere else, so no suite branches
on which realization it runs on.  Every carrier reads in a layout, so none
has a ``layout`` flag, and a lattice's dimension is read by the window
guard, the lattice carrier and the family parser alone: a dimension past 2
is refused where the carrier is built, not by each suite.  The axiom
checkers, ``window`` and ``packs``, read no closure predicate: a pack
reads a system from its members' masks or from its mask rule, so every
scan compares ints and reads its witness from them.  Only ``monoid``
names the absorbing zero INF; every other module asks ``== ctx.zero``."""

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


def test_window_and_packs_read_no_closure():
    """Neither ``window`` nor ``packs`` reads ``.closure``: a system that
    names no members is read from its ``rule``, one int per set."""
    trees = dict(package())
    stray = [f"{name}:{line} in {where or 'module'}"
             for name in ("window.py", "packs.py")
             for where, line in attribute_reads(trees[name], "closure")]
    assert not stray, stray


def test_inf_is_named_only_by_monoid_and_the_package():
    """Past ``monoid``, where INF is defined, the absorbing zero is tested
    as ``== ctx.zero``, so no other module loads or imports the name but
    the package ``__init__``, which exports it."""
    stray = [f"{name}:{node.lineno}" for name, tree in package()
             if name not in ("monoid.py", "__init__.py")
             for node in ast.walk(tree)
             if (isinstance(node, ast.Name) and node.id == "INF"
                 and isinstance(node.ctx, ast.Load))
             or (isinstance(node, ast.alias) and node.name == "INF")]
    assert not stray, stray
