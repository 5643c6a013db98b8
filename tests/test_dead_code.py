"""Every public function, class and method of the library is used somewhere
in the library or the benchmark, besides its own definition, and every
attribute the library sets on ``self`` is read there.

References are matched by name: a bare name, an attribute, an export from
the package's ``__init__`` or a string naming the attribute (as the
benchmark's tracer names what it wraps), anywhere in ``src/`` or ``bench/``
outside the definition itself.  An import elsewhere is not a use.  Methods of
different classes that share a name count as one name."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "monoid_spectra")

# brute-force oracles that only the tests call, and a constructor kept for
# building finite examples by hand
ALLOWED = {
    "FiniteSpace.sober_bruteforce",
    "all_topologies",
    "brute_force_homeomorphic",
    "Monoid.cyclic_group_with_zero",
}

# attributes set on self that only the tests read: public values
READ_BY_TESTS = {
    "ParseError.field",
    "NumericalSemigroup.conductor",
}


def python_files(*dirs):
    for d in dirs:
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                yield os.path.join(d, name)


def definitions(tree):
    """(qualified name, bare name, first line, last line) of every public
    module-level function and class and every public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                not node.name.startswith("_"):
            yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and \
                        not item.name.startswith("_"):
                    yield (f"{node.name}.{item.name}", item.name,
                           item.lineno, item.end_lineno)


def references(tree, exports):
    """(name, line) of every use of a name in the module; the names a module
    imports count only when it is the package's export list."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif exports and isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value.rsplit(".", 1)[-1], node.lineno


def test_every_public_name_is_used():
    files = list(python_files(PACKAGE, os.path.join(ROOT, "bench")))
    trees = {path: ast.parse(open(path, encoding="utf-8").read())
             for path in files}
    used = {}
    for path, tree in trees.items():
        exports = path == os.path.join(PACKAGE, "__init__.py")
        for name, line in references(tree, exports):
            used.setdefault(name, []).append((path, line))
    unused = []
    for path in python_files(PACKAGE):
        for qualified, name, first, last in definitions(trees[path]):
            outside = [(p, line) for p, line in used.get(name, ())
                       if p != path or not first <= line <= last]
            if not outside and qualified not in ALLOWED:
                unused.append(f"{os.path.basename(path)}:{qualified}")
    assert not unused, unused


def self_assignments(tree):
    """(Class.attr, attr) of every ``self.<attr> = ...`` inside a class."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Store) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id == "self":
                yield f"{cls.name}.{node.attr}", node.attr


def test_no_write_only_attribute():
    files = list(python_files(PACKAGE, os.path.join(ROOT, "bench")))
    trees = {path: ast.parse(open(path, encoding="utf-8").read())
             for path in files}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    write_only = sorted({qualified for path in python_files(PACKAGE)
                         for qualified, attr in self_assignments(trees[path])
                         if attr not in read
                         and qualified not in READ_BY_TESTS})
    assert not write_only, write_only
