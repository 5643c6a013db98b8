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

# public names that nothing in the library or the benchmark needs to use;
# the brute-force oracles the tests call live in the tests
ALLOWED = set()

# defaulted parameters that only the tests give a second value
VARIED_BY_TESTS = {
    "modsys.py:check_idempotent(sample_budget)",
    "modsys.py:is_finitary(sample_budget)",
}

# attributes set on self that only the tests read: public values
READ_BY_TESTS = {
    "ParseError.field",
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


def defaulted_parameters(tree):
    """(function name, parameter, position or None, default node) of every
    defaulted parameter of a public module-level function; keyword-only
    parameters have no position."""
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, (arg, default) in enumerate(zip(positional[first:],
                                               args.defaults)):
            yield node.name, arg.arg, first + i, default
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None, default


def passed_value(call, param, position, default):
    """What a call gives `param`: the source of a literal (its default's when
    the call leaves it out), or None for a value only known at run time,
    which a starred argument may also be."""
    if any(k.arg is None for k in call.keywords) or \
            any(isinstance(a, ast.Starred) for a in call.args):
        return None
    value = next((k.value for k in call.keywords if k.arg == param), None)
    if value is None and position is not None and len(call.args) > position:
        value = call.args[position]
    if value is None:
        value = default
    return ast.dump(value) if isinstance(value, ast.Constant) else None


def test_every_defaulted_parameter_takes_two_values():
    """A defaulted parameter of a public function is an option only when the
    calls in the library or the benchmark give it a second value, by keyword
    or by position; a run-time value counts as a second one."""
    files = list(python_files(PACKAGE, os.path.join(ROOT, "bench")))
    trees = {path: ast.parse(open(path, encoding="utf-8").read())
             for path in files}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    fixed = []
    for path in python_files(PACKAGE):
        for name, param, position, default in \
                defaulted_parameters(trees[path]):
            values = {passed_value(call, param, position, default)
                      for call in calls.get(name, ())}
            label = f"{os.path.basename(path)}:{name}({param})"
            if len(values) < 2 and None not in values and \
                    label not in VARIED_BY_TESTS:
                fixed.append(label)
    assert not fixed, fixed
