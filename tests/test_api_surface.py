"""Every public top-level function and class of the package has a caller,
and every module-level logger has a record written to it.

A name counts as used when code in `src/`, `demos/` or `bench/` refers to
it (a name, an attribute or an import) outside its own definition; a
mention in a docstring or a comment does not count, and neither do the
tests, so an API that only tests call shows up here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Name -> why it stays without a caller.
ALLOWED = {
    "cumulative_orbit_distortion":
        "the per-generation linearity output (ROADMAP item 7) will call it",
}


def definitions():
    """(file, name, first line, last line) of each public top-level
    function and class of the package."""
    for path in sorted((ROOT / "src" / "innerlab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path, node.name, node.lineno, node.end_lineno


def references():
    """name -> [(file, line)] of every reference in code under src/, demos/
    and bench/."""
    refs = {}
    for folder in ("src", "demos", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name.rsplit(".", 1)[-1]
                else:
                    continue
                refs.setdefault(name, []).append((path, node.lineno))
    return refs


def callers():
    """(file, name, first line, references outside the definition) for
    each public top-level function and class of the package."""
    refs = references()
    return [(path, name, first, [(p, line) for p, line in refs.get(name, ())
                                 if not (p == path and first <= line <= last)])
            for path, name, first, last in definitions()]


def test_every_public_name_has_a_caller():
    unused = [f"{path.name}:{first} {name}" for path, name, first, where in callers()
              if not where and name not in ALLOWED]
    assert unused == []


def test_allowlist_is_current():
    # An allowlisted name is still defined and still has no caller: once
    # it gains one, it leaves ALLOWED.
    found = {name: where for _, name, _, where in callers() if name in ALLOWED}
    assert found == {name: [] for name in ALLOWED}


def test_every_module_logger_is_logged_to():
    # A module-level `name = logging.getLogger(...)` needs at least one
    # `name.<method>(...)` call in the same module.
    silent = []
    for path in sorted((ROOT / "src" / "innerlab").glob("*.py")):
        tree = ast.parse(path.read_text())
        loggers = {target.id for node in tree.body if isinstance(node, ast.Assign)
                   and isinstance(node.value, ast.Call)
                   and isinstance(node.value.func, ast.Attribute)
                   and node.value.func.attr == "getLogger"
                   for target in node.targets if isinstance(target, ast.Name)}
        called = {node.func.value.id for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and isinstance(node.func.value, ast.Name)}
        silent += [f"{path.name} {name}" for name in sorted(loggers - called)]
    assert silent == []


def defaulted_parameters():
    """(file, function, parameter, position or None, is a method) of each
    defaulted parameter of a public function of the package or a public
    method of its public classes; the position counts the arguments a
    call passes, so it leaves out the `self` or `cls` of a method, and is
    None for a keyword-only parameter."""
    for path in sorted((ROOT / "src" / "innerlab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                functions = [(node, 0)]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                functions = [(f, 0 if any(getattr(d, "id", None) == "staticmethod"
                                          for d in f.decorator_list) else 1)
                             for f in node.body if isinstance(f, ast.FunctionDef)]
            else:
                continue
            for f, skip in functions:
                if f.name.startswith("_"):
                    continue
                a = f.args
                method = f is not node
                positional = a.posonlyargs + a.args
                for i, arg in enumerate(positional[len(positional) - len(a.defaults):],
                                        len(positional) - len(a.defaults)):
                    yield path, f.name, arg.arg, i - skip, method
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        yield path, f.name, arg.arg, None, method


def bound_names(tree, in_package):
    """(package, foreign): the names a module binds to the package (what
    it imports from it, and its own top-level functions and classes if it
    is part of it) and those it imports from elsewhere."""
    package = {node.name for node in tree.body if in_package
               and isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    foreign = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            ours = node.level or (node.module or "").startswith("innerlab")
            (package if ours else foreign).update(a.asname or a.name
                                                  for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                (package if a.name.startswith("innerlab") else foreign).add(
                    a.asname or a.name.split(".")[0])
    return package, foreign


def calls():
    """function name -> [(positional count, keywords, starred, resolved)]
    of every call in code under src/, demos/ and bench/.  A call resolves
    to the package when its name, or the root of its receiver (`counting`
    in `counting.f(...)`, `InnerModel` in `InnerModel.g(...)`), is bound
    to the package in its module.  A call whose root is imported from
    elsewhere (`np.size(...)`) is left out; any other `x.g(...)` is
    matched to the package's methods by name alone."""
    out = {}
    for folder in ("src", "demos", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text())
            package, foreign = bound_names(tree, "innerlab" in path.parts)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                root = func = node.func
                while isinstance(root, ast.Attribute):
                    root = root.value
                if (not isinstance(func, (ast.Name, ast.Attribute))
                        or getattr(root, "id", None) in foreign):
                    continue
                name = getattr(func, "attr", getattr(func, "id", None))
                starred = (any(isinstance(a, ast.Starred) for a in node.args)
                           or any(k.arg is None for k in node.keywords))
                resolved = getattr(root, "id", None) in package
                out.setdefault(name, []).append(
                    (len(node.args), {k.arg for k in node.keywords}, starred, resolved))
    return out


def test_every_default_parameter_is_set_by_a_caller():
    # A default that no caller overrides is a parameter that does nothing.
    # A module-level function counts only calls that resolve to the
    # package; a method also counts unresolved `x.name(...)` calls, as the
    # receiver's type is not known here, but never a starred one.
    sites = calls()
    unset = [f"{path.name} {function}({parameter})"
             for path, function, parameter, position, method in defaulted_parameters()
             if not any((starred and resolved) or parameter in keywords
                        or (position is not None and position < count)
                        for count, keywords, starred, resolved in sites.get(function, ())
                        if resolved or (method and not starred))]
    assert unset == []
