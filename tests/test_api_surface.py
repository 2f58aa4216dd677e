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


def test_every_public_name_has_a_caller():
    refs = references()
    unused = []
    for path, name, first, last in definitions():
        outside = [(p, line) for p, line in refs.get(name, ())
                   if not (p == path and first <= line <= last)]
        if not outside and name not in ALLOWED:
            unused.append(f"{path.name}:{first} {name}")
    assert unused == []


def test_allowlist_is_current():
    defined = {name for _, name, _, _ in definitions()}
    assert set(ALLOWED) <= defined


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
