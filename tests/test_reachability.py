"""The package holds no code that only the tests reach.

Every module-level function and class of ``src/btlab`` must be referenced by
name from code of the package that is itself live: module-level statements,
or the body of another live definition.  A definition's references from its
own body, and the re-exports of ``__init__.py``, do not count, and a name
bound by ``import ... as`` counts under its original name.  The roots are the
console script ``cli.main``, the click commands that a decorator registers,
and the names of ``ALLOWED``.  A test-only oracle belongs under ``tests/``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "btlab"

ALLOWED = {
    "compose_exact": "the exact product of kernels, which A*A for band counts and T_f T_g = T_h_m build on",
    "adjoint": "the exact adjoint, which A*A for band counts builds on",
    "formal_trace": "the formal trace of a star-product series, which the trace laws at every order extend",
}


def _registered(node) -> bool:
    """Whether a decorator registers the definition, as ``@main.command()`` and ``@main.group()`` do."""
    return any(
        isinstance(dec, ast.Call) and isinstance(dec.func, ast.Attribute) and dec.func.attr in ("command", "group")
        for dec in node.decorator_list
    )


def _definitions():
    """(module, name) -> the names its body references, for every module-level function and class; and the
    names that module-level statements reference, with each ``import ... as`` alias read as its original name."""
    defs, live = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {
            alias.asname: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.asname
        }

        def names(node):
            found = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    found.add(aliases.get(sub.id, sub.id))
                elif isinstance(sub, ast.Attribute):
                    found.add(sub.attr)
            return found

        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[path.stem, node.name] = names(node) - {node.name}
                if _registered(node) or (path.stem, node.name) == ("cli", "main"):
                    live.add(node.name)
            elif path.name != "__init__.py" and not isinstance(node, (ast.Import, ast.ImportFrom)):
                live |= names(node)
    return defs, live


def _reached(defs: dict, live: set) -> set:
    """The definitions reached from the names in ``live``, through the bodies of the definitions reached."""
    live, reached = set(live), set()
    while new := {key for key in defs if key[1] in live} - reached:
        reached |= new
        for key in new:
            live |= defs[key]
    return reached


def test_every_definition_in_src_is_reached_from_src():
    defs, live = _definitions()
    unreached = sorted(f"{module}.{name}" for module, name in set(defs) - _reached(defs, live | set(ALLOWED)))
    assert not unreached, f"defined in src/btlab but reached only from outside it: {unreached}"


def test_every_allowed_name_is_defined_and_needs_its_entry():
    defs, live = _definitions()
    reached = {name for _, name in _reached(defs, live)}
    for name in ALLOWED:
        assert name in {name for _, name in defs}, f"{name} is no longer defined"
        assert name not in reached, f"{name} is reached without its allowlist entry"
