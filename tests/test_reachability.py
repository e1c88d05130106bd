"""The package holds no code that only the tests reach.

Every module-level function and class of ``src/btlab`` must be referenced
from code of the package that is itself live: module-level statements, or
the body of another live definition.  A name resolves through its module:
to the module's own definition of that name, or through a
``from .module import name`` line (with or without ``as``) to that
module's definition.  ``module.name`` resolves when ``from . import module``
bound ``module``.  Any other attribute, such as a method call, references
no module-level definition, so a method does not keep alive a function of
the same name.  A definition's references from its own body, and the
re-exports of ``__init__.py``, do not count.  The roots are the console
script ``cli.main``, the click commands that a decorator registers, and the
names of ``ALLOWED``.  A test-only oracle belongs under ``tests/``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "btlab"
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)

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


def _definitions(package: Path = PACKAGE):
    """(module, name) -> the (module, name) keys its body references, for every module-level function and class;
    the keys that module-level statements reference; and the keys of the registered roots."""
    defs, live, roots = {}, set(), set()
    for path in sorted(package.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text())
        scope = {node.name: (module, node.name) for node in tree.body if isinstance(node, DEFINITIONS)}
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        scope[alias.asname or alias.name] = (node.module, alias.name)

        def references(node):
            found = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id in scope:
                    found.add(scope[sub.id])
                elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id in modules:
                    found.add((modules[sub.value.id], sub.attr))
            return found

        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                defs[module, node.name] = references(node) - {(module, node.name)}
                if _registered(node) or (module, node.name) == ("cli", "main"):
                    roots.add((module, node.name))
            elif path.name != "__init__.py" and not isinstance(node, (ast.Import, ast.ImportFrom)):
                live |= references(node)
    return defs, live | roots


def _reached(defs: dict, live: set) -> set:
    """The definitions reached from the keys in ``live``, through the bodies of the definitions reached."""
    reached, frontier = set(), set(live) & set(defs)
    while frontier:
        reached |= frontier
        frontier = set().union(*(defs[key] for key in frontier)) & set(defs) - reached
    return reached


def _unreached(package: Path, allowed=()) -> list[str]:
    defs, live = _definitions(package)
    live |= {key for key in defs if key[1] in allowed}
    return sorted(f"{module}.{name}" for module, name in set(defs) - _reached(defs, live))


def test_every_definition_in_src_is_reached_from_src():
    unreached = _unreached(PACKAGE, ALLOWED)
    assert not unreached, f"defined in src/btlab but reached only from outside it: {unreached}"


def test_every_allowed_name_is_defined_and_needs_its_entry():
    defs, live = _definitions()
    reached = {name for _, name in _reached(defs, live)}
    for name in ALLOWED:
        assert name in {name for _, name in defs}, f"{name} is no longer defined"
        assert name not in reached, f"{name} is reached without its allowlist entry"


def test_a_method_does_not_reach_a_function_of_the_same_name(tmp_path):
    files = {
        "cli.py": """
from . import units
from .shapes import Circle, area as shape_area


def main():
    return Circle().evaluate() + shape_area() + units.scale()
""",
        "shapes.py": """
def evaluate():
    return 0


def area():
    return 1


class Circle:
    def evaluate(self):
        return 2
""",
        "units.py": """
def scale():
    return 3


def unused():
    return 4
""",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert _unreached(tmp_path) == ["shapes.evaluate", "units.unused"]
