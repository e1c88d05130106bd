"""The package holds no code that only the tests reach.

Every module-level function and class of ``src/btlab``, and every method of
those classes, must be referenced from code of the package that is itself
live: module-level statements, or the body of another live definition.  A
name resolves through its module: to the module's own definition of that
name, or through a ``from .module import name`` line (with or without
``as``) to that module's definition.  ``module.name`` resolves when
``from . import module`` bound ``module``.  Any other attribute, such as a
method call, references no module-level definition, so a method does not
keep alive a function of the same name.  A method of a live class is live
when live code reads its name as an attribute (``obj.name``), whatever
``obj`` is; a dunder method, which Python calls itself, lives with its
class.  A definition's references from its own body do not count.  The
roots are the console script ``cli.main``, the click commands that a
decorator registers, and the names of ``ALLOWED``.  A test-only oracle
belongs under ``tests/``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "btlab"
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)

ALLOWED = {
    "compose_exact": "the exact product of kernels, which A*A for band counts and T_f T_g = T_h_m build on",
}


def _registered(node) -> bool:
    """Whether a decorator registers the definition, as ``@main.command()`` and ``@main.group()`` do."""
    return any(
        isinstance(dec, ast.Call) and isinstance(dec.func, ast.Attribute) and dec.func.attr in ("command", "group")
        for dec in node.decorator_list
    )


def _methods(node) -> list:
    """The methods of a class that code calls by name: all but the dunders."""
    if not isinstance(node, ast.ClassDef):
        return []
    return [
        sub
        for sub in node.body
        if isinstance(sub, ast.FunctionDef) and not (sub.name.startswith("__") and sub.name.endswith("__"))
    ]


def _definitions(package: Path = PACKAGE):
    """(module, name) -> (the (module, name) keys its body references, the attribute names it reads), for every
    module-level function and class, and (module, "Class.method") -> the same for every method of ``_methods``,
    which its class's entry leaves out; and the keys and attribute names of module-level statements, with the
    registered roots among the keys."""
    defs, live, attrs = {}, set(), set()
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

        def references(nodes):
            keys, names = set(), set()
            for sub in (sub for node in nodes for sub in ast.walk(node)):
                if isinstance(sub, ast.Name) and sub.id in scope:
                    keys.add(scope[sub.id])
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
                    if isinstance(sub.value, ast.Name) and sub.value.id in modules:
                        keys.add((modules[sub.value.id], sub.attr))
            return keys, names

        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                key, methods = (module, node.name), _methods(node)
                keys, names = references([sub for sub in ast.iter_child_nodes(node) if sub not in methods])
                defs[key] = keys - {key}, names
                for method in methods:
                    defs[module, f"{node.name}.{method.name}"] = references([method])
                if _registered(node) or key == ("cli", "main"):
                    live.add(key)
            else:
                keys, names = references([node])
                live |= keys
                attrs |= names
    return defs, live, attrs


def _reached(defs: dict, live: set, attrs: set) -> set:
    """The definitions reached from the keys in ``live``, through the bodies of the definitions reached, and the
    methods of the classes reached whose names ``attrs`` or the bodies reached read."""
    methods = {key: ((key[0], key[1].split(".")[0]), key[1].split(".")[1]) for key in defs if "." in key[1]}
    reached, attrs, frontier = set(), set(attrs), set(live) & set(defs)
    while frontier:
        reached |= frontier
        for key in frontier:
            attrs |= defs[key][1]
        frontier = set().union(*(defs[key][0] for key in frontier)) & set(defs)
        frontier |= {key for key, (cls, name) in methods.items() if cls in reached and name in attrs}
        frontier -= reached
    return reached


def _unreached(package: Path, allowed=()) -> list[str]:
    defs, live, attrs = _definitions(package)
    live |= {key for key in defs if key[1] in allowed}
    return sorted(f"{module}.{name}" for module, name in set(defs) - _reached(defs, live, attrs))


def test_every_definition_in_src_is_reached_from_src():
    unreached = _unreached(PACKAGE, ALLOWED)
    assert not unreached, f"defined in src/btlab but reached only from outside it: {unreached}"


def test_every_allowed_name_is_defined_and_needs_its_entry():
    defs, live, attrs = _definitions()
    reached = {name for _, name in _reached(defs, live, attrs)}
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


def test_a_method_is_reached_through_its_attribute_name(tmp_path):
    files = {
        "cli.py": """
from .shapes import Circle


def main():
    return Circle().area()
""",
        "shapes.py": """
class Circle:
    def __init__(self):
        self.unit = self.unit_length()

    def unit_length(self):
        return 1

    def area(self):
        return self.radius() ** 2

    def radius(self):
        return self.unit

    def perimeter(self):
        return self.perimeter()


class Square:
    def area(self):
        return 4
""",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    # a dunder and a reached method reach what they read; a method's call to itself and a live name read on
    # another class reach nothing
    assert _unreached(tmp_path) == ["shapes.Circle.perimeter", "shapes.Square", "shapes.Square.area"]
