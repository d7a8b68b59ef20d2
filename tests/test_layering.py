"""The package's modules import each other in layers: core owns the
representation, detect and hypergraph build on it, and the rest build on
those.  Read off the source with ast, so no import runs."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sumsetfree"

# the sibling modules each library module may import
ALLOWED = {
    "core": set(),
    "detect": {"core"},
    "hypergraph": {"core"},
    "search": {"core", "detect"},
    "construct": {"core", "detect"},
    "sequences": {"core", "detect", "construct"},
}


def sibling_imports(path: Path) -> set:
    """The modules named by the relative imports of one module: the
    package imports its siblings only as `from .x import ...`."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.add(node.module.split(".")[0])
            else:  # from . import x
                out.update(alias.name for alias in node.names)
    return out


def test_library_modules_import_only_lower_layers():
    modules = {p.stem: p for p in PACKAGE.glob("*.py")}
    # every module but the entry points has a layer
    assert set(modules) - {"__init__", "cli"} == set(ALLOWED)
    graph = {name: sibling_imports(modules[name]) for name in ALLOWED}
    assert {name: deps - ALLOWED[name] for name, deps in graph.items()} == {
        name: set() for name in ALLOWED
    }
