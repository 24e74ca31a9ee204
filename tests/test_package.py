"""Package-wide layout: one Euler-Maruyama loop and a public surface that resolves."""

from __future__ import annotations

import ast
from pathlib import Path

import tailcost


def _calls_by_function(tree: ast.AST, attr: str) -> list[str]:
    """The innermost enclosing function or class of each call of .attr
    ("<module>" at top level)."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == attr):
                found.append(scope)
            visit(child, inner)

    visit(tree, "<module>")
    return found


def test_one_draw_site_and_a_resolving_public_surface() -> None:
    # every normal the package draws comes from the legs loop
    sites = []
    for path in sorted(Path(tailcost.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites += [(path.name, scope) for scope in _calls_by_function(tree, "standard_normal")]
    assert sites == [("simulate.py", "simulate_legs")]
    missing = [name for name in tailcost.__all__ if not hasattr(tailcost, name)]
    assert missing == []
