"""Every public name of the package has a caller outside the tests."""

import ast
import importlib
import pkgutil
from pathlib import Path

import vvaf

ROOT = Path(__file__).resolve().parents[1]
CALLER_TREES = ("src", "demos", "perfbench")


def _referenced_names() -> set:
    """Names read, attributes taken and names imported anywhere in the caller trees.

    A ``def`` or ``class`` statement binds its name without reading it, and
    ``__all__`` lists names as strings, so neither counts as a reference.
    """
    names = set()
    for tree in CALLER_TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_name_has_a_caller():
    referenced = _referenced_names()
    unreferenced = [
        f"vvaf.{info.name}.{name}"
        for info in pkgutil.iter_modules(vvaf.__path__)
        for name in getattr(importlib.import_module(f"vvaf.{info.name}"), "__all__", ())
        if name not in referenced
    ]
    assert unreferenced == [], f"public names with no caller in {', '.join(CALLER_TREES)}: {unreferenced}"
