"""Every exported name exists: ``__all__`` lists and the package's own imports."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gselc

MODULES = [f"gselc.{m.name}" for m in pkgutil.iter_modules(gselc.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_package_imports_exist_and_are_exported():
    tree = ast.parse(Path(gselc.__file__).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module_name, name in imported:
        module = importlib.import_module(f"gselc.{module_name}")
        assert hasattr(module, name) and hasattr(gselc, name), f"{module_name}.{name}"
        assert name in getattr(module, "__all__", [name]), f"{name} not in {module_name}.__all__"
