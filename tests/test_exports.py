"""Public names: every __all__ entry exists once, and the package re-exports only public names."""

import ast
import importlib
import pathlib

import pytest

import qhydro

MODULES = ["cli", "fluid", "hilbert", "jsonio", "projective", "riemann", "spin"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_without_duplicates(name):
    module = importlib.import_module(f"qhydro.{name}")
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(module, n)] == []


def test_package_imports_only_names_in_their_module_all():
    tree = ast.parse(pathlib.Path(qhydro.__file__).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    missing = [
        f"{module}.{name}"
        for module, name in imported
        if name not in getattr(importlib.import_module(f"qhydro.{module}"), "__all__", ())
    ]
    assert missing == []
