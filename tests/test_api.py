"""The public surface: ``__all__``, what the package imports, and the README."""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import fabcarbon

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_library_imports() -> set[str]:
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return {
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "fabcarbon"
        for alias in node.names
    }


def test_every_exported_name_resolves():
    missing = [name for name in fabcarbon.__all__ if not hasattr(fabcarbon, name)]
    assert missing == []


def test_exports_equal_the_public_names_imported():
    imported = {
        name
        for name, value in vars(fabcarbon).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(fabcarbon.__all__) == sorted(imported)
    assert len(fabcarbon.__all__) == len(set(fabcarbon.__all__))


def test_readme_library_block_uses_exported_names():
    names = _readme_library_imports()
    assert names
    assert names <= set(fabcarbon.__all__)
