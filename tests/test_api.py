"""The public surface: ``__all__``, what the package imports, and the README."""

from __future__ import annotations

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import fabcarbon

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_library_code() -> str:
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _readme_library_imports() -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(_readme_library_code()))
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


def test_version_matches_pyproject():
    # a regex, since Python 3.10 has no tomllib
    pyproject = README.with_name("pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^version = "([^"]*)"$', pyproject, re.M).group(1) == fabcarbon.__version__


def test_readme_library_block_uses_exported_names():
    names = _readme_library_imports()
    assert names
    assert names <= set(fabcarbon.__all__)


def test_readme_library_block_runs(capsys):
    exec(compile(_readme_library_code(), str(README), "exec"), {})
    assert capsys.readouterr().out


# Imports every fabcarbon module, then prints the top-level modules loaded
# that are neither the standard library nor fabcarbon. `-S` keeps `site`
# and the .pth files of installed packages from loading modules of their own.
_STDLIB_PROBE = """
import importlib, pkgutil, sys
import fabcarbon
for info in pkgutil.walk_packages(fabcarbon.__path__, "fabcarbon."):
    importlib.import_module(info.name)
top = {name.partition(".")[0] for name in sys.modules}
print(sorted(top - set(sys.stdlib_module_names) - {"__main__", "fabcarbon"}))
"""


def test_every_module_imports_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=str(Path(fabcarbon.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-S", "-c", _STDLIB_PROBE], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
