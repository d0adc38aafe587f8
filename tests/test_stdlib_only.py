"""The runtime is standard-library only: every module under src/crkit
imports crkit itself or a standard-library module, and nothing else."""

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "crkit"


def foreign_imports(text: str) -> set[str]:
    """Top-level names of the modules ``text`` imports that are neither
    crkit nor in the standard library. A relative import is crkit."""
    roots = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            roots.add(node.module.split(".")[0])
    return {name for name in roots if name != "crkit" and name not in sys.stdlib_module_names}


def test_foreign_imports_finds_every_import_form():
    text = "import os, numpy.linalg\nfrom hypothesis import given\nfrom . import series\n"
    assert foreign_imports(text) == {"numpy", "hypothesis"}
    assert foreign_imports("def f():\n    import sympy\n") == {"sympy"}


def test_runtime_imports_only_crkit_and_the_standard_library():
    modules = sorted(SOURCE.rglob("*.py"))
    assert SOURCE / "series.py" in modules
    for path in modules:
        assert not foreign_imports(path.read_text(encoding="utf-8")), path.name
