"""Checks on the package source itself."""

import ast
import sys
from pathlib import Path

import equik

SOURCES = sorted(Path(equik.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one vanishes.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert found == []


def test_package_imports_only_the_standard_library():
    # equik runs with nothing installed: every import is relative or names
    # a standard-library module.
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert SOURCES
    assert found == []
