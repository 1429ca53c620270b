"""The library imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "graycycles").glob("*.py"))


def absolute_imports(path):
    """Top-level module names of every absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_library_imports_only_the_standard_library():
    assert len(SOURCES) >= 5
    for path in SOURCES:
        foreign = sorted(set(absolute_imports(path)) - sys.stdlib_module_names)
        assert not foreign, (path.name, foreign)
