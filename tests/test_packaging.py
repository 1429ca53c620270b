"""The library imports nothing outside the standard library and exports each name once."""

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


def test_package_reexports_each_module_name_once():
    import graycycles
    from graycycles import graycode, ocycles, words

    modules = (words, graycode, ocycles)
    names = graycycles.__all__
    assert len(names) == len(set(names))
    assert set(names) == set().union(*(module.__all__ for module in modules))
    for module in modules:
        for name in module.__all__:
            assert getattr(graycycles, name) is getattr(module, name), name
    assert graycycles.REASON_GCD == "gcd-condition"
