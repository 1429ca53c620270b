"""The library imports only the standard library, exports each name once, and
loads only the modules that a command uses.
"""

import ast
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src"
SOURCES = sorted((SRC / "graycycles").glob("*.py"))


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
    from graycycles import existence, graycode, ocycles, words

    modules = (words, graycode, ocycles, existence)
    names = graycycles.__all__
    assert len(names) == len(set(names))
    assert names == [*words.__all__, *graycode.__all__, *ocycles.__all__, *existence.__all__]
    for module in modules:
        for name in module.__all__:
            assert getattr(graycycles, name) is getattr(module, name), name
    assert graycycles.REASON_GCD == "gcd-condition"


def test_star_import_and_dir_give_every_public_name():
    import graycycles

    namespace = {}
    exec("from graycycles import *", namespace)
    assert set(graycycles.__all__) <= set(namespace)
    modules = {"words", "graycode", "ocycles", "existence"}
    assert set(graycycles.__all__) | modules <= set(dir(graycycles))


def test_unknown_attribute_raises_attribute_error():
    import graycycles

    with pytest.raises(AttributeError, match="no attribute 'nothing_here'"):
        graycycles.nothing_here
    assert not hasattr(graycycles, "_cycle_fault")


def fresh(code):
    """Run code in a new interpreter without site hooks; return its stdout lines."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return done.stdout.splitlines()


# Modules that CLI gray and count leave unloaded: graycode, the engine
# (ocycles, codes and views, with the array module), existence and the
# records' base are not needed there, and the others cost start-up time;
# argparse, with gettext, locale and re, serves only help and usage errors.
UNNEEDED = ["argparse", "array", "dataclasses", "gettext", "graycycles.codes",
            "graycycles.existence", "graycycles.graycode", "graycycles.ocycles",
            "graycycles.records", "graycycles.views", "inspect", "locale", "re", "typing"]


@pytest.mark.parametrize("argv", [["gray", "3", "4", "5"], ["count", "3", "4", "5"]])
def test_gray_and_count_load_only_what_they_use(argv):
    lines = fresh(
        "import sys; from graycycles.cli import main; "
        f"code = main({argv!r}); "
        f"print(code, [m for m in {UNNEEDED!r} if m in sys.modules])"
    )
    assert lines[-1] == "0 []"


def test_malformed_command_line_goes_to_argparse():
    lines = fresh(
        "import io, sys; from graycycles.cli import main; "
        "sys.stderr = io.StringIO()\n"
        "try: main(['ocycle', 'fixed', '3', 'x', '12', '5'])\n"
        "except SystemExit as exc: print(exc.code, 'argparse' in sys.modules)\n"
        "print(sys.stderr.getvalue().splitlines()[0])"
    )
    assert lines == ["2 True", "usage: graycycles ocycle fixed [-h] [--compressed] m n k s"]


def test_lazy_names_load_on_first_access():
    loaded = "[m in sys.modules for m in ('graycycles.existence', 'graycycles.ocycles')]"
    lines = fresh(
        "import sys, graycycles; "
        f"print({loaded}); "
        "print(graycycles.witness_non_rotation(3, 4, 3, 2)); "
        f"print({loaded}); "
        "print(graycycles.ocycles.REASON_SINGLETON, graycycles.gray_list(3, 2, 2).words); "
        "print(graycycles.construct_ocycle is graycycles.ocycles.construct_ocycle)"
    )
    assert lines == [
        "[False, False]",
        "((0, 0, 1, 2), (1, 0, 1, 1))",
        "[True, False]",
        "singleton-mismatch ((0, 2), (1, 1), (2, 0))",
        "True",
    ]


def test_exists_decides_the_gcd_rule_without_the_engine():
    probe = ("[m for m in ('argparse', 'array', 'graycycles.codes', 'graycycles.ocycles') "
             "if m in sys.modules]")
    lines = fresh(
        "import sys; from graycycles.cli import main; "
        "code = main(['exists', '3', '6', '6', '2']); "
        f"print(code, {probe}); "
        "code = main(['exists', '2', '3', '0', '1']); "
        f"print(code, {probe})"
    )
    # The degenerate weight 0 is decided by theorem too, with no engine.
    assert lines == ["yes (n-s > gcd(n,s))", "0 []", "yes (degenerate-checked)", "0 []"]


@pytest.mark.parametrize("argv, err", [
    (["ocycle", "fixed", "3", "14", "14", "99"], "overlap length s=99 out of range for n=14"),
    (["digraph", "range", "3", "6", "4", "2", "1"],
     "weight range requires 0 <= p < q <= (m-1)*n, got p=4, q=2"),
    (["verify", "gray", "0", "2", "1"], "alphabet size m must be >= 1, got 0"),
], ids=["ocycle", "digraph", "verify-gray"])
def test_rejected_parameters_load_no_engine(argv, err):
    # The set, its cap and s are checked before the engine is imported.
    lines = fresh(
        "import io, sys; from graycycles.cli import main; "
        "sys.stdin, sys.stderr = io.StringIO(''), io.StringIO(); "
        f"code = main({argv!r}); "
        "probe = ('argparse', 'array', 'graycycles.codes', 'graycycles.ocycles', "
        "'graycycles.graycode'); "
        "print(code, [m for m in probe if m in sys.modules]); "
        "print(sys.stderr.getvalue(), end='')"
    )
    assert lines == ["2 []", f"error: {err}"]


# Tokens that do not count towards a module's size: comments and layout.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}

# Without a bytecode cache every start compiles the modules it loads, and
# compiling peaks at about 450 traced bytes a token, so no module that CLI
# ocycle loads may be much larger than words (1,808 tokens).
TOKEN_BUDGET = 2300


def code_tokens(path):
    with path.open("rb") as fh:
        return sum(token.type not in LAYOUT for token in tokenize.tokenize(fh.readline))


def test_ocycle_and_verify_ocycle_load_only_the_engine():
    # The plain cycle is checked by verify ocycle; views (verify_ocycle,
    # decompress_cycle, DOT export) and existence stay unloaded.
    lines = fresh(
        "import io, sys; from graycycles.cli import main; "
        "out = sys.stdout; "
        "sys.stdout = io.StringIO(); "
        "codes = [main(['ocycle', 'fixed', '3', '6', '6', '2', '--compressed'])]; "
        "sys.stdout = io.StringIO(); "
        "codes.append(main(['ocycle', 'fixed', '3', '6', '6', '2'])); "
        "sys.stdin, sys.stdout = io.StringIO(sys.stdout.getvalue()), io.StringIO(); "
        "codes.append(main(['verify', 'ocycle', '6', '2'])); "
        "text, sys.stdout = sys.stdout.getvalue(), out; "
        "print(codes, repr(text)); "
        "print(sorted(m for m in sys.modules if m.startswith('graycycles')))"
    )
    assert lines == [
        "[0, 0, 0] 'ok\\n'",
        "['graycycles', 'graycycles.cli', 'graycycles.codes', 'graycycles.ocycles', "
        "'graycycles.records', 'graycycles.words']",
    ]
    for name in ast.literal_eval(lines[1]):
        path = SRC.joinpath(*name.split("."))
        path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
        assert code_tokens(path) <= TOKEN_BUDGET, (name, code_tokens(path))


def test_library_only_names_load_from_ocycles_on_first_access():
    # ocycles serves the names that live in views (PEP 562), through the
    # package too, and loads views only when one is asked for.
    lines = fresh(
        "import sys; import graycycles.ocycles as ocycles; "
        "print('graycycles.views' in sys.modules); "
        "from graycycles.ocycles import verify_ocycle; "
        "import graycycles, graycycles.views as views; "
        "print([getattr(ocycles, name) is getattr(views, name) is getattr(graycycles, name) "
        "for name in views.__all__]); "
        "print(set(views.__all__) <= set(ocycles.__all__), verify_ocycle is views.verify_ocycle); "
        "print(hasattr(ocycles, 'nothing_here'))"
    )
    assert lines == ["False", "[True, True, True, True, True, True, True]", "True True", "False"]
