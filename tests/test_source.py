import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/agcodes/*.py"), *ROOT.glob("tests/*.py")])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_parses_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10; with feature_version
    # a newer interpreter's parser rejects grammar 3.10 lacks, such as
    # except* or the type statement
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


PACKAGE = sorted(ROOT.glob("src/agcodes/*.py"))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_imports_only_the_standard_library(path):
    # numpy and friends are ruled out: importing numpy alone doubles the
    # benchmark's peak RSS
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            assert top == "agcodes" or top in sys.stdlib_module_names, (path.name, name)


def package_functions():
    """(name, file) of every module-level function and class method of the
    package, and the set of names package code reads or calls."""
    defined: list[tuple[str, str]] = []
    named: set[str] = set()
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        scopes = [tree] + [node for node in tree.body if isinstance(node, ast.ClassDef)]
        for scope in scopes:
            for node in scope.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined.append((node.name, path.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return defined, named


def test_private_helpers_have_a_caller_in_the_package():
    # an underscore-named function or method that no package code names is
    # dead code, whatever tests still reach it; dunder methods are called
    # by the interpreter
    defined, named = package_functions()
    dead = sorted(
        f"{where}:{name}"
        for name, where in defined
        if name.startswith("_") and not name.endswith("__") and name not in named
    )
    assert not dead, dead


# Public functions and methods that no package code names, each kept for
# the reason given: API the README documents, or a reference
# implementation that tests, acceptance criteria or perfbench call.
UNCALLED_PUBLIC = {
    "dft2": "the forward 2-D transform of README's module table; codec and bms "
    "import it unused so perfbench's tracer can rebind it",
    "analogue_dft": "the paper's transform analogue at a zero point, checked by "
    "acceptance criterion 10",
    "encode_matrix_oracle": "the reference encoder the encoder tests compare with "
    "and perfbench's q9-noisy workload encodes by",
    "rs_encode_dh": "the RS encoder by the 1-D transform that acceptance "
    "criterion 9 compares with rs_encode_euclid",
    "matrix_rank": "the check-matrix rank the code-parameter tests read",
    "from_coords": "an element from its GF(p) coordinates, which the field and "
    "transform tests build apart from the tables",
    "nonzero": "the nonzero elements, which the field tests iterate",
}


def test_public_functions_have_a_caller_in_the_package_or_a_reason():
    # a public function or method no package code names is dead code too,
    # unless UNCALLED_PUBLIC says why it stays; an entry whose name is now
    # called or gone is stale
    defined, named = package_functions()
    uncalled = {name for name, _ in defined if not name.startswith("_") and name not in named}
    assert uncalled == set(UNCALLED_PUBLIC)
