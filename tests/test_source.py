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


def test_private_helpers_have_a_caller_in_the_package():
    # an underscore-named function or method that no package code names is
    # dead code, whatever tests still reach it; dunder methods are called
    # by the interpreter
    defined: dict[str, str] = {}
    named: set[str] = set()
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        scopes = [tree] + [node for node in tree.body if isinstance(node, ast.ClassDef)]
        for scope in scopes:
            for node in scope.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                    if name.startswith("_") and not name.endswith("__"):
                        defined[name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    dead = sorted(f"{where}:{name}" for name, where in defined.items() if name not in named)
    assert not dead, dead
