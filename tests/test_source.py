import ast
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
