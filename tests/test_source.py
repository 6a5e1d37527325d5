"""Rules the package source keeps."""

import ast
from pathlib import Path

import aplang

SRC = Path(aplang.__file__).parent


def test_no_assert_in_src():
    # python -O strips assert statements, so checks must be real branches
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
