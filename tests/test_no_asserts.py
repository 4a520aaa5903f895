"""The package states its checks as typed errors: `python -O` strips every
`assert`, so none may appear in the package source."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rcsynth"


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
