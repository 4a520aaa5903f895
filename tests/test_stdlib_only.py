"""The package has no runtime dependencies: its source imports only the
standard library and the package itself, and pyproject.toml declares none."""
import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rcsynth"


def test_package_imports_only_stdlib_and_itself():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one: the package itself
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in (*sys.stdlib_module_names, "rcsynth")
            ]
    assert found == []


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.findall(r"^dependencies\s*=.*$", project, re.M) == ["dependencies = []"]
