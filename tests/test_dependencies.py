"""Installing the package with its `test` extra is enough to run the suite:
every third-party module a test imports is declared in pyproject.toml."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib", reason="in the standard library from Python 3.11")

ROOT = Path(__file__).resolve().parents[1]


def _declared() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    return {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower() for req in requirements}


def _imported(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_third_party_test_import_is_declared():
    imported = set().union(*(_imported(p) for p in (ROOT / "tests").glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"sparsetrace"}
    assert sorted(third_party - _declared()) == []
