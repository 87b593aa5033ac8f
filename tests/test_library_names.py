"""Every public top-level name of the library serves the public API or the
library itself, so helpers that only a test calls live in the tests."""

import ast
from pathlib import Path

import sparsetrace

PACKAGE = Path(sparsetrace.__file__).resolve().parent


def _names_used(node: ast.AST) -> set[str]:
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def test_every_public_definition_is_exported_or_used_in_the_library():
    definitions = []  # (module, name, index of the defining statement)
    used = []  # the names each top-level statement of the library refers to
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                definitions.append((path.stem, stmt.name, len(used)))
            used.append(_names_used(stmt))
    unused = [f"{module}.{name}" for module, name, own in definitions
              if name not in sparsetrace.__all__
              and not any(name in names for i, names in enumerate(used) if i != own)]
    assert unused == []


def test_every_imported_name_is_used():
    unused = []
    # __init__ imports names to re-export them.
    for path in sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = [s for s in ast.walk(tree) if isinstance(s, (ast.Import, ast.ImportFrom))
                   and getattr(s, "module", None) != "__future__"]
        names = {a.asname or a.name.split(".")[0] for s in imports for a in s.names}
        unused += [f"{path.stem}: {name}" for name in sorted(names - _names_used(tree))]
    assert unused == []
