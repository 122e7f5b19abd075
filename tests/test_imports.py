import ast
from pathlib import Path

import pytest

import cabee

MODULES = sorted(p for p in Path(cabee.__file__).parent.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads; `from __future__`
    imports are not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b as c, d\nprint(os, d)\n"
    assert unused_imports(source) == ["line 3: c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(Path(cabee.__file__).parent).as_posix())
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []
