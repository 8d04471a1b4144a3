"""The package imports nothing at runtime beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dpsurvey"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def top_level_imports(path: Path):
    """(line, top-level module) of every absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_runtime_imports_are_stdlib_or_numpy(path):
    foreign = [(line, module) for line, module in top_level_imports(path)
               if module not in ALLOWED and module != "dpsurvey"]
    assert not foreign, f"{path.name} imports {foreign}"


def test_package_modules_are_found():
    assert len(list(PACKAGE.glob("*.py"))) >= 10
