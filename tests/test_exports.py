"""Every exported name exists, and the package namespace re-exports only exported names."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dpsurvey"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def package_imports():
    """(source module, name) of every relative import in dpsurvey/__init__.py."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_is_defined_or_imported(name):
    module = importlib.import_module(f"dpsurvey.{name}")
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not missing, f"dpsurvey.{name}.__all__ lists undefined names {missing}"


def test_the_package_imports_only_names_its_modules_export():
    imports = list(package_imports())
    assert len(imports) > 50
    unexported = [(source, name) for source, name in imports
                  if name not in importlib.import_module(f"dpsurvey.{source}").__all__]
    assert not unexported, f"dpsurvey/__init__.py imports names outside __all__: {unexported}"
