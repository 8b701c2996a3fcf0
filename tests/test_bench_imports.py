"""The benchmark's child and reference scripts import names from the package;
every such name must still exist, or each benchmark run fails at import."""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("script", ["child.py", "make_reference.py"])
def test_every_imported_package_name_resolves(script):
    tree = ast.parse((BENCH / script).read_text(), filename=script)
    checked = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "mdgame":
                    importlib.import_module(alias.name)
                    checked += 1
        elif isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "mdgame"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                checked += 1
    assert checked
