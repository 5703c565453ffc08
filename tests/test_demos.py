import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def fedmm_imports(path):
    """(module, name) for every ``from fedmm[.sub] import name`` in the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module is not None
        and node.module.split(".")[0] == "fedmm"
        for alias in node.names
    ]


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_every_name_a_demo_imports_from_fedmm_exists(path):
    imports = fedmm_imports(path)
    assert imports, f"{path.name} imports nothing from fedmm"
    missing = [
        f"{module}.{name}" for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"{path.name} imports missing names: {missing}"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_every_demo_runs_and_prints(path):
    proc = subprocess.run([sys.executable, str(path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), f"{path.name} printed nothing"
