"""Every name a package module imports is used in that module.

Removing an option tends to leave its constant or error type imported but
unused.  This reads each module under ``src/delaydirac/`` with ``ast`` and
compares the names its imports bind with the names its code loads.
``__init__`` is left out: its imports are the public exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "delaydirac"
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the imports in ``source`` that its code never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_detector_flags_an_unused_import():
    assert len(MODULES) >= 8
    source = ("from __future__ import annotations\n"
              "import os, sys\nfrom json import dumps as d\nsys.exit(d(1))\n")
    assert unused_imports(source) == [(2, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
