"""Every name a library module imports is read somewhere in that module.

`__init__.py` imports names in order to re-export them, so it is not
scanned.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wittforge"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement anywhere in `source` that no
    expression in it reads, in source order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for line, name in sorted(imported)
            if name not in read]


def test_scan_sees_every_module():
    assert {p.stem for p in MODULES} >= {"cli", "cover", "enveloping", "lie",
                                         "linalg", "modules", "scalars"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_unused_and_local_imports():
    source = ("import os\nimport os.path as osp\nfrom typing import (Iterable,\n"
              "    Mapping as M)\n\ndef f():\n    import json\n"
              "    return M, os\n")
    assert unused_imports(source) == ["line 2: osp", "line 3: Iterable",
                                      "line 7: json"]
