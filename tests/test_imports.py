"""Every name a library module imports is read somewhere in that module,
and the package imports nothing outside the standard library.

`__init__.py` imports names in order to re-export them, so it is not
scanned for unused imports.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wittforge"
FILES = sorted(SRC.glob("*.py"))
MODULES = [p for p in FILES if p.name != "__init__.py"]


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


def absolute_imports(source: str) -> list:
    """The top-level package of every absolute import in `source`."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    names = absolute_imports(path.read_text())
    assert [n for n in names if n not in sys.stdlib_module_names] == []


def test_stdlib_scan_flags_third_party_imports():
    source = ("import os.path\nfrom . import cover\nfrom .lie import x\n"
              "import click\ndef f():\n    from hypothesis import given\n")
    assert [n for n in absolute_imports(source)
            if n not in sys.stdlib_module_names] == ["click", "hypothesis"]


def test_cli_import_loads_no_third_party_module():
    # -S: no site hooks, so every module loaded comes from the import
    code = ("import json, sys; before = set(sys.modules); "
            "import wittforge.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = {name.split(".")[0] for name in json.loads(proc.stdout)}
    assert "click" not in loaded
    assert loaded - set(sys.stdlib_module_names) == {"wittforge"}
