"""The package namespace: every exported name resolves to the object its
layer defines, and `import wittforge` by itself loads no layer."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import wittforge
from test_imports import layers_loaded


def test_every_exported_name_is_its_layers_object():
    assert len(wittforge.__all__) == 60
    for name in wittforge.__all__:
        got = getattr(wittforge, name)
        if inspect.ismodule(got):
            assert got is importlib.import_module(f"wittforge.{name}")
        else:
            assert got.__module__.startswith("wittforge."), name
            home = importlib.import_module(got.__module__)
            assert getattr(home, name) is got, name


def test_all_is_listed_in_dir():
    assert set(wittforge.__all__) <= set(dir(wittforge))
    assert "__version__" in dir(wittforge)


def test_import_loads_no_layer():
    assert layers_loaded("import wittforge") == set()


def test_first_use_loads_only_its_layer():
    assert layers_loaded("from wittforge import parse_scalar") == {"scalars"}


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        wittforge.no_such_name
    with pytest.raises(ImportError):
        from wittforge import no_such_name  # noqa: F401


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1 and "from wittforge import (" in blocks[0]
    exec(blocks[0], {})
