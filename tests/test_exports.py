import importlib
import pkgutil

import pytest

import pauliprop

MODULES = ["pauliprop"] + [f"pauliprop.{m.name}" for m in pkgutil.iter_modules(pauliprop.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a deletion must take its __all__ entry with it
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", []) if not hasattr(module, export)]
    assert missing == []
