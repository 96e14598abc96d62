import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import pauliprop

MODULES = ["pauliprop"] + [f"pauliprop.{m.name}" for m in pkgutil.iter_modules(pauliprop.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a deletion must take its __all__ entry with it
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", []) if not hasattr(module, export)]
    assert missing == []


def test_readme_imports_resolve():
    # a deletion must take the README's imports of it along too
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    code = "".join(re.findall(r"```[^\n]*\n(.*?)```", readme, flags=re.S))
    imports = re.findall(r"^from (pauliprop[\w.]*) import ([^\n]+)$", code, flags=re.M)
    assert imports
    missing = [
        f"{module}.{name}"
        for module, names in imports
        for name in (part.split(" as ")[0].strip(" ()") for part in names.split(","))
        if name and not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
