import importlib
import pkgutil

import pytest

import wndkit

MODULES = sorted(m.name for m in pkgutil.iter_modules(wndkit.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_public_name(name):
    # a stale __all__ entry fails only on `import *`, so import * each module
    module = importlib.import_module(f"wndkit.{name}")
    namespace: dict = {}
    exec(f"from wndkit.{name} import *", namespace)
    for entry in getattr(module, "__all__", ()):
        assert entry in namespace, entry
