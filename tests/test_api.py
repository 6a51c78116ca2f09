import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_import_loads_no_scipy_that_does_not_run():
    # the energy-budget quadratures are numpy (solver._cumulative_simpson), so nothing loads
    # scipy.integrate and what it brings in
    unused = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.spatial")
    code = f"import sys, wndkit, wndkit.cli; print([m for m in {unused!r} if m in sys.modules])"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
