import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import driftscope

MODULES = sorted(m.name for m in pkgutil.iter_modules(driftscope.__path__))


def test_every_module_is_checked():
    assert {"analysis", "chronology", "cli", "datasets", "kernels", "stats"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"driftscope.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"driftscope.{name}.__all__ names missing attributes: {missing}"


def test_cli_import_leaves_statistics_unloaded():
    """Only ``swilk``, which no command imports, needs ``statistics``
    (and with it ``fractions`` and ``decimal``): a start does not import
    it."""
    package_root = os.path.dirname(driftscope.__path__[0])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    code = "import sys, driftscope.cli; print('statistics' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert run.stdout == "False\n"
