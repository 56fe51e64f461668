import importlib
import pkgutil

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
