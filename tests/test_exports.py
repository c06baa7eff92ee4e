import importlib
import pkgutil

import pytest

import afbm

MODULES = sorted(m.name for m in pkgutil.iter_modules(afbm.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"afbm.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_package_exports_resolve():
    missing = [n for n in afbm.__all__ if not hasattr(afbm, n)]
    assert missing == []
    assert len(set(afbm.__all__)) == len(afbm.__all__)
