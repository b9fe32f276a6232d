import importlib
import pkgutil

import pytest

import heattrace

MODULES = sorted(m.name for m in pkgutil.iter_modules(heattrace.__path__))


@pytest.mark.parametrize("name", [None, *MODULES])
def test_every_public_name_resolves(name):
    module = heattrace if name is None else importlib.import_module(f"heattrace.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
