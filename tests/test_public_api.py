import importlib

import pytest

MODULES = ("anelor", "anelor.basis", "anelor.cli", "anelor.dynamics", "anelor.lorenz",
           "anelor.projection", "anelor.spectral")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_and_star_imports(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
