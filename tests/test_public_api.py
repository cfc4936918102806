import importlib
import importlib.util
import inspect
import pathlib
import types

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


def load_tracer():
    """perfbench/tracer.py, loaded by path: it binds anelor names by string."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_name_the_benchmark_tracer_binds_resolves():
    tracer = load_tracer()
    for table in (tracer.SPANS, tracer.LEAVES):
        for home, names in table.items():
            module = importlib.import_module(f"anelor.{home}")
            for qualified in names:
                target = module
                for attr in qualified.split("."):
                    target = getattr(target, attr)
                assert callable(target), (home, qualified)
    for name in tracer.BINDING_MODULES:
        importlib.import_module(name)


def test_every_argument_the_benchmark_taggers_read_is_a_parameter():
    # check_convergence, source and n_modes; the nfev taggers read the result
    tracer = load_tracer()
    for name, tagger in tracer.TAGGERS.items():
        home, _, function = name.partition(".")
        signature = inspect.signature(getattr(importlib.import_module(f"anelor.{home}"),
                                              function))
        tagger(dict.fromkeys(signature.parameters), types.SimpleNamespace(nfev=0))
