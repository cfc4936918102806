import importlib
import importlib.util
import inspect
import pathlib
import types

import pytest

MODULES = ("anelor", "anelor.basis", "anelor.cli", "anelor.dynamics", "anelor.lorenz",
           "anelor.params", "anelor.projection", "anelor.spectral")
# the modules whose __all__ the package re-exports: all but the command line
REEXPORTED = ("params", "basis", "projection", "lorenz", "dynamics", "spectral")
# the package's names when it listed them by hand; one goes only by a removal
# that CHANGES.md names
LISTED = {
    "PhysicalParams", "InadmissibleError", "ModeIndex", "ModeGrid", "QuadratureRule",
    "mode_eval", "weighted_inner_product", "GalerkinCoeffs", "ProjectionTermReport",
    "QuadratureConvergenceError", "coefficients", "oracle_coefficients",
    "closed_form_coefficients", "published_coefficients", "discrepancy_report",
    "LorenzParams", "ScalingMap", "StabilityReport", "LengthOptimum", "scale_to_lorenz",
    "critical_points", "origin_eigenvalues", "classify_rest_state", "critical_rayleigh",
    "minimize_over_length", "Trajectory", "IntegrationError", "integrate_reduced",
    "integrate_lorenz", "map_trajectory", "log_norm_slope",
    "amplitude_trend", "largest_lyapunov", "LinearOperatorPencil", "assemble_pencil",
    "leading_growth_rate", "critical_rayleigh_spectral", "__version__",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_and_star_imports(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()


def test_each_public_name_is_declared_once_and_the_package_reexports_it():
    package = importlib.import_module("anelor")
    declared = {home: importlib.import_module(f"anelor.{home}").__all__
                for home in REEXPORTED + ("cli",)}
    names = [name for listed in declared.values() for name in listed]
    assert len(names) == len(set(names))
    assert package.__all__ == [name for home in REEXPORTED for name in declared[home]] + [
        "__version__"]
    assert LISTED <= set(package.__all__) and len(LISTED) == 38
    for home in REEXPORTED:
        module = importlib.import_module(f"anelor.{home}")
        assert all(getattr(package, name) is getattr(module, name) for name in module.__all__)


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
