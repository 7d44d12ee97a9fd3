"""Tests of the top-level public API surface."""

from __future__ import annotations

import importlib
import inspect

import pytest

import repro
from repro import exceptions


class TestPublicSurface:
    def test_version_is_exposed(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"

    def test_core_entry_points_are_callables(self):
        for name in ("optop", "mop", "solve", "parallel_nash",
                     "parallel_optimum", "network_nash", "network_optimum",
                     "llf", "scale", "aloof", "price_of_anarchy"):
            assert callable(getattr(repro, name))

    def test_public_callables_have_docstrings(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not inspect.isclass(obj):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(name)
        assert not undocumented, f"undocumented public callables: {undocumented}"

    def test_public_classes_have_docstrings(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) and not (obj.__doc__ or "").strip():
                undocumented.append(name)
        assert not undocumented, f"undocumented public classes: {undocumented}"

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.baselines
        import repro.cli
        import repro.core
        import repro.equilibrium
        import repro.instances
        import repro.latency
        import repro.metrics
        import repro.network
        import repro.paths
        import repro.serialization
        import repro.utils


class TestRetiredInterfaces:
    """Deleted modules and names stay deleted: no compatibility shims.

    ``repro.cluster.bench`` was a second cluster benchmark (perfbench's
    ``cluster_stream`` workload is the one that remains) and
    ``repro.paths.enumeration`` had no caller in the package.
    """

    @pytest.mark.parametrize("module", ["repro.cluster.bench",
                                        "repro.paths.enumeration"])
    def test_module_does_not_import(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    @pytest.mark.parametrize("package, name", [
        ("repro.cluster", "run_cluster_bench"),
        ("repro.cluster", "ClusterBenchPass"),
        ("repro.cluster", "ClusterBenchResult"),
        ("repro.paths", "all_simple_paths"),
        ("repro.paths", "path_nodes"),
    ])
    def test_package_does_not_export(self, package, name):
        module = importlib.import_module(package)
        assert not hasattr(module, name)
        assert name not in module.__all__


class TestExceptionHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in ("ModelError", "LatencyDomainError", "InfeasibleFlowError",
                     "ConvergenceError", "StrategyError", "InstanceError"):
            assert issubclass(getattr(exceptions, name), exceptions.ReproError)

    def test_domain_error_is_a_model_error(self):
        assert issubclass(exceptions.LatencyDomainError, exceptions.ModelError)

    def test_convergence_error_carries_diagnostics(self):
        err = exceptions.ConvergenceError("no luck", iterations=7, residual=0.5)
        assert err.iterations == 7
        assert err.residual == 0.5

    def test_catching_the_base_class_catches_everything(self):
        with pytest.raises(exceptions.ReproError):
            raise exceptions.StrategyError("bad strategy")
