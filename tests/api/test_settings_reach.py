"""One carrier for solver settings: ``SolveConfig`` reaches every solve.

* A bad ``config`` raises :class:`ModelError` at the API entry points.
* Every Frank–Wolfe and water-filling call a strategy makes receives the
  caller's settings.
* No public callable of the solver layers grows its own copy of a setting.
"""

from __future__ import annotations

import inspect
from unittest import mock

import pytest

import repro.baselines
import repro.core
import repro.equilibrium
import repro.metrics
from repro.api import SolveConfig, solve, solve_many
from repro.equilibrium import network as network_module
from repro.equilibrium import parallel as parallel_module
from repro.exceptions import ModelError
from repro.instances import braess_paradox, figure_4_example, pigou
from repro.serve import SolveService

STRATEGIES = ("optop", "llf", "scale", "aloof", "exact", "brute_force")


# --------------------------------------------------------------------------- #
# A bad config is refused where it enters
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("config", ["x", 1e-9, {"tolerance": 1e-9}])
def test_solve_rejects_a_non_config(config):
    with pytest.raises(ModelError, match="SolveConfig"):
        solve(pigou(), "optop", config=config)


def test_solve_many_rejects_a_non_config():
    with pytest.raises(ModelError, match="SolveConfig"):
        solve_many([pigou()], "optop", config="x")


def test_service_submit_rejects_a_non_config():
    with SolveService(max_wait_ms=1.0) as service:
        with pytest.raises(ModelError, match="SolveConfig"):
            service.submit(pigou(), "optop", config="x")


# --------------------------------------------------------------------------- #
# Settings reach every solve
# --------------------------------------------------------------------------- #
def _recording(target, calls):
    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return target(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_frank_wolfe_calls_get_the_config_settings(strategy):
    calls = []
    config = SolveConfig(backend="frank_wolfe", tolerance=1e-4,
                         max_iterations=7, cache=False)
    with mock.patch.object(network_module, "frank_wolfe",
                           _recording(network_module.frank_wolfe, calls)):
        solve(braess_paradox(), strategy, config=config)
    assert calls
    for args, _ in calls:
        options = args[2]
        assert options.tolerance == 1e-4
        assert options.max_iterations == 7


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_water_fill_calls_get_the_config_tolerance(strategy):
    calls = []
    config = SolveConfig(water_fill_tol=1e-6, brute_force_resolution=4,
                         cache=False)
    with mock.patch.object(parallel_module, "water_fill",
                           _recording(parallel_module.water_fill, calls)):
        solve(figure_4_example(), strategy, config=config)
    assert calls
    assert all(kwargs.get("tol") == 1e-6 for _, kwargs in calls)


# --------------------------------------------------------------------------- #
# No second copy of a setting in the solver layers
# --------------------------------------------------------------------------- #
#: Settings ``SolveConfig`` carries; a public solver-layer function or method
#: must not take them as parameters of its own.  (Result and option records
#: are classes, and only their methods are walked.)
SETTINGS = frozenset({"solver", "tolerance", "max_iterations", "tol",
                      "shortest_path_atol"})

#: The numeric kernels take their tolerances directly, and ``network_llf``
#: keeps ``solver``/``tolerance`` for callers that pass them by keyword.
EXEMPT = {
    "repro.equilibrium.parallel.water_fill": {"tol"},
    "repro.equilibrium.pathbased.path_based_flow": {"tol", "max_iterations"},
    "repro.baselines.network_ext.network_llf": {"solver", "tolerance"},
}


def _public_callables():
    for package in (repro.equilibrium, repro.core, repro.baselines,
                    repro.metrics):
        for name in package.__all__:
            obj = getattr(package, name)
            if inspect.isfunction(obj):
                yield f"{obj.__module__}.{obj.__qualname__}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{obj.__module__}.{member.__qualname__}", member


def test_solver_layers_take_settings_only_through_config():
    offenders = []
    for qualname, obj in _public_callables():
        params = set(inspect.signature(obj).parameters)
        extra = (params & SETTINGS) - EXEMPT.get(qualname, set())
        if extra:
            offenders.append(f"{qualname}: {sorted(extra)}")
    assert not offenders, offenders


def test_optop_has_no_atol():
    assert "atol" not in inspect.signature(repro.core.optop).parameters


@pytest.mark.parametrize("qualname", sorted(EXEMPT))
def test_exemptions_name_existing_parameters(qualname):
    """Every exemption still names a parameter that exists, so a stale
    entry cannot hide a later regrowth."""
    found = dict(_public_callables())
    assert qualname in found
    params = set(inspect.signature(found[qualname]).parameters)
    assert EXEMPT[qualname] <= params
