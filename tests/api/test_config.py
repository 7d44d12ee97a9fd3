"""SolveConfig validation and its threading through core/ and equilibrium/."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import EQUILIBRIUM_BACKENDS, SolveConfig
from repro.core.mop import mop
from repro.core.optop import optop
from repro.equilibrium.network import network_nash, network_optimum
from repro.equilibrium.parallel import parallel_nash, parallel_optimum
from repro.exceptions import ModelError


class TestValidation:
    def test_defaults_are_valid(self):
        config = SolveConfig()
        assert config.backend == "auto"
        assert config.cache is True

    @pytest.mark.parametrize("backend", EQUILIBRIUM_BACKENDS)
    def test_known_backends_accepted(self, backend):
        assert SolveConfig(backend=backend).backend == backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ModelError, match="backend"):
            SolveConfig(backend="simplex")

    @pytest.mark.parametrize("kwargs", [
        {"tolerance": 0.0},
        {"water_fill_tol": -1e-9},
        {"max_iterations": 0},
        {"alpha": 1.5},
        {"alpha": -0.1},
        {"brute_force_resolution": 0},
        {"water_fill_tol": "x"},
        {"tolerance": None},
        {"underload_atol": float("nan")},
        {"max_iterations": "many"},
        {"alpha": "half"},
        {"brute_force_resolution": [12]},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ModelError):
            SolveConfig(**kwargs)

    @pytest.mark.parametrize("name", ["max_iterations",
                                      "brute_force_resolution"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True])
    def test_integer_fields_reject_non_integers(self, name, value):
        with pytest.raises(ModelError, match=f"{name} must be an integer"):
            SolveConfig(**{name: value})

    def test_integer_fields_accept_numpy_integers(self):
        config = SolveConfig(max_iterations=np.int64(7),
                             brute_force_resolution=np.int32(4))
        assert config == SolveConfig(max_iterations=7,
                                     brute_force_resolution=4)
        assert config.to_json() == SolveConfig(
            max_iterations=7, brute_force_resolution=4).to_json()

    def test_round_trip(self):
        config = SolveConfig(backend="frank_wolfe", alpha=0.3, tolerance=1e-7)
        assert SolveConfig.from_json(config.to_json()) == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ModelError):
            SolveConfig.from_dict({"warp_speed": True})

    def test_retired_kernel_backend_key_rejected(self):
        # The kernel switch is gone: a config serialised with it is
        # refused, not silently read as a default config.
        data = SolveConfig().to_dict()
        data["kernel_backend"] = "reference"
        with pytest.raises(ModelError, match="kernel_backend"):
            SolveConfig.from_dict(data)

    def test_budget_defaults_to_half(self):
        assert SolveConfig().budget() == 0.5
        assert SolveConfig(alpha=0.2).budget() == 0.2
        assert SolveConfig().with_alpha(0.9).budget() == 0.9

    def test_backends(self):
        assert EQUILIBRIUM_BACKENDS == ("auto", "frank_wolfe")
        for backend in EQUILIBRIUM_BACKENDS:
            assert SolveConfig(backend=backend).network_solver() == backend

    @pytest.mark.parametrize("backend", ["parallel", "pathbased", "path",
                                         "frank-wolfe"])
    def test_retired_backend_names_rejected(self, backend):
        with pytest.raises(ModelError, match="backend"):
            SolveConfig(backend=backend)

    def test_default_json_is_pinned(self):
        # Cache keys and artifact addresses hash this text.
        assert SolveConfig().to_json() == (
            '{"alpha": null, "backend": "auto", "brute_force_resolution": 12, '
            '"cache": true, "compute_nash": true, "max_iterations": 20000, '
            '"shortest_path_atol": 1e-05, "tolerance": 1e-09, '
            '"underload_atol": 1e-08, "water_fill_tol": 1e-12}')


class TestThreading:
    def test_optop_accepts_config(self, pigou_instance):
        config = SolveConfig(underload_atol=1e-7, water_fill_tol=1e-10)
        via_config = optop(pigou_instance, config=config)
        assert via_config.beta == pytest.approx(optop(pigou_instance).beta,
                                                abs=1e-9)

    def test_mop_backend_selection(self, braess_instance):
        # Exact backends recover beta = 1 exactly; Frank-Wolfe only up to its
        # iterative accuracy, but all of them must induce the optimum cost.
        for backend, atol in (("auto", 1e-9), ("frank_wolfe", 1e-2)):
            result = mop(braess_instance, config=SolveConfig(backend=backend))
            assert result.beta == pytest.approx(1.0, abs=atol)
            assert result.induced_cost == pytest.approx(result.optimum_cost,
                                                        rel=1e-6)

    def test_network_solvers_accept_config(self, braess_instance):
        config = SolveConfig(backend="frank_wolfe", tolerance=1e-8)
        nash = network_nash(braess_instance, config=config)
        optimum = network_optimum(braess_instance, config=config)
        assert nash.cost == pytest.approx(2.0, abs=1e-4)
        assert optimum.cost == pytest.approx(1.5, abs=1e-4)

    def test_parallel_solvers_accept_config(self, pigou_instance):
        config = SolveConfig(water_fill_tol=1e-13)
        assert parallel_nash(pigou_instance, config=config).cost == \
            pytest.approx(1.0, abs=1e-9)
        assert parallel_optimum(pigou_instance, config=config).cost == \
            pytest.approx(0.75, abs=1e-9)
