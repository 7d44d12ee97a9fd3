"""The reduced-gradient Newton step of path equilibration.

Each round of ``path_based_flow`` moves flow by a Newton step on the
restricted master problem.  The step eliminates every commodity's demand
row against a basic path and factors the reduced Hessian by Cholesky; the
full KKT system with one demand row per commodity, solved for its
minimum-norm solution, is the reference it must agree with.  These tests
check that:

* on random grids, layered graphs (at most 60 edges) and multicommodity
  grids, every Cholesky step moves the edge flows as the minimum-norm KKT
  step does, to ``1e-9`` relative;
* a rank-deficient reduced Hessian takes the minimum-norm fallback and
  the solve still certifies;
* ``auto`` never reaches Frank–Wolfe, however large the network.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgelss

import repro.equilibrium.network as network_module
import repro.equilibrium.pathbased as pathbased
from repro.equilibrium import network_nash, network_optimum, path_based_flow
from repro.instances import grid_network, layered_network
from repro.latency import ConstantLatency, LinearLatency
from repro.network import Network, NetworkInstance
from test_path_equilibration import grids, layered, multicommodity

#: Agreement of the Cholesky step with the minimum-norm KKT step, relative
#: to the larger of the step and the demand: near the certified point the
#: reduced gradient, and with it the step, is at the rounding level of the
#: path costs, where the two solves round differently.
DIRECTION_RTOL = 1e-9


def _kkt_direction(problem, curvature) -> np.ndarray:
    """The edge direction of the minimum-norm solution of the full KKT
    system: path Hessian ``A diag(g') A^T`` bordered by one demand row per
    commodity, solved by SVD with one step of iterative refinement."""
    sizes = np.array([len(m) for _, m, _ in problem])
    owner = np.repeat(np.arange(len(problem)), sizes)
    rows = np.concatenate([ws.incidence[m] for ws, m, _ in problem])
    costs = np.concatenate([c[m] for _, m, c in problem])
    demand_rows = (owner[:, None] == np.arange(len(problem))).astype(float)
    n = len(costs)
    kkt = np.zeros((n + len(problem), n + len(problem)))
    kkt[:n, :n] = (rows * curvature) @ rows.T
    kkt[:n, n:] = demand_rows
    kkt[n:, :n] = demand_rows.T
    rhs = np.zeros(len(kkt))
    rhs[:n] = -costs
    solution = dgelss(kkt, rhs, cond=1e-12)[1]
    solution += dgelss(kkt, rhs - kkt @ solution, cond=1e-12)[1]
    delta = solution[:n]
    delta -= demand_rows @ ((delta @ demand_rows) / sizes)
    return delta @ rows


def _spy_steps(instance, kind):
    """Solve ``instance`` and return, per Newton step, whether it took the
    minimum-norm fallback, its edge direction and the KKT reference."""
    steps = []
    fallbacks = []
    newton_step = pathbased._newton_step
    min_norm_solve = pathbased._min_norm_solve

    def counted(*args, **kwargs):
        fallbacks.append(True)
        return min_norm_solve(*args, **kwargs)

    def checked(problem, curvature):
        before = len(fallbacks)
        reference = _kkt_direction(problem, curvature)
        result = newton_step(problem, curvature)
        _, _, direction, _ = result
        steps.append((len(fallbacks) > before, direction, reference))
        return result

    with mock.patch.object(pathbased, "_newton_step", checked), \
            mock.patch.object(pathbased, "_min_norm_solve", counted):
        result = path_based_flow(instance, kind)
    assert result.relative_gap <= 1e-12
    return steps


@settings(max_examples=40, deadline=None)
@given(st.one_of(grids(), layered(), multicommodity()),
       st.sampled_from(("nash", "optimum")))
def test_cholesky_step_matches_the_minimum_norm_kkt_step(instance, kind):
    for fallback, direction, reference in _spy_steps(instance, kind):
        if fallback:
            continue
        scale = max(np.abs(reference).max(), instance.total_demand)
        np.testing.assert_allclose(direction, reference, rtol=0.0,
                                   atol=DIRECTION_RTOL * scale)


def _twin_routes() -> NetworkInstance:
    """Routes ``s-m-t`` and ``s-m-u-t`` differ only on constant edges, so
    they cost the same and the reduced Hessian of any problem holding both
    is singular; ``s-t`` is the third route."""
    network = Network()
    network.add_edge("s", "m", LinearLatency(1.0))
    network.add_edge("m", "t", ConstantLatency(1.0))
    network.add_edge("m", "u", ConstantLatency(0.5))
    network.add_edge("u", "t", ConstantLatency(0.5))
    network.add_edge("s", "t", LinearLatency(1.0, 1.0))
    return NetworkInstance.single_commodity(network, "s", "t", 1.0)


@pytest.mark.parametrize("kind", ["nash", "optimum"])
def test_a_singular_reduced_hessian_takes_the_minimum_norm_fallback(kind):
    instance = _twin_routes()
    # Both twins and the direct route are used, so all three are members.
    start = ((((0, 1), 0.5), ((0, 2, 3), 0.3), ((4,), 0.2)),)
    min_norm_solve = pathbased._min_norm_solve
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return min_norm_solve(*args, **kwargs)

    with mock.patch.object(pathbased, "_min_norm_solve", counted):
        result = path_based_flow(instance, kind, start=start)
    assert calls, "the singular step did not take the fallback"
    assert result.converged and result.relative_gap <= 1e-12
    # Half of the demand on the direct route: the Nash and the optimum of
    # ``x + 1`` against ``x + 1`` split the flow evenly.
    np.testing.assert_allclose(result.edge_flows[[0, 4]], [0.5, 0.5],
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("instance", [
    grid_network(7, 7, seed=1),
    layered_network(8, 8, seed=1),
], ids=["grid 7x7", "layered 8x8"])
def test_auto_never_reaches_frank_wolfe(instance):
    assert instance.network.num_edges > 60

    def forbidden(*args, **kwargs):
        raise AssertionError("auto reached Frank-Wolfe")

    with mock.patch.object(network_module, "frank_wolfe", forbidden):
        nash = network_nash(instance)
        optimum = network_optimum(instance, start=nash.path_flows)
    for result in (nash, optimum):
        assert result.solver == "path-based"
        assert result.relative_gap <= 1e-12
