"""One solve path: a report depends only on its instance, not on its batch.

``aloof`` instances that share one link system and differ only in demand
(the shape of a study demand axis or a burst of service requests) must
get, through ``solve_many`` and through a running ``SolveService``, exactly
the report ``solve`` gives each of them alone.
"""

from __future__ import annotations

import json

import pytest

from repro.api import SolveConfig, solve, solve_many
from repro.cache import LRUCache
from repro.instances import (
    random_linear_parallel,
    random_mixed_parallel,
    random_polynomial_parallel,
)
from repro.serve import SolveService

DEMANDS = (0.4, 1.3, 2.9, 5.5, 9.0, 14.0)

LINK_SYSTEMS = {
    "linear-6": lambda: random_linear_parallel(6, demand=1.0, seed=11),
    "linear-50": lambda: random_linear_parallel(50, demand=1.0, seed=12),
    "mixed-6": lambda: random_mixed_parallel(6, demand=1.0, seed=13),
    "mixed-50": lambda: random_mixed_parallel(50, demand=1.0, seed=14),
    "mixed-1000": lambda: random_mixed_parallel(1000, demand=1.0, seed=15),
    "polynomial-6": lambda: random_polynomial_parallel(6, demand=1.0,
                                                       seed=16),
    "polynomial-50": lambda: random_polynomial_parallel(50, demand=1.0,
                                                        seed=17),
}


def _batch(system):
    base = LINK_SYSTEMS[system]()
    return [base.with_demand(d) for d in DEMANDS]


def _comparable(report, *, drop_profile=False):
    data = json.loads(report.to_json())
    data.pop("wall_time")
    if drop_profile:
        data["metadata"].pop("profile")
    return data


def _alone(instances, config=None):
    return [_comparable(solve(inst, "aloof", config=config, cache=LRUCache()),
                        drop_profile=config is not None)
            for inst in instances]


def _through_service(instances, config):
    with SolveService() as service:
        futures = [service.submit(inst, "aloof", config=config)
                   for inst in instances]
        return [future.result(timeout=60) for future in futures]


@pytest.mark.parametrize("system", sorted(LINK_SYSTEMS))
def test_solve_many_reports_equal_single_solves(system):
    instances = _batch(system)
    reports = solve_many(instances, "aloof", max_workers=0,
                         cache=LRUCache())
    assert [_comparable(r) for r in reports] == _alone(instances)


@pytest.mark.parametrize("system", sorted(LINK_SYSTEMS))
def test_service_reports_equal_single_solves(system):
    instances = _batch(system)
    reports = _through_service(instances, SolveConfig())
    assert [_comparable(r) for r in reports] == _alone(instances)


def _assert_own_profile(report):
    """The profile times this report's two water fills and nothing else."""
    profile = report.metadata["profile"]
    assert profile["total_seconds"] == report.wall_time
    assert sorted(profile["phases"]) == ["water_fill[nash]",
                                         "water_fill[optimum]"]
    assert all(entry["calls"] == 1 for entry in profile["phases"].values())


@pytest.mark.parametrize("system", ["linear-6", "mixed-50"])
def test_profiled_solve_many_profiles_each_solve(system):
    instances = _batch(system)
    config = SolveConfig(profile=True)
    reports = solve_many(instances, "aloof", config=config, max_workers=0,
                         cache=LRUCache())
    for report in reports:
        _assert_own_profile(report)
    assert [_comparable(r, drop_profile=True) for r in reports] == \
        _alone(instances, config)


@pytest.mark.parametrize("system", ["linear-6", "mixed-50"])
def test_profiled_service_profiles_each_solve(system):
    instances = _batch(system)
    config = SolveConfig(profile=True)
    reports = _through_service(instances, config)
    for report in reports:
        _assert_own_profile(report)
    assert [_comparable(r, drop_profile=True) for r in reports] == \
        _alone(instances, config)
