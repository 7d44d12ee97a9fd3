"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
from unittest import mock

import pytest

from repro.equilibrium.parallel import water_fill_reference
from repro.instances import (
    braess_paradox,
    figure_4_example,
    pigou,
    random_affine_common_slope,
    random_linear_parallel,
    roughgarden_example,
)


@pytest.fixture
def pigou_instance():
    """Pigou's two-link example with unit demand."""
    return pigou()


@pytest.fixture
def figure4_instance():
    """The five-link instance of the paper's Figures 4-6."""
    return figure_4_example()


@pytest.fixture
def braess_instance():
    """The classic Braess paradox network."""
    return braess_paradox()


@pytest.fixture
def roughgarden_instance():
    """The paper's Figure 7 network (Roughgarden Example 6.5.1 structure)."""
    return roughgarden_example()


@pytest.fixture
def random_linear_instance():
    """A deterministic random 5-link instance with affine latencies."""
    return random_linear_parallel(5, demand=2.0, seed=123)


@pytest.fixture
def common_slope_instance():
    """A deterministic 4-link common-slope instance (Theorem 2.4 family)."""
    return random_affine_common_slope(4, demand=2.0, seed=7, slope=1.0)


@pytest.fixture
def reference_water_fill():
    """Swap the scalar water-filling oracle in for ``water_fill``.

    Returns a context-manager factory: ``with reference_water_fill(target)
    as calls:`` patches the module attribute ``target`` (by default the one
    ``parallel_nash``/``parallel_optimum`` call) with
    :func:`~repro.equilibrium.parallel.water_fill_reference` and records
    the ``kind`` of every routed call, so a test can check the swap took.
    """
    @contextlib.contextmanager
    def swap(target: str = "repro.equilibrium.parallel.water_fill"):
        calls = []

        def oracle(latencies, demand, kind, *, tol=1e-12, batch=None):
            calls.append(kind)
            return water_fill_reference(latencies, demand, kind, tol=tol,
                                        batch=batch)

        with mock.patch(target, oracle):
            yield calls

    return swap


def pytest_addoption(parser):
    """Register the golden-fixture refresh flag.

    ``pytest --update-golden`` rewrites the checked-in JSON tables under
    ``tests/fixtures/golden/`` from the current code instead of comparing
    against them; review the diff and commit deliberately (see
    tests/README.md).
    """
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite tests/fixtures/golden/*.json from the current code "
             "instead of asserting against it")


@pytest.fixture
def update_golden(request) -> bool:
    """Whether this run should rewrite golden fixtures."""
    return bool(request.config.getoption("--update-golden"))
