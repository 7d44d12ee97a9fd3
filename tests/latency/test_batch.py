"""LatencyBatch: family grouping and batched-calculus equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import LatencyDomainError, ModelError
from repro.latency import (
    BPRLatency,
    ConstantLatency,
    LatencyBatch,
    LatencyFunction,
    LinearLatency,
    MM1Latency,
    MonomialLatency,
    PolynomialLatency,
    ScaledLatency,
    ShiftedLatency,
)

MIXED = [
    LinearLatency(1.2, 0.3),
    ConstantLatency(1.5),
    MM1Latency(4.0),
    MonomialLatency(0.7, 3.0, 0.2),
    BPRLatency(1.0, 2.0),
    PolynomialLatency([0.1, 0.5, 0.0, 0.3]),
    ShiftedLatency(LinearLatency(0.8, 0.1), 0.4),
    ScaledLatency(MM1Latency(5.0), 2.0),
    ShiftedLatency(MonomialLatency(1.0, 2.0, 0.0), 0.25),
    ScaledLatency(ShiftedLatency(PolynomialLatency([0.2, 0.0, 0.4]), 0.3), 1.5),
]
LOADS = np.array([0.5, 1.0, 2.0, 0.8, 1.3, 0.2, 0.6, 1.1, 0.4, 0.9])


class SquareRootLatency(LatencyFunction):
    """A family the canonicaliser does not know -> generic bucket."""

    def value(self, x):
        return np.sqrt(x) + 1.0

    def derivative(self, x):
        return 0.5 / np.sqrt(np.maximum(x, 1e-300))

    def integral(self, x):
        return (2.0 / 3.0) * np.power(x, 1.5) + x


class TestGrouping:
    def test_families_are_detected(self):
        batch = LatencyBatch(MIXED)
        assert set(batch.family_names) == {"linear", "constant", "power",
                                           "mm1", "poly"}
        assert not batch.has_generic

    def test_constant_mask_matches_scalar_flags(self):
        batch = LatencyBatch(MIXED)
        expected = np.array([lat.is_constant for lat in MIXED])
        assert np.array_equal(batch.is_constant, expected)

    def test_unknown_subclass_goes_generic(self):
        batch = LatencyBatch([LinearLatency(1.0), SquareRootLatency()])
        assert batch.has_generic
        assert not batch.supports_newton

    def test_rejects_non_latency(self):
        with pytest.raises(ModelError):
            LatencyBatch([LinearLatency(1.0), object()])


class TestCalculusEquivalence:
    @pytest.mark.parametrize("method,scalar", [
        ("values", "value"),
        ("derivs", "derivative"),
        ("integrals", "integral"),
        ("marginals", "marginal_cost"),
    ])
    def test_vector_load_matches_scalar_loop(self, method, scalar):
        batch = LatencyBatch(MIXED)
        got = getattr(batch, method)(LOADS)
        want = np.array([float(getattr(lat, scalar)(x))
                         for lat, x in zip(MIXED, LOADS)])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_shared_scalar_load_matches_scalar_loop(self):
        batch = LatencyBatch(MIXED)
        got = batch.values(0.7)
        want = np.array([float(lat.value(0.7)) for lat in MIXED])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_values_at_zero_are_free_flow_latencies(self):
        batch = LatencyBatch(MIXED)
        want = np.array([lat.value_at_zero for lat in MIXED])
        np.testing.assert_allclose(batch.values_at_zero, want, rtol=1e-12)

    def test_generic_bucket_is_exact(self):
        lats = [SquareRootLatency(), LinearLatency(2.0, 0.1)]
        batch = LatencyBatch(lats)
        x = np.array([0.4, 0.9])
        np.testing.assert_allclose(
            batch.values(x), [float(lats[0].value(0.4)),
                              float(lats[1].value(0.9))])

    def test_mm1_domain_error_is_preserved(self):
        batch = LatencyBatch([MM1Latency(2.0), LinearLatency(1.0)])
        with pytest.raises(LatencyDomainError):
            batch.values(np.array([2.0, 0.0]))

    def test_total_cost_and_beckmann(self):
        batch = LatencyBatch(MIXED)
        want_cost = float(sum(x * float(lat.value(x))
                              for lat, x in zip(MIXED, LOADS)))
        want_beck = float(sum(float(lat.integral(x))
                              for lat, x in zip(MIXED, LOADS)))
        assert batch.total_cost(LOADS) == pytest.approx(want_cost, rel=1e-12)
        assert batch.beckmann(LOADS) == pytest.approx(want_beck, rel=1e-12)


class TestInverseEquivalence:
    @pytest.mark.parametrize("level", [0.3, 0.9, 1.7, 3.4])
    def test_inverse_values_match_scalar(self, level):
        batch = LatencyBatch(MIXED)
        got = batch.inverse_values(level)
        for i, lat in enumerate(MIXED):
            if lat.is_constant:
                assert got[i] == 0.0
            else:
                assert got[i] == pytest.approx(float(lat.inverse_value(level)),
                                               abs=1e-9)

    @pytest.mark.parametrize("level", [0.3, 0.9, 1.7, 3.4])
    def test_inverse_marginals_match_scalar(self, level):
        batch = LatencyBatch(MIXED)
        got = batch.inverse_marginals(level)
        for i, lat in enumerate(MIXED):
            if lat.is_constant:
                assert got[i] == 0.0
            else:
                assert got[i] == pytest.approx(
                    float(lat.inverse_marginal(level)), abs=1e-9)

    def test_inverse_below_free_flow_is_zero(self):
        batch = LatencyBatch(MIXED)
        floor = float(batch.values_at_zero.min())
        assert np.all(batch.inverse_values(floor - 1e-9) == 0.0)


class TestNewtonSupport:
    def test_smooth_families_support_newton(self):
        assert LatencyBatch(MIXED).supports_newton

    def test_fractional_power_between_one_and_two_is_excluded(self):
        batch = LatencyBatch([MonomialLatency(1.0, 1.5, 0.0)])
        assert not batch.supports_newton

    def test_second_derivatives_match_finite_differences(self):
        batch = LatencyBatch([lat for lat in MIXED if not lat.is_constant])
        x = np.full(batch.size, 0.8)
        h = 1e-6
        numeric = (batch.derivs(x + h) - batch.derivs(x - h)) / (2.0 * h)
        np.testing.assert_allclose(batch.second_derivs(x), numeric,
                                   rtol=1e-4, atol=1e-4)


class TestStackelbergFolding:
    def test_linear_shift_folds_into_affine_row(self):
        batch = LatencyBatch([ShiftedLatency(LinearLatency(2.0, 1.0), 0.5)])
        assert batch.family_names == ("linear",)
        assert batch.values(np.array([0.25]))[0] == pytest.approx(2.5)

    def test_mm1_shift_folds_into_capacity(self):
        shifted = ShiftedLatency(MM1Latency(4.0), 1.0)
        batch = LatencyBatch([shifted])
        assert batch.family_names == ("mm1",)
        np.testing.assert_allclose(batch.domain_upper, [3.0])
        assert batch.values(np.array([1.0]))[0] == pytest.approx(
            float(shifted.value(1.0)))

    def test_shifted_integral_subtracts_offset_part(self):
        shifted = ShiftedLatency(PolynomialLatency([0.1, 0.2, 0.4]), 0.7)
        batch = LatencyBatch([shifted])
        x = np.array([1.3])
        assert batch.integrals(x)[0] == pytest.approx(
            float(shifted.integral(1.3)), rel=1e-12)


class TestSubset:
    def test_subset_matches_rebuilt_batch(self):
        batch = LatencyBatch(MIXED)
        indices = [7, 0, 3, 2, 5]
        sub = batch.subset(indices)
        rebuilt = LatencyBatch([MIXED[i] for i in indices])
        loads = LOADS[: len(indices)]
        np.testing.assert_allclose(sub.values(loads), rebuilt.values(loads))
        np.testing.assert_allclose(sub.derivs(loads), rebuilt.derivs(loads))
        np.testing.assert_allclose(sub.integrals(loads),
                                   rebuilt.integrals(loads))
        assert sub.latencies == rebuilt.latencies

    def test_subset_preserves_generic_rows(self):
        links = [SquareRootLatency(), LinearLatency(1.0, 0.0), MM1Latency(3.0)]
        sub = LatencyBatch(links).subset([2, 0])
        loads = np.array([0.5, 0.25])
        expected = np.array([links[2].value(0.5), links[0].value(0.25)])
        np.testing.assert_allclose(sub.values(loads), expected)

    def test_subset_rejects_bad_indices(self):
        batch = LatencyBatch(MIXED)
        with pytest.raises(ModelError):
            batch.subset([])
        with pytest.raises(ModelError):
            batch.subset([0, 0])
        with pytest.raises(ModelError):
            batch.subset([len(MIXED)])

    def test_subset_level_profile_solves(self):
        from repro.equilibrium.parallel import water_fill, water_fill_reference

        batch = LatencyBatch(MIXED)
        indices = [0, 2, 3, 5]
        sub = batch.subset(indices)
        links = [MIXED[i] for i in indices]
        for kind in ("nash", "optimum"):
            flows, level = water_fill(links, 2.0, kind, batch=sub)
            ref_flows, ref_level = water_fill_reference(links, 2.0, kind)
            np.testing.assert_allclose(flows, ref_flows, atol=1e-9)
            assert level == pytest.approx(ref_level, abs=1e-9)
