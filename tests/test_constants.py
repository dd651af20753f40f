import math

import numpy as np
import pytest
from scipy import integrate, stats

from gpextremes import (
    ConvergenceError,
    DomainError,
    DriftSpec,
    RngStream,
    TruncationError,
    UnsupportedModelError,
    closed_forms_n1,
    estimate_discrete_zero,
    estimate_pickands,
    estimate_piterbarg,
    estimate_window_constant,
    pickands_bounds,
    piterbarg_lower_bound,
)

STREAM = RngStream(31_337)
SQRT_PI = math.sqrt(math.pi)


def zero_drift(n, kappa=1.0):
    return DriftSpec.zero(n, exponent=kappa)


class TestClosedForms:
    def test_limit_constants(self):
        assert closed_forms_n1(1.0, 1) == 1.0
        assert closed_forms_n1(1.0, 2) == pytest.approx(1.0 / SQRT_PI, rel=1e-15)
        assert closed_forms_n1(2.0, 2) == pytest.approx(2.0 / SQRT_PI, rel=1e-15)
        assert closed_forms_n1(2.0, 1) == pytest.approx(4.0, rel=1e-15)

    def test_window_values(self):
        assert closed_forms_n1(1.0, 2, window_T=2.0) == pytest.approx(1.0 + 2.0 / SQRT_PI, rel=1e-15)
        assert closed_forms_n1(1.0, 1, window_T=0.0) == pytest.approx(1.0, rel=1e-15)
        # hand evaluation of the smooth-window formula at T=1
        expected = 3.0 * stats.norm.cdf(math.sqrt(0.5)) + math.exp(-0.25) / SQRT_PI
        assert closed_forms_n1(1.0, 1, window_T=1.0) == pytest.approx(expected, rel=1e-14)
        assert closed_forms_n1(1.0, 1, window_T=1.0) == pytest.approx(2.7201, abs=5e-5)

    def test_unsupported_kappa(self):
        with pytest.raises(UnsupportedModelError):
            closed_forms_n1(1.0, 1.5)

    def test_window_requires_unit_amplitude(self):
        with pytest.raises(DomainError):
            closed_forms_n1(2.0, 1, window_T=1.0)


class TestPickandsBounds:
    def test_lower_n2_kappa1(self):
        lower, upper = pickands_bounds(2, [1.0, 1.0], 1.0)
        assert lower == pytest.approx(2.0 / 16.0, rel=1e-15)
        assert upper == pytest.approx(2.0 * 2.0 * (2.0 + math.sqrt(2.0 / (math.pi * math.e))), rel=1e-12)
        assert upper == pytest.approx(9.936, abs=5e-4)

    def test_upper_n1_kappa2_is_exact_constant(self):
        lower, upper = pickands_bounds(1, [1.0], 2.0)
        assert upper == pytest.approx(1.0 / SQRT_PI, rel=1e-15)
        assert lower == pytest.approx(1.0 / (4.0 * SQRT_PI), rel=1e-12)

    def test_upper_n2_kappa2(self):
        _, upper = pickands_bounds(2, [1.0, 1.0], 2.0)
        assert upper == pytest.approx(4.0 / SQRT_PI, rel=1e-15)

    def test_general_kappa_lower_only(self):
        lower, upper = pickands_bounds(2, [1.0, 2.0], 0.8)
        expected = 5.0 ** (1.0 / 0.8) / (4.0 ** (1.0 + 1.0 / 0.8) * math.gamma(1.0 / 0.8 + 1.0))
        assert lower == pytest.approx(expected, rel=1e-12)
        assert upper is None

    def test_non_unit_amplitude_has_no_upper(self):
        _, upper = pickands_bounds(1, [2.0], 2.0)
        assert upper is None


class TestPiterbargLowerBound:
    def test_right_variant_example(self):
        d = DriftSpec(1.0, (0.0,), (1.0,))
        assert piterbarg_lower_bound([1.0], 1.0, d, "right", 1.0) == pytest.approx(1.0 / math.e, rel=1e-15)

    def test_negative_components_clamp(self):
        d = DriftSpec(1.0, (0.0, 0.0), (-1.0, 2.0))
        val = piterbarg_lower_bound([1.0, 1.0], 1.0, d, "right", 1.0)
        assert val == pytest.approx(1.0 / (math.e * 2.0), rel=1e-15)

    def test_two_sided_example(self):
        d = DriftSpec(1.0, (1.0,), (1.0,))
        assert piterbarg_lower_bound([1.0], 1.0, d, "two_sided", 1.0) == pytest.approx(1.0 / math.e, rel=1e-15)

    def test_all_zero_drift_rejected(self):
        d = DriftSpec(1.0, (-1.0,), (0.0,))
        with pytest.raises(DomainError):
            piterbarg_lower_bound([1.0], 1.0, d, "right", 1.0)


class TestWindowConstant:
    def test_degenerate_window_is_one(self):
        est = estimate_window_constant([1.0], 1.0, zero_drift(1), (0.0, 0.0), R=0, stream=None)
        assert est.value == 1.0 and est.se == 0.0

    def test_kappa2_window_matches_closed_form(self):
        # linear-path case is evaluated by quadrature: exact up to grid bias
        est = estimate_window_constant(
            [1.0], 2.0, zero_drift(1, 2.0), (0.0, 1.0), R=8000, stream=STREAM.child("k2")
        )
        assert abs(est.value - (1.0 + 1.0 / SQRT_PI)) < max(3.0 * est.se, 1e-6)

    def test_kappa1_window_matches_closed_form(self):
        est = estimate_window_constant(
            [1.0], 1.0, zero_drift(1), (0.0, 1.0), R=20_000, stream=STREAM.child("k1")
        )
        assert abs(est.value - 2.72014) < 3.0 * est.se

    def test_deterministic(self):
        kwargs = dict(grid_step=1.0 / 64, R=2000, stream=RngStream(11, 8))
        a = estimate_window_constant([1.0, 1.0], 1.0, zero_drift(2), (0.0, 1.0), **kwargs)
        b = estimate_window_constant([1.0, 1.0], 1.0, zero_drift(2), (0.0, 1.0), **kwargs)
        assert a.value == b.value and a.se == b.se

    def test_worker_count_invariance(self):
        common = dict(grid_step=1.0 / 64, R=5000, stream=RngStream(11, 9))
        a = estimate_window_constant([1.0], 1.5, zero_drift(1, 1.5), (0.0, 1.0), workers=1, **common)
        b = estimate_window_constant([1.0], 1.5, zero_drift(1, 1.5), (0.0, 1.0), workers=8, **common)
        assert a.value == b.value and a.se == b.se

    def test_worker_count_invariance_n3(self):
        common = dict(grid_step=1.0 / 32, R=5000, stream=RngStream(11, 10))
        a = estimate_window_constant([1.0, 1.0, 1.0], 1.0, zero_drift(3), (0.0, 1.0), workers=1, **common)
        b = estimate_window_constant([1.0, 1.0, 1.0], 1.0, zero_drift(3), (0.0, 1.0), workers=2, **common)
        assert a.value == b.value and a.se == b.se

    def test_zero_amplitude_coordinate_drops_out(self):
        # the third coordinate is identically 0, so every EWV_3 equals the EWV_2 of the first two
        common = dict(grid_step=1.0 / 32, R=2048, stream=STREAM.child("c0"))
        three = estimate_window_constant([1.0, 1.0, 0.0], 1.0, zero_drift(3), (0.0, 1.0), **common)
        two = estimate_window_constant([1.0, 1.0], 1.0, zero_drift(2), (0.0, 1.0), **common)
        assert three.value == pytest.approx(two.value, rel=1e-12)
        assert three.se == pytest.approx(two.se, rel=1e-9)

    def test_subadditivity_small(self):
        h1 = estimate_window_constant([1.0], 1.0, zero_drift(1), (0.0, 1.0), R=10_000, stream=STREAM.child("s1"))
        h2 = estimate_window_constant([1.0], 1.0, zero_drift(1), (0.0, 2.0), R=10_000, stream=STREAM.child("s2"))
        pooled = math.hypot(h2.se, 2.0 * h1.se)
        assert h2.value <= 2.0 * h1.value + 3.0 * pooled

    def test_amplitude_and_r_preconditions(self):
        with pytest.raises(DomainError):
            estimate_window_constant([0.0], 1.0, zero_drift(1), (0.0, 1.0), R=2000, stream=STREAM)
        with pytest.raises(DomainError):
            estimate_window_constant([1.0], 1.0, zero_drift(1), (0.0, 1.0), R=500, stream=STREAM)


class TestPickandsEstimator:
    def test_kappa2_slope(self):
        est = estimate_pickands([1.0], 2.0, (1.0, 2.0, 4.0, 8.0), R=5000, stream=STREAM.child("p2"))
        assert est.estimator_tag == "slope"
        assert abs(est.value - 1.0 / SQRT_PI) < 1e-3

    def test_kappa1_slope(self):
        est = estimate_pickands([1.0], 1.0, (1.0, 2.0, 4.0, 8.0), R=20_000, stream=STREAM.child("p1"))
        assert abs(est.value - 1.0) < 0.10

    def test_ratio_sequence_reported(self):
        est = estimate_pickands([1.0], 2.0, (1.0, 2.0, 4.0), R=2000, stream=STREAM.child("pr"))
        diag = est.diagnostics
        assert len(diag["ratios"]) == 3
        assert diag["S_ladder"] == [1.0, 2.0, 4.0]

    def test_ladder_preconditions(self):
        with pytest.raises(DomainError):
            estimate_pickands([1.0], 1.0, (1.0, 2.0), R=2000, stream=STREAM)
        with pytest.raises(DomainError):
            estimate_pickands([1.0], 1.0, (2.0, 1.0, 4.0), R=2000, stream=STREAM)


class TestPiterbargEstimator:
    def test_strong_drift_boundary_layer(self):
        # sup of sqrt(2)B(t) - (1 + d)t is exponential(rate 1 + d - 1 ... ) in the
        # S -> infinity limit: E exp(sup) = mu/(mu-1) with mu = 1 + d
        d = 1000.0
        est = estimate_piterbarg(
            [1.0], 1.0, DriftSpec(1.0, (0.0,), (d,)), "right", (1.0, 2.0), R=20_000, stream=STREAM.child("sd")
        )
        mu = 1.0 + d
        assert abs(est.value - mu / (mu - 1.0)) < max(3.0 * est.se, 1e-4)
        assert abs(est.value - 1.0) < 2e-3

    def test_respects_lower_bound(self):
        drift = DriftSpec(1.0, (0.0,), (1.0,))
        est = estimate_piterbarg([1.0], 1.0, drift, "right", (2.0, 4.0, 8.0), R=20_000, stream=STREAM.child("lb"))
        bound = piterbarg_lower_bound([1.0], 1.0, drift, "right", 1.0)
        assert est.value + 3.0 * est.se >= bound

    def test_left_right_symmetry(self):
        drift_r = DriftSpec(1.0, (0.0,), (1.0,))
        drift_l = DriftSpec(1.0, (1.0,), (0.0,))
        er = estimate_piterbarg([1.0], 1.0, drift_r, "right", (2.0, 4.0, 8.0), R=20_000, stream=STREAM.child("sr"))
        el = estimate_piterbarg([1.0], 1.0, drift_l, "left", (2.0, 4.0, 8.0), R=20_000, stream=STREAM.child("sl"))
        assert abs(er.value - el.value) < 3.0 * math.hypot(er.se, el.se)

    def test_two_sided_reflection_symmetry(self):
        drift = DriftSpec(1.0, (1.0,), (1.0,))
        a = estimate_piterbarg([1.0], 1.0, drift, "two_sided", (2.0, 4.0, 8.0), R=20_000, stream=STREAM.child("ts"))
        b = estimate_piterbarg([1.0], 1.0, drift, "two_sided", (2.0, 4.0, 8.0), R=20_000, stream=STREAM.child("ts2"))
        assert abs(a.value - b.value) < 3.0 * math.hypot(a.se, b.se)

    def test_zero_drift_rung_equals_window(self):
        stream = STREAM.child("zdr2")
        drift = DriftSpec(1.0, (0.0,), (0.5,))
        pit = estimate_piterbarg([1.0], 1.0, drift, "right", (2.0, 4.0), R=4000, stream=stream, grid_step=1.0 / 64)
        S_conv = pit.diagnostics["converged_at_S"]
        win = estimate_window_constant(
            [1.0], 1.0, drift, (0.0, S_conv), R=4000, stream=stream, grid_step=1.0 / 64
        )
        assert pit.value == win.value and pit.se == win.se

    def test_drift_sum_preconditions(self):
        with pytest.raises(DomainError):
            estimate_piterbarg([1.0], 1.0, DriftSpec(1.0, (1.0,), (0.0,)), "right", (2.0, 4.0), R=2000, stream=STREAM)
        with pytest.raises(DomainError):
            estimate_piterbarg([1.0], 1.0, DriftSpec(1.0, (0.0,), (1.0,)), "two_sided", (2.0, 4.0), R=2000, stream=STREAM)

    def test_no_convergence_raises_with_sequence(self):
        with pytest.raises(ConvergenceError) as err:
            estimate_piterbarg(
                [1.0], 1.0, DriftSpec(1.0, (0.0,), (1.0,)), "right", (1.0,), R=2000, stream=STREAM.child("nc")
            )
        assert len(err.value.sequence) == 1


def discrete_zero_oracle_kappa2(u, horizon):
    """P(all lattice nodes stay non-positive) for linear paths t*xi with an
    exponential tilt, by quadrature over (xi, tilt)."""
    ks = np.arange(1, int(math.floor(horizon / u + 1e-9)) + 1) * u

    def integrand(x):
        margin = np.min(ks**2 - math.sqrt(2.0) * ks * x)
        if margin <= 0:
            return 0.0
        return stats.norm.pdf(x) * (1.0 - math.exp(-margin))

    val, _ = integrate.quad(np.vectorize(integrand), -12.0, 12.0, limit=200)
    return val


class TestDiscreteZero:
    def test_kappa2_rung_matches_quadrature(self):
        horizon = math.sqrt(40.0)
        est = estimate_discrete_zero([1.0], 2.0, (0.5, 0.25), horizon, R=40_000, stream=STREAM.child("dz"))
        u, value, se = est.diagnostics["rungs"][-1]
        oracle = discrete_zero_oracle_kappa2(0.25, horizon) / 0.25
        assert abs(value - oracle) < 3.0 * se

    def test_extrapolation_agrees_with_pickands_kappa2(self):
        horizon = math.sqrt(40.0)
        est = estimate_discrete_zero([1.0], 2.0, (0.4, 0.2, 0.1), horizon, R=60_000, stream=STREAM.child("dzx"))
        assert abs(est.value - 1.0 / SQRT_PI) < 4.0 * math.hypot(est.se, 0.002)

    def test_horizon_precondition(self):
        with pytest.raises(TruncationError):
            estimate_discrete_zero([1.0], 1.0, (0.5, 0.25), 10.0, R=2000, stream=STREAM)

    def test_empty_node_set(self):
        with pytest.raises(TruncationError):
            estimate_discrete_zero([1.0], 1.0, (50.0, 45.0), 40.0, R=2000, stream=STREAM)

    def test_ladder_must_decrease(self):
        with pytest.raises(DomainError):
            estimate_discrete_zero([1.0], 1.0, (0.25, 0.5), 40.0, R=2000, stream=STREAM)
