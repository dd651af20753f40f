import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpextremes import (
    DomainError,
    FractionalBrownian,
    LocallyStationary,
    NonStationary,
    ProfileTable,
    SpecValidationError,
    Stationary,
    ThresholdFamily,
    UnsupportedModelError,
    VectorProcessSpec,
    eval_correlation,
    gaussian_tail,
    validate_spec,
    variance_profile,
)


def make_nonstat(sigma_fn, horizon=1.0, alpha=1.0, a=1.0, beta=1.0, b_lower=0.0, b_upper=0.0):
    return NonStationary(
        sigma_profile=ProfileTable.from_function(sigma_fn, horizon, count=65),
        alpha=alpha,
        a=a,
        beta=beta,
        b_lower=b_lower,
        b_upper=b_upper,
        holder_G=4.0,
        holder_gamma=min(alpha, 1.0),
        holder_rho=0.5,
    )


class TestGaussianTail:
    def test_symmetry_point(self):
        assert gaussian_tail(0.0) == 0.5

    def test_erfc_oracle(self):
        # frozen from mpmath.erfc(3/sqrt(2))/2 at 50 digits
        assert gaussian_tail(3.0) == pytest.approx(1.3498980316300945e-3, rel=1e-12)

    def test_mills_ratio_far_tail(self):
        mills = math.exp(-32.0) / (math.sqrt(2 * math.pi) * 8.0)
        assert gaussian_tail(8.0) == pytest.approx(mills, rel=0.02)

    def test_high_accuracy_against_mpmath(self):
        # relative only (abs=0), so the far tail is checked too: the rounding
        # of x / sqrt(2) grows the relative error like x^2
        mpmath.mp.dps = 50
        for x in np.linspace(-37.0, 37.0, 149):
            exact = float(mpmath.erfc(mpmath.mpf(float(x)) / mpmath.sqrt(2)) / 2)
            rel = max(1e-14, 2e-16 * x * x)
            assert gaussian_tail(float(x)) == pytest.approx(exact, rel=rel, abs=0.0)

    @given(st.floats(-30.0, 30.0))
    def test_reflection_identity(self, x):
        assert gaussian_tail(x) + gaussian_tail(-x) == pytest.approx(1.0, abs=1e-15)

    def test_strictly_decreasing(self):
        # strict monotonicity where 1 - Psi is still representable in float64
        xs = np.linspace(-8, 8, 321)
        vals = gaussian_tail(xs)
        assert np.all(np.diff(vals) < 0)

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                gaussian_tail(bad)


class TestEvalCorrelation:
    def test_exponential_model_lag_one(self):
        coord = Stationary(1.0, 1.0)
        assert eval_correlation(coord, 0.0, 1.0, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_identity_at_equal_times(self):
        for coord in (Stationary(2.0, 0.7), FractionalBrownian(1.3)):
            assert eval_correlation(coord, 0.4, 0.4, 1.0) == 1.0

    def test_small_lag_expansion(self):
        coord = Stationary(1.0, 1.0)
        h = 0.01
        assert eval_correlation(coord, 0.0, h, 1.0) == pytest.approx(1.0 - h, abs=1e-4)

    def test_lag_ladder_curvature(self):
        # 1 - r(h) must behave like a |h|^kappa on a dyadic ladder
        coord = Stationary(0.7, 1.4)
        for k in range(4, 12):
            h = 2.0**-k
            ratio = (1.0 - eval_correlation(coord, 0.0, h, 1.0)) / (0.7 * h**1.4)
            assert ratio == pytest.approx(1.0, abs=0.01)

    def test_domain_error_outside_horizon(self):
        with pytest.raises(DomainError):
            eval_correlation(Stationary(1.0, 1.0), 0.0, 1.5, 1.0)

    def test_below_one_off_diagonal(self):
        coord = Stationary(0.5, 2.0)
        hs = np.linspace(1e-6, 1.0, 64)
        vals = [eval_correlation(coord, 0.0, h, 1.0) for h in hs]
        assert max(vals) < 1.0


class TestValidateSpec:
    def test_valid_stationary(self):
        spec = VectorProcessSpec((Stationary(1.0, 1.0),), 1.0)
        assert validate_spec(spec).ok

    def test_kappa_out_of_range(self):
        with pytest.raises(SpecValidationError) as exc:
            VectorProcessSpec((Stationary(1.0, 2.5),), 1.0)
        assert "kappa" in exc.value.failures[0]

    def test_nonpositive_a(self):
        with pytest.raises(SpecValidationError):
            VectorProcessSpec((Stationary(0.0, 1.0),), 1.0)

    def test_zero_upper_theta_warns(self):
        # g minimal at t0 = 0 but every declared b_upper is 0: theta_upper = 0
        c1 = make_nonstat(lambda t: 1.0, beta=2.0, b_upper=0.0)
        c2 = make_nonstat(lambda t: 1.0 / (1.0 + t * t), beta=2.0, b_upper=0.0)
        spec = VectorProcessSpec((c1, c2), 1.0)
        rep = validate_spec(spec)
        assert rep.ok
        assert any("theta_upper" in w for w in rep.warnings)

    def test_mismatched_beta_fails(self):
        c1 = make_nonstat(lambda t: 1.0 / (1.0 + t), beta=1.0, b_upper=1.0)
        c2 = make_nonstat(lambda t: 1.0 + t**2, beta=2.0, b_upper=-1.0)
        with pytest.raises(SpecValidationError) as exc:
            VectorProcessSpec((c1, c2), 1.0)
        assert "beta" in exc.value.failures[0]

    def test_negative_sigma_fails(self):
        coord = make_nonstat(lambda t: 1.0 - 2.0 * t)
        with pytest.raises(SpecValidationError):
            VectorProcessSpec((coord,), 1.0)


INVALID_SPECS = {
    "kappa": (lambda: (Stationary(1.0, 2.5),), "coord[0]: kappa=2.5 outside (0, 2]"),
    "a": (lambda: (Stationary(0.0, 1.0),), "coord[0]: a=0.0 must be positive"),
    "beta": (
        lambda: (
            make_nonstat(lambda t: 1.0 / (1.0 + t), beta=1.0, b_upper=1.0),
            make_nonstat(lambda t: 1.0 + t**2, beta=2.0, b_upper=-1.0),
        ),
        "non-stationary coordinates must share beta, got [1.0, 2.0]",
    ),
    "sigma": (
        lambda: (make_nonstat(lambda t: 1.0 - 2.0 * t),),
        "coord[0].sigma_profile: must be strictly positive on [0.0, 1.0]",
    ),
    "ambiguous": (
        lambda: (make_nonstat(lambda t: 1.0), make_nonstat(lambda t: 1.0)),
        "generalized variance has no unique minimizer: second local minimum at t=0.00390625 within tolerance of t=0",
    ),
    # a field that is not a number used to raise a bare TypeError
    "non-numeric-a": (lambda: (Stationary("1", 1.5),), "coord[0]: a must be a real number, got '1'"),
    # a fractional block count used to pass and then crash the sampler
    "fractional-block_count": (
        lambda: (LocallyStationary(ProfileTable.constant(1.0, 1.0), 1.0, 2.5),),
        "coord[0]: block_count must be an integer, got 2.5",
    ),
}


@pytest.mark.parametrize("name", INVALID_SPECS)
def test_constructor_raises_the_rule_failures(name):
    coords, failure = INVALID_SPECS[name]
    with pytest.raises(SpecValidationError) as exc:
        VectorProcessSpec(coords(), 1.0)
    assert exc.value.failures == [failure]
    assert str(exc.value) == failure


@pytest.mark.parametrize("horizon", ["1", None])
def test_non_numeric_horizon_is_a_rule_failure(horizon):
    with pytest.raises(SpecValidationError) as exc:
        VectorProcessSpec((Stationary(1.0, 1.0),), horizon)
    assert exc.value.failures == [f"horizon_T must be a real number, got {horizon!r}"]


def test_horizon_is_stored_as_a_float():
    assert type(VectorProcessSpec((Stationary(1.0, 1.0),), 2).horizon_T) is float


class TestVarianceProfile:
    def test_increasing_profile_minimum_at_left(self):
        c1 = make_nonstat(lambda t: 1.0)
        c2 = make_nonstat(lambda t: 1.0 / (1.0 + t), b_upper=1.0)
        spec = VectorProcessSpec((c1, c2), 1.0)
        prof = variance_profile(spec, scan_step=0.05)
        assert prof.t0 == 0.0
        assert prof.boundary_tag == "left"
        assert prof.g_min == pytest.approx(2.0, abs=1e-9)
        assert prof.theta_upper == pytest.approx(1.0, rel=1e-12)

    def test_constant_profile_is_ambiguous(self):
        with pytest.raises(SpecValidationError) as exc:
            VectorProcessSpec((make_nonstat(lambda t: 1.0), make_nonstat(lambda t: 1.0)), 1.0)
        assert "no unique minimizer" in exc.value.failures[0]

    def test_interior_minimum_refined(self):
        # sigma = 1/(1 + (t-0.4)^2) peaks at t=0.4, so g is minimal there
        coord = make_nonstat(lambda t: 1.0 / (1.0 + (t - 0.4) ** 2), beta=2.0, b_lower=1.0, b_upper=1.0)
        spec = VectorProcessSpec((coord,), 1.0)
        prof = variance_profile(spec, scan_step=0.05)
        assert prof.boundary_tag == "interior"
        assert prof.t0 == pytest.approx(0.4, abs=1e-4)

    def test_scan_step_precondition(self):
        spec = VectorProcessSpec((make_nonstat(lambda t: 1.0 / (1.0 + t), b_upper=1.0),), 1.0)
        with pytest.raises(DomainError):
            variance_profile(spec, scan_step=0.2)

    def test_requires_nonstationary(self):
        spec = VectorProcessSpec((Stationary(1.0, 1.0),), 1.0)
        with pytest.raises(DomainError):
            variance_profile(spec, scan_step=0.05)

    def test_theta_matches_curvature_slope(self):
        # g(t0+t) - g(t0) ~ 2 theta |t|^beta on a dyadic ladder (beta=1 here)
        c1 = make_nonstat(lambda t: 1.0)
        c2 = make_nonstat(lambda t: 1.0 / (1.0 + t), b_upper=1.0)
        spec = VectorProcessSpec((c1, c2), 1.0)
        prof = variance_profile(spec, scan_step=0.05)
        sig2 = lambda t: float(c2.sigma_profile(t)) ** 2
        g = lambda t: 1.0 + 1.0 / sig2(t)
        for k in range(4, 9):
            t = 2.0**-k
            slope = (g(prof.t0 + t) - prof.g_min) / (2.0 * t)
            assert slope == pytest.approx(prof.theta_upper, rel=0.05)


class TestThresholdFamily:
    def test_realize(self):
        fam = ThresholdFamily((1.0, 2.0), (0.5, -0.5))
        np.testing.assert_allclose(fam.realize(3.0), [3.5, 5.5])

    def test_limits_positive(self):
        with pytest.raises(DomainError):
            ThresholdFamily((1.0, 0.0))

    @pytest.mark.parametrize(
        "limits_c, offsets, field",
        [((math.nan, 1.0), (), "limits_c"), ((math.inf,), (0.0,), "limits_c"), ((1.0, 1.0), (math.inf, 0.0), "offsets")],
    )
    def test_entries_must_be_finite(self, limits_c, offsets, field):
        with pytest.raises(DomainError, match=f"^{field}"):
            ThresholdFamily(limits_c, offsets)

    @given(st.floats(1.0, 50.0))
    @settings(max_examples=25)
    def test_ratio_tends_to_c(self, u):
        fam = ThresholdFamily((2.0,), (1.0,))
        assert fam.realize(u)[0] / u == pytest.approx(2.0, abs=1.0 / u + 1e-12)


class TestProfileTable:
    def test_constant_and_spline(self):
        const = ProfileTable.constant(2.5, 1.0)
        assert const(0.3) == pytest.approx(2.5)
        tab = ProfileTable.from_function(lambda t: 1.0 / (1.0 + t), 1.0, count=65)
        ts = np.linspace(0, 1, 101)
        np.testing.assert_allclose(tab(ts), 1.0 / (1.0 + ts), atol=1e-7)

    def test_rejects_unsorted_nodes(self):
        with pytest.raises(DomainError):
            ProfileTable((0.0, 0.0), (1.0, 1.0))

    @pytest.mark.parametrize(
        "nodes, values",
        [((0.0, 1.0), (1.0, math.nan)), ((0.0, math.inf), (1.0, 1.0)), ((-math.inf,), (2.0,)), ((0.0,), (math.inf,))],
    )
    def test_entries_must_be_finite(self, nodes, values):
        with pytest.raises(DomainError, match="finite"):
            ProfileTable(nodes, values)


def test_variance_profile_rejects_fbm():
    spec = VectorProcessSpec((make_nonstat(lambda t: 1.0 / (1.0 + t), b_upper=1.0), FractionalBrownian(1.0)), 1.0)
    with pytest.raises(UnsupportedModelError):
        variance_profile(spec, scan_step=0.05)
