import inspect
import math

import numpy as np
import pytest

from gpextremes import (
    AsymptoticApproximation,
    ClosedFormProvider,
    ConstantEstimate,
    ConstantProvider,
    DomainError,
    DriftSpec,
    MonteCarloProvider,
    NonStationary,
    PreconditionError,
    ProfileTable,
    ProviderError,
    RngStream,
    ScalingProvider,
    Stationary,
    LocallyStationary,
    ThresholdFamily,
    VarianceProfileReport,
    VectorProcessSpec,
    approx_locally_stationary,
    approx_nonstationary,
    case_i_leading_constant,
    closed_forms_n1,
    gaussian_tail,
    local_window_approx,
    order_stats_approx,
    theta_combination,
)

SQRT_PI = math.sqrt(math.pi)


class StubProvider(ConstantProvider):
    """Returns fixed values and records what was asked."""

    def __init__(self, pickands_value=1.0, piterbarg_value=2.0, window_value=3.0):
        self.calls = []
        self._p = pickands_value
        self._pit = piterbarg_value
        self._win = window_value

    def pickands(self, C):
        self.calls.append(("pickands", tuple(np.round(C, 12))))
        return ConstantEstimate(self._p, 0.0, (0.0, math.inf), 0.0, 0, "closed_form")

    def piterbarg(self, C, drift, variant):
        self.calls.append(("piterbarg", tuple(np.round(C, 12)), variant))
        return ConstantEstimate(self._pit, 0.0, (0.0, math.inf), 0.0, 0, "window")

    def window(self, C, drift, window):
        self.calls.append(("window", tuple(np.round(C, 12)), tuple(window)))
        return ConstantEstimate(self._win, 0.0, tuple(window), 0.0, 0, "window")


class RefusingProvider(ConstantProvider):
    pass


def make_nonstat(sigma_fn, alpha=1.0, a=1.0, beta=1.0, b_lower=0.0, b_upper=0.0, horizon=1.0):
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


class TestAssemble:
    def test_value_combines_factors(self):
        appr = AsymptoticApproximation.assemble("local_window", 2.0, 1.5, (3.0, 2.0), 4.0)
        expected = 2.0 * 4.0**1.5 * gaussian_tail(3.0) * gaussian_tail(2.0)
        assert appr.value_at_u == pytest.approx(expected, rel=1e-14)

    def test_rejects_nonpositive_leading(self):
        with pytest.raises(DomainError):
            AsymptoticApproximation.assemble("local_window", 0.0, 1.0, (1.0,), 1.0)

    # a scalar tail argument used to raise a bare TypeError, and a string
    # u power passed through float()
    @pytest.mark.parametrize(
        "u_power, tail_args",
        [(1.0, 3.0), (1.0, "33"), (1.0, None), (1.0, [[3.0]]), ("1", (3.0,)), (None, (3.0,))],
        ids=["scalar-tail", "string-tail", "none-tail", "nested-tail", "string-power", "none-power"],
    )
    def test_malformed_arguments_are_domain_errors(self, u_power, tail_args):
        with pytest.raises(DomainError):
            AsymptoticApproximation.assemble("x", 1.0, u_power, tail_args, 3.0)


class TestProviders:
    def test_closed_form_pickands(self):
        p = ClosedFormProvider(2.0)
        assert p.pickands(np.asarray([2.0])).value == pytest.approx(2.0 / SQRT_PI, rel=1e-14)

    def test_closed_form_window_uses_scaling(self):
        p = ClosedFormProvider(2.0)
        est = p.window(np.asarray([2.0]), DriftSpec.zero(1, 2.0), (0.0, 1.0))
        # amplitude folds into the window length: H_{CB}(S) = H_B(C^{2/kappa} S)
        assert est.value == pytest.approx(closed_forms_n1(1.0, 2, window_T=2.0), rel=1e-14)

    def test_closed_form_rejects_vector(self):
        with pytest.raises(ProviderError):
            ClosedFormProvider(1.0).pickands(np.asarray([1.0, 1.0]))

    def test_refusing_provider_raises(self):
        with pytest.raises(ProviderError):
            RefusingProvider().pickands(np.asarray([1.0]))

    def test_scaling_provider(self):
        base = ConstantEstimate(0.5, 0.01, (0.0, 8.0), 0.01, 1000, "slope")
        p = ScalingProvider([1.0, 1.0], base, kappa=1.0)
        est = p.pickands(np.asarray([3.0, 3.0]))
        assert est.value == pytest.approx(0.5 * 9.0, rel=1e-12)
        assert est.se == pytest.approx(0.01 * 9.0, rel=1e-12)
        with pytest.raises(ProviderError):
            p.pickands(np.asarray([1.0, 2.0]))

    def test_monte_carlo_provider_caches(self):
        p = MonteCarloProvider(1.0, RngStream(5), R=1000)
        a = p.pickands(np.asarray([1.0]))
        b = p.pickands(np.asarray([2.0]))
        # one cache entry, the unit direction's, serves both amplitudes
        assert len(p._cache) == 1
        assert b.value == pytest.approx(4.0 * a.value, rel=1e-14)
        assert b.diagnostics["scaled_by"] == 4.0

    def test_monte_carlo_provider_scales_a_direction(self):
        p = MonteCarloProvider(1.0, RngStream(5), R=1000)
        a = p.pickands([0.5, 1.0])
        b = p.pickands([1.0, 2.0])
        assert len(p._cache) == 1
        assert b.value == pytest.approx(4.0 * a.value, rel=1e-14)
        assert b.se == pytest.approx(4.0 * a.se, rel=1e-14)

    def test_monte_carlo_provider_arguments(self):
        assert list(inspect.signature(MonteCarloProvider).parameters) == ["kappa", "stream", "R", "workers"]

    @pytest.mark.parametrize("kappa", [1.0, 2.0])
    @pytest.mark.parametrize("C1", [0.3, 1.0, 1.7, 2.0, 1e-3, 123.456])
    def test_closed_form_pickands_is_closed_forms_n1(self, kappa, C1):
        est = ClosedFormProvider(kappa).pickands([C1])
        assert est.value == closed_forms_n1(C1, kappa)
        assert est.se == 0.0

    @pytest.mark.parametrize("C", ["1", None, True, [-1.0], [0.0, 0.0], ["1"], [True], [], [[1.0]]])
    def test_pickands_rejects_bad_amplitudes(self, C):
        with pytest.raises(DomainError):
            ClosedFormProvider(1.0).pickands(C)

    # a missing base used to raise a bare AttributeError, and a string value
    # a TypeError at the first lookup
    @pytest.mark.parametrize(
        "base",
        [
            None,
            0.5,
            ConstantEstimate("1", 0.01, (0.0, 8.0), 0.01, 1000, "slope"),
            ConstantEstimate(0.5, "0.01", (0.0, 8.0), 0.01, 1000, "slope"),
            ConstantEstimate(0.5, None, (0.0, 8.0), 0.01, 1000, "slope"),
            ConstantEstimate(0.0, 0.01, (0.0, 8.0), 0.01, 1000, "slope"),
            ConstantEstimate(math.nan, 0.01, (0.0, 8.0), 0.01, 1000, "slope"),
            ConstantEstimate(0.5, -0.01, (0.0, 8.0), 0.01, 1000, "slope"),
        ],
        ids=["none", "number", "string-value", "string-se", "none-se", "zero-value", "nan-value", "negative-se"],
    )
    def test_scaling_provider_rejects_a_malformed_base(self, base):
        with pytest.raises(DomainError):
            ScalingProvider([1.0], base, 1.0)

    def test_scaling_provider_from_a_non_unit_base(self):
        base = ConstantEstimate(2.0, 0.1, (0.0, 8.0), 0.01, 1000, "slope")
        p = ScalingProvider([2.0, 1.0], base, kappa=2.0)
        est = p.pickands([1.0, 0.5])
        assert est.value == pytest.approx(1.0, rel=1e-14)
        assert est.se == pytest.approx(0.05, rel=1e-14)
        with pytest.raises(ProviderError):
            p.pickands([1.0, 1.0])
        with pytest.raises(ProviderError):
            p.pickands([1.0])

    def test_monte_carlo_provider_key_is_numpy_independent(self):
        # the stream of a request is derived from repr(key), which must not show numpy scalar types
        from_numpy = MonteCarloProvider._key(
            "window", np.asarray([1.0, 0.5]), np.float64(1.5), (np.float64(0.0),), np.asarray([2.0]), np.int64(0), 1.0
        )
        from_python = MonteCarloProvider._key("window", [1.0, 0.5], 1.5, (0.0,), (2.0,), 0.0, 1.0)
        assert repr(from_numpy) == repr(from_python) == "('window', (1.0, 0.5), 1.5, (0.0,), (2.0,), 0.0, 1.0)"


class TestLocallyStationary:
    def test_stationary_unit_reduces_to_u2_psi(self):
        spec = VectorProcessSpec((Stationary(1.0, 1.0),), 1.0)
        fam = ThresholdFamily((1.0,))
        appr = approx_locally_stationary(spec, fam, 3.0, ClosedFormProvider(1.0))
        assert appr.regime == "locally_stationary"
        assert appr.u_power == 2.0
        assert appr.leading_constant == pytest.approx(1.0, rel=1e-9)
        assert appr.value_at_u == pytest.approx(9.0 * gaussian_tail(3.0), rel=1e-9)

    def test_kappa2_leading_constant(self):
        a = 2.0
        spec = VectorProcessSpec((Stationary(a, 2.0),), 1.5)
        fam = ThresholdFamily((1.0,))
        appr = approx_locally_stationary(spec, fam, 4.0, ClosedFormProvider(2.0))
        assert appr.leading_constant == pytest.approx(1.5 * math.sqrt(a) / SQRT_PI, rel=1e-9)
        assert appr.u_power == 1.0

    def test_constant_profile_matches_stationary(self):
        prof = ProfileTable.constant(1.0, 1.0)
        spec_ls = VectorProcessSpec((LocallyStationary(prof, 1.0),), 1.0)
        spec_st = VectorProcessSpec((Stationary(1.0, 1.0),), 1.0)
        fam = ThresholdFamily((1.0,))
        a = approx_locally_stationary(spec_ls, fam, 3.0, ClosedFormProvider(1.0))
        b = approx_locally_stationary(spec_st, fam, 3.0, ClosedFormProvider(1.0))
        assert a.leading_constant == pytest.approx(b.leading_constant, rel=1e-9)
        assert a.u_power == b.u_power

    def test_varying_profile_integral(self):
        # a(t) = (1+t)^2, kappa = 1: the limit constant is a(t), integral 7/3
        prof = ProfileTable.from_function(lambda t: (1.0 + t) ** 2, 1.0, count=65)
        spec = VectorProcessSpec((LocallyStationary(prof, 1.0),), 1.0)
        fam = ThresholdFamily((1.0,))
        appr = approx_locally_stationary(spec, fam, 3.0, ClosedFormProvider(1.0))
        assert appr.leading_constant == pytest.approx(7.0 / 3.0, rel=1e-4)

    def test_varying_profile_asks_one_direction(self):
        # every Simpson node's amplitude is a multiple of (1), so one estimate serves them all
        prof = ProfileTable.from_function(lambda t: (1.0 + t) ** 2, 1.0, count=65)
        spec = VectorProcessSpec((LocallyStationary(prof, 1.0),), 1.0)
        provider = MonteCarloProvider(1.0, RngStream(8), R=1000)
        appr = approx_locally_stationary(spec, ThresholdFamily((1.0,)), 3.0, provider)
        (unit,) = provider._cache.values()
        assert appr.leading_constant == pytest.approx(unit.value * 7.0 / 3.0, rel=1e-4)
        assert appr.diagnostics["integral_se"] == pytest.approx(unit.se * 4.0, rel=1e-3)

    def test_mixed_kappa_zeroes_slower_coordinates(self):
        # the rougher coordinate dominates; the smoother one enters with a = 0
        spec = VectorProcessSpec((Stationary(1.0, 1.0), Stationary(5.0, 2.0)), 1.0)
        fam = ThresholdFamily((1.0, 1.0))
        stub = StubProvider(pickands_value=0.7)
        appr = approx_locally_stationary(spec, fam, 3.0, stub)
        assert appr.u_power == 2.0
        kind, C = stub.calls[0][0], stub.calls[0][1]
        assert kind == "pickands" and C == (1.0, 0.0)
        assert appr.value_at_u == pytest.approx(0.7 * 9.0 * gaussian_tail(3.0) ** 2, rel=1e-9)

    def test_provider_error_propagates(self):
        spec = VectorProcessSpec((Stationary(1.0, 1.0), Stationary(1.0, 1.0)), 1.0)
        fam = ThresholdFamily((1.0, 1.0))
        with pytest.raises(ProviderError):
            approx_locally_stationary(spec, fam, 3.0, ClosedFormProvider(1.0))


class TestThetaTable:
    def test_boundary_dispatch(self):
        left = VarianceProfileReport(2.0, 0.0, "left", 0.5, 2.0)
        interior = VarianceProfileReport(2.0, 0.4, "interior", 0.5, 2.0)
        right = VarianceProfileReport(2.0, 1.0, "right", 0.5, 2.0)
        beta = 1.0
        assert theta_combination(left, beta) == pytest.approx(0.5)
        assert theta_combination(right, beta) == pytest.approx(2.0)
        assert theta_combination(interior, beta) == pytest.approx(2.5)

    def test_interior_unit_thetas(self):
        prof = VarianceProfileReport(2.0, 0.4, "interior", 1.0, 1.0)
        assert theta_combination(prof, 1.0) == pytest.approx(2.0)
        assert case_i_leading_constant(1.0, prof, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_beta_power(self):
        prof = VarianceProfileReport(2.0, 0.4, "interior", 4.0, 9.0)
        beta = 2.0
        assert theta_combination(prof, beta) == pytest.approx(0.5 + 1.0 / 3.0, rel=1e-14)


class TestNonstationary:
    def _profile(self, tag="left", tl=0.0, tu=1.0):
        t0 = {"left": 0.0, "interior": 0.4, "right": 1.0}[tag]
        return VarianceProfileReport(2.0, t0, tag, tl, tu)

    def test_case_iii_is_bare_tail_product(self):
        coord = make_nonstat(lambda t: 1.0 / (1.0 + t), alpha=1.0, beta=0.5, b_upper=1.0)
        spec = VectorProcessSpec((coord,), 1.0)
        appr = approx_nonstationary(spec, 3.0, self._profile(), RefusingProvider())
        assert appr.regime == "ns_case_iii"
        c = 1.0 / float(coord.sigma_profile(0.0))
        assert appr.value_at_u == gaussian_tail(c * 3.0)
        assert appr.u_power == 0.0 and appr.leading_constant == 1.0

    def test_case_i_assembly(self):
        coord = make_nonstat(lambda t: 1.0 / (1.0 + t), alpha=1.0, beta=2.0, b_upper=1.0)
        spec = VectorProcessSpec((coord,), 1.0)
        stub = StubProvider(pickands_value=0.9)
        appr = approx_nonstationary(spec, 3.0, self._profile(), stub)
        assert appr.regime == "ns_case_i"
        assert appr.u_power == pytest.approx(2.0 - 1.0)
        expected = 0.9 * 1.0 ** (-0.5) * math.gamma(1.5)
        assert appr.leading_constant == pytest.approx(expected, rel=1e-12)

    def test_case_ii_uses_piterbarg_variant(self):
        coord = make_nonstat(lambda t: 1.0 / (1.0 + t), alpha=1.0, beta=1.0, b_upper=1.0)
        spec = VectorProcessSpec((coord,), 1.0)
        stub = StubProvider(piterbarg_value=1.7)
        appr = approx_nonstationary(spec, 3.0, self._profile("left"), stub)
        assert appr.regime == "ns_case_ii"
        assert stub.calls[0][2] == "right"  # left-boundary minimizer: right window
        assert appr.value_at_u == pytest.approx(1.7 * gaussian_tail(3.0), rel=1e-12)
        stub2 = StubProvider()
        approx_nonstationary(spec, 3.0, self._profile("interior", tl=1.0), stub2)
        assert stub2.calls[0][2] == "two_sided"

    def test_theta_hypothesis_enforced(self):
        coord = make_nonstat(lambda t: 1.0 / (1.0 + t), alpha=1.0, beta=1.0, b_upper=1.0)
        spec = VectorProcessSpec((coord,), 1.0)
        bad = VarianceProfileReport(2.0, 0.0, "left", 0.0, 0.0)
        with pytest.raises(PreconditionError):
            approx_nonstationary(spec, 3.0, bad, StubProvider())

    def test_case_ii_provider_error_surfaces(self):
        coord = make_nonstat(lambda t: 1.0 / (1.0 + t), alpha=1.0, beta=1.0, b_upper=1.0)
        spec = VectorProcessSpec((coord,), 1.0)
        with pytest.raises(ProviderError):
            approx_nonstationary(spec, 3.0, self._profile(), RefusingProvider())

    def test_regime_continuity_of_u_power(self):
        alpha = 1.0
        coordf = lambda beta: make_nonstat(lambda t: 1.0 / (1.0 + t), alpha=alpha, beta=beta, b_upper=1.0)
        powers = []
        for beta in (1.5, 1.1, 1.01, 1.001):
            spec = VectorProcessSpec((coordf(beta),), 1.0)
            appr = approx_nonstationary(spec, 3.0, self._profile(), StubProvider())
            powers.append(appr.u_power)
        assert all(b > a for a, b in zip(powers, powers[1:])) is False  # decreasing toward 0
        assert powers[-1] == pytest.approx(0.0, abs=2e-3)

    def test_case_iii_ignores_curvature_params(self):
        # identical output whatever alpha > beta or the provider
        prof = self._profile()
        for alpha, a in ((1.0, 1.0), (1.5, 3.0)):
            coord = make_nonstat(lambda t: 1.0 / (1.0 + t), alpha=alpha, a=a, beta=0.5, b_upper=1.0)
            spec = VectorProcessSpec((coord,), 1.0)
            appr = approx_nonstationary(spec, 3.0, prof, RefusingProvider())
            assert appr.value_at_u == gaussian_tail(3.0)


class TestLocalWindow:
    def test_zero_drift_reduction(self):
        stub = StubProvider(window_value=2.5)
        appr = local_window_approx([1.0], 1.0, DriftSpec.zero(1), (0.0, 2.0), [3.0], 3.0, stub)
        assert appr.regime == "local_window"
        assert appr.value_at_u == pytest.approx(2.5 * gaussian_tail(3.0), rel=1e-12)
        assert stub.calls[0] == ("window", (1.0,), (0.0, 2.0))

    def test_kappa2_closed_form_window(self):
        appr = local_window_approx(
            [1.0], 2.0, DriftSpec.zero(1, 2.0), (0.0, 1.0), [4.0], 4.0, ClosedFormProvider(2.0)
        )
        assert appr.value_at_u == pytest.approx((1.0 + 1.0 / SQRT_PI) * gaussian_tail(4.0), rel=1e-12)

    def test_requires_positive_extent(self):
        with pytest.raises(DomainError):
            local_window_approx([1.0], 1.0, DriftSpec.zero(1), (0.0, 0.0), [3.0], 3.0, StubProvider())

    @pytest.mark.parametrize("window", [2.0, None, (0.0, 1.0, 5.0)])
    def test_window_must_be_a_pair(self, window):
        with pytest.raises(DomainError, match="pair"):
            local_window_approx([1.0], 1.0, DriftSpec.zero(1), window, [3.0], 3.0, StubProvider())
        with pytest.raises(DomainError, match="pair"):
            ClosedFormProvider(1.0).window([1.0], DriftSpec.zero(1), window)


class TestOrderStats:
    def test_r_equals_n(self):
        assert order_stats_approx(3, 3, 0.25) == pytest.approx(0.25)

    def test_max_of_two(self):
        assert order_stats_approx(2, 1, 0.1) == pytest.approx(0.2)

    def test_three_choose_two(self):
        assert order_stats_approx(3, 2, 0.1) == pytest.approx(0.3)

    def test_r_out_of_range(self):
        with pytest.raises(DomainError):
            order_stats_approx(3, 0, 0.1)
        with pytest.raises(DomainError):
            order_stats_approx(3, 4, 0.1)
