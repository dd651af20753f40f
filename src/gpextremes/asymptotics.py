"""Evaluation of the exact first-order tail formulas.

Each approximation is assembled as

    value_at_u = leading_constant * u^u_power * prod_i Psi(tail_args_i)

with the regime deciding the three factors: locally stationary horizons
integrate the limit constant of the frozen model over time and carry
u^(2/kappa); non-stationary horizons dispatch on the roughness exponent
alpha against the variance-curvature exponent beta (power u^(2/alpha-2/beta)
with the Gamma/Theta factor, a drifted-window constant, or the bare product
of tails); short windows multiply a window constant by the tail product.

Extremal constants are looked up through a provider so formula evaluation
is decoupled from estimation cost.  Every provider serves a limit constant
through ``ConstantProvider.pickands``, which applies self-similarity,
H(lambda C) = lambda^(2/kappa) H(C), to the provider's constant of the unit
direction C / max(C): closed-form, Monte Carlo cached per direction, or
one base estimate's direction.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import (
    ConstantEstimate,
    DriftSpec,
    _check_amplitudes,
    _check_window,
    closed_forms_n1,
    estimate_pickands,
    estimate_piterbarg,
    estimate_window_constant,
)
from .errors import DomainError, PreconditionError, ProviderError
from .parallel import require_count, require_real, require_stream
from .processes import (
    FractionalBrownian,
    LocallyStationary,
    NonStationary,
    Stationary,
    ThresholdFamily,
    VarianceProfileReport,
    VectorProcessSpec,
    gaussian_tail,
)
from .rng import RngStream

__all__ = [
    "AsymptoticApproximation",
    "ConstantProvider",
    "ClosedFormProvider",
    "MonteCarloProvider",
    "ScalingProvider",
    "approx_locally_stationary",
    "approx_nonstationary",
    "local_window_approx",
    "order_stats_approx",
    "theta_combination",
    "case_i_leading_constant",
]


@dataclass(frozen=True)
class AsymptoticApproximation:
    """One evaluated tail formula: leading constant, u power, tail arguments."""

    regime: str  # locally_stationary | ns_case_i | ns_case_ii | ns_case_iii | local_window
    leading_constant: float
    u_power: float
    tail_args: tuple
    value_at_u: float
    diagnostics: dict = field(default_factory=dict)

    @classmethod
    def assemble(cls, regime, leading_constant, u_power, tail_args, u, diagnostics=None):
        leading_constant = require_real(leading_constant, "leading constant", above=0)
        u_power = require_real(u_power, "u power")
        if isinstance(tail_args, str) or not np.iterable(tail_args):
            raise DomainError(f"tail arguments must be a sequence of numbers, got {tail_args!r}")
        tail_args = tuple(require_real(x, "tail argument") for x in tail_args)
        tails = float(np.prod([gaussian_tail(x) for x in tail_args]))
        value = leading_constant * require_real(u, "u") ** u_power * tails
        return cls(regime, leading_constant, u_power, tail_args, value, diagnostics or {})


# -- constant providers --------------------------------------------------------


class ConstantProvider:
    """Lookup interface for extremal constants; unavailable values raise ProviderError.

    :meth:`pickands` is the one home of self-similarity: with lambda = max(C)
    it asks the subclass for ``_unit_pickands(C / lambda)``, the constant of
    the unit direction, and returns it scaled by H(lambda C) =
    lambda^(2/kappa) H(C), with the factor as ``scaled_by`` in the
    diagnostics; the window and grid step stay those of the unit direction's
    estimate.  A subclass supplies ``_unit_pickands`` and its ``kappa``.
    """

    def pickands(self, C) -> ConstantEstimate:
        C = _check_amplitudes(C)
        lam = float(C.max())
        est = self._unit_pickands(C / lam)
        factor = lam ** (2.0 / self.kappa)
        return replace(
            est, value=est.value * factor, se=est.se * factor, diagnostics=dict(est.diagnostics, scaled_by=factor)
        )

    def _unit_pickands(self, direction) -> ConstantEstimate:
        raise ProviderError("this provider has no limit-constant path")

    def window(self, C, drift: DriftSpec, window) -> ConstantEstimate:
        raise ProviderError("this provider has no window-constant path")

    def piterbarg(self, C, drift: DriftSpec, variant: str) -> ConstantEstimate:
        raise ProviderError("this provider has no drifted-limit path")


class ClosedFormProvider(ConstantProvider):
    """Single-coordinate closed forms for kappa in {1, 2}; exact, se = 0."""

    def __init__(self, kappa):
        kappa = require_real(kappa, "kappa")
        if kappa not in (1.0, 2.0):
            raise ProviderError("closed forms exist only for kappa in {1, 2}")
        self.kappa = kappa

    def _unit_pickands(self, direction) -> ConstantEstimate:
        if direction.size != 1:
            raise ProviderError("closed forms cover a single coordinate only")
        value = closed_forms_n1(1.0, self.kappa)
        return ConstantEstimate(value, 0.0, (0.0, math.inf), 0.0, 0, "closed_form")

    def window(self, C, drift: DriftSpec, window) -> ConstantEstimate:
        C = _check_amplitudes(C)
        S1, S2 = _check_window(window)
        if C.size != 1 or S1 != 0.0:
            raise ProviderError("window closed forms cover [0, S] with one coordinate")
        if any(v != 0.0 for v in drift.d_lower + drift.d_upper):
            raise ProviderError("window closed forms are drift-free")
        # self-similarity moves a general amplitude into the window length
        scaled_T = float(C[0]) ** (2.0 / self.kappa) * S2
        value = closed_forms_n1(1.0, self.kappa, window_T=scaled_T)
        return ConstantEstimate(value, 0.0, (S1, S2), 0.0, 0, "closed_form")


# S ladders of the Pickands and Piterbarg constants a MonteCarloProvider estimates.
_PICKANDS_LADDER = (1.0, 2.0, 4.0, 8.0)
_PITERBARG_LADDER = (2.0, 4.0, 8.0, 16.0)


class MonteCarloProvider(ConstantProvider):
    """Estimating provider with per-key caching and key-derived streams.

    Streams are derived from a hash of the request, so cache misses hit the
    same numbers regardless of lookup order; repeated lookups are free.  A
    limit constant is estimated once per unit direction, so C and 2 C share
    one estimate; window and drifted-limit constants are keyed by their
    full request, since a drift does not scale with the amplitude alone.
    Every estimate uses its estimator's default grid step.
    """

    def __init__(self, kappa, stream: RngStream, R: int = 20_000, workers: int = 1):
        self.kappa = require_real(kappa, "kappa", above=0, at_most=2)
        require_stream(stream)
        self.stream = stream
        self.R = require_count(R, 0)
        self.workers = require_count(workers, 1, "workers")
        self._cache: dict = {}

    @staticmethod
    def _key(kind, *parts):
        """Cache key of a request, holding plain Python values only.

        :meth:`_cached` hashes ``repr(key)``, and a numpy scalar's repr
        depends on the numpy version (``np.float64(1.0)`` under numpy 2), so
        every number becomes a plain ``float`` rounded to 12 decimals.
        """

        def canonical(p):
            if np.ndim(p):
                return tuple(np.round(np.asarray(p, dtype=float), 12).tolist())
            if isinstance(p, numbers.Real):
                return round(float(p), 12)
            return p

        return (kind,) + tuple(canonical(p) for p in parts)

    def _cached(self, key, estimate, *args) -> ConstantEstimate:
        """``estimate(*args, ...)`` on the stream keyed by ``repr(key)``, computed once per key."""
        if key not in self._cache:
            self._cache[key] = estimate(
                *args,
                R=self.R,
                stream=self.stream.child("provider", repr(key)),
                workers=self.workers,
            )
        return self._cache[key]

    def _unit_pickands(self, direction) -> ConstantEstimate:
        key = self._key("pickands", direction)
        return self._cached(key, estimate_pickands, direction, self.kappa, _PICKANDS_LADDER)

    def window(self, C, drift: DriftSpec, window) -> ConstantEstimate:
        S1, S2 = _check_window(window)
        key = self._key("window", C, drift.exponent, drift.d_lower, drift.d_upper, S1, S2)
        return self._cached(key, estimate_window_constant, C, self.kappa, drift, window)

    def piterbarg(self, C, drift: DriftSpec, variant: str) -> ConstantEstimate:
        key = self._key("piterbarg", C, drift.exponent, drift.d_lower, drift.d_upper, variant)
        return self._cached(key, estimate_piterbarg, C, self.kappa, drift, variant, _PITERBARG_LADDER)


class ScalingProvider(ConstantProvider):
    """Serves the limit constants of one base estimate's direction.

    The base estimate of amplitude ``base_C`` is stored rescaled to the unit
    direction base_C / max(base_C); :meth:`ConstantProvider.pickands` then
    serves every positive multiple of ``base_C``.  Any other direction
    raises ProviderError.
    """

    def __init__(self, base_C, base_estimate: ConstantEstimate, kappa):
        self.kappa = require_real(kappa, "kappa", above=0, at_most=2)
        base_C = _check_amplitudes(base_C)
        if not isinstance(base_estimate, ConstantEstimate):
            raise DomainError(f"base_estimate must be a ConstantEstimate, got {base_estimate!r}")
        value = require_real(base_estimate.value, "base estimate value", above=0)
        se = require_real(base_estimate.se, "base estimate se", at_least=0)
        lam = float(base_C.max())
        self.direction = base_C / lam
        factor = lam ** (2.0 / self.kappa)
        self.base = replace(base_estimate, value=value / factor, se=se / factor)

    def _unit_pickands(self, direction) -> ConstantEstimate:
        if direction.shape != self.direction.shape or np.any(np.abs(direction - self.direction) > 1e-9):
            raise ProviderError("amplitude is not a positive scalar multiple of the base")
        return self.base


# -- locally stationary horizons ----------------------------------------------


def _active_curvature(spec: VectorProcessSpec):
    """(kappa_min, callable t -> a-vector with non-minimal coordinates zeroed)."""
    kappas = []
    for coord in spec.coords:
        if isinstance(coord, (Stationary, LocallyStationary)):
            kappas.append(coord.kappa)
        else:
            raise DomainError("locally stationary evaluation needs stationary or locally stationary coordinates")
    kappa = min(kappas)

    def a_of_t(t):
        out = np.empty(spec.n)
        for i, coord in enumerate(spec.coords):
            if kappas[i] != kappa:
                out[i] = 0.0
            elif isinstance(coord, Stationary):
                out[i] = coord.a
            else:
                out[i] = float(coord.a_profile(t))
        return out

    return kappa, a_of_t


# Simpson nodes of the first pass, node-doubling refinements at most, and the
# relative change between passes that counts as converged.
_INTEGRAL_NODES = 33
_INTEGRAL_REFINEMENTS = 3
_INTEGRAL_REL_TOL = 1e-3


def _integrate_limit_constant(provider, c, a_of_t, T):
    """Simpson integral of t -> H(c sqrt(a(t))) over [0, T], the provider queried at every node."""
    from scipy.integrate import simpson  # heavy import (pulls in scipy.optimize), kept off package load

    c = np.asarray(c, dtype=float)

    def node_values(ts):
        estimates = [provider.pickands(c * np.sqrt(a_of_t(t))) for t in ts]
        return np.asarray([est.value for est in estimates]), max(est.se for est in estimates)

    n = _INTEGRAL_NODES
    ts = np.linspace(0.0, T, n)
    vals, se_scale = node_values(ts)
    integral = float(simpson(vals, x=ts))
    for _ in range(_INTEGRAL_REFINEMENTS):
        n = 2 * (n - 1) + 1
        ts = np.linspace(0.0, T, n)
        vals, se_scale = node_values(ts)
        refined = float(simpson(vals, x=ts))
        converged = abs(refined - integral) < _INTEGRAL_REL_TOL * max(abs(refined), 1e-300)
        integral = refined
        if converged:
            break
    return integral, se_scale * T


def approx_locally_stationary(
    spec: VectorProcessSpec,
    thresholds: ThresholdFamily,
    u,
    constant_provider: ConstantProvider,
) -> AsymptoticApproximation:
    """First-order tail formula for (locally) stationary coordinates.

    value = (integral over [0,T] of the frozen-model limit constant)
            * u^(2/kappa) * prod_i Psi(f_i(u)).
    """
    u = require_real(u, "u", above=0)
    if len(thresholds.limits_c) != spec.n:
        raise DomainError("threshold family dimension must match the process")
    kappa, a_of_t = _active_curvature(spec)
    c = np.asarray(thresholds.limits_c)
    integral, int_se = _integrate_limit_constant(constant_provider, c, a_of_t, spec.horizon_T)
    f_u = thresholds.realize(u)
    return AsymptoticApproximation.assemble(
        "locally_stationary",
        integral,
        2.0 / kappa,
        f_u,
        u,
        diagnostics={"kappa": kappa, "integral_se": int_se},
    )


# -- non-stationary horizons ----------------------------------------------------


def theta_combination(profile: VarianceProfileReport, beta) -> float:
    """Boundary-aware combination of the one-sided curvature coefficients.

    t0 at the left end uses only theta_upper, at the right end only
    theta_lower, and interior minimizers add both reciprocal beta-powers.
    """
    beta = require_real(beta, "beta", above=0)
    if profile.boundary_tag == "left":
        return profile.theta_upper ** (-1.0 / beta)
    if profile.boundary_tag == "right":
        return profile.theta_lower ** (-1.0 / beta)
    return profile.theta_lower ** (-1.0 / beta) + profile.theta_upper ** (-1.0 / beta)


def case_i_leading_constant(limit_constant_value, profile: VarianceProfileReport, beta) -> float:
    """Leading constant H * Theta * Gamma(1/beta + 1) of the alpha < beta regime."""
    return float(limit_constant_value * theta_combination(profile, beta) * math.gamma(1.0 / beta + 1.0))


def _check_theta_hypothesis(profile: VarianceProfileReport):
    if profile.boundary_tag in ("interior", "right") and profile.theta_lower <= 0:
        raise PreconditionError("theta_lower must be positive for this minimizer location")
    if profile.boundary_tag in ("interior", "left") and profile.theta_upper <= 0:
        raise PreconditionError("theta_upper must be positive for this minimizer location")


def approx_nonstationary(
    spec: VectorProcessSpec,
    u,
    profile: VarianceProfileReport,
    constant_provider: ConstantProvider,
) -> AsymptoticApproximation:
    """Tail formula for a non-constant generalized variance, three regimes.

    alpha < beta: limit constant times Theta Gamma(1/beta+1) u^(2/alpha-2/beta);
    alpha = beta: the matching drifted window-constant limit;
    alpha > beta: exactly the product of coordinate tails.  Stationary
    coordinates may be mixed in (unit variance, zero curvature coefficients).
    """
    u = require_real(u, "u", above=0)
    alphas = []
    curvatures = []
    betas = []
    b_lower = []
    b_upper = []
    sigmas_t0 = []
    for coord in spec.coords:
        if isinstance(coord, NonStationary):
            alphas.append(coord.alpha)
            curvatures.append(coord.a)
            betas.append(coord.beta)
            b_lower.append(coord.b_lower)
            b_upper.append(coord.b_upper)
            sigmas_t0.append(float(coord.sigma_profile(profile.t0)))
        elif isinstance(coord, Stationary):
            alphas.append(coord.kappa)
            curvatures.append(coord.a)
            b_lower.append(0.0)
            b_upper.append(0.0)
            sigmas_t0.append(1.0)
        else:
            raise DomainError("non-stationary evaluation needs non-stationary or stationary coordinates")
    if not betas:
        raise DomainError("at least one non-stationary coordinate is required")
    beta = betas[0]
    _check_theta_hypothesis(profile)

    alpha = min(alphas)
    a_vec = np.asarray([a if al == alpha else 0.0 for a, al in zip(curvatures, alphas)])
    c = 1.0 / np.asarray(sigmas_t0)
    tail_args = c * u

    if alpha > beta:
        return AsymptoticApproximation.assemble(
            "ns_case_iii", 1.0, 0.0, tail_args, u, diagnostics={"alpha": alpha, "beta": beta}
        )
    if alpha < beta:
        limit = constant_provider.pickands(c * np.sqrt(a_vec))
        leading = case_i_leading_constant(limit.value, profile, beta)
        return AsymptoticApproximation.assemble(
            "ns_case_i",
            leading,
            2.0 / alpha - 2.0 / beta,
            tail_args,
            u,
            diagnostics={
                "alpha": alpha,
                "beta": beta,
                "theta_combination": theta_combination(profile, beta),
                "limit_constant": limit.value,
                "limit_constant_se": limit.se,
            },
        )
    drift = DriftSpec(
        alpha,
        tuple(ci**2 * b for ci, b in zip(c, b_lower)),
        tuple(ci**2 * b for ci, b in zip(c, b_upper)),
    )
    variant = {"left": "right", "interior": "two_sided", "right": "left"}[profile.boundary_tag]
    est = constant_provider.piterbarg(c * np.sqrt(a_vec), drift, variant)
    return AsymptoticApproximation.assemble(
        "ns_case_ii",
        est.value,
        0.0,
        tail_args,
        u,
        diagnostics={
            "alpha": alpha,
            "beta": beta,
            "variant": variant,
            "constant_se": est.se,
            "stopping_rule": est.diagnostics.get("stopping_rule"),
        },
    )


def local_window_approx(
    C_effective,
    kappa,
    drift: DriftSpec,
    window,
    thresholds_at_u,
    u,
    constant_provider: ConstantProvider,
) -> AsymptoticApproximation:
    """Short-window tail formula: window constant times the tail product."""
    kappa = require_real(kappa, "kappa", above=0, at_most=2)
    u = require_real(u, "u", above=0)
    S1, S2 = _check_window(window)
    if max(S1, S2) <= 0:
        raise DomainError("window must have positive extent")
    est = constant_provider.window(np.asarray(C_effective, dtype=float), drift, (S1, S2))
    return AsymptoticApproximation.assemble(
        "local_window",
        est.value,
        0.0,
        thresholds_at_u,
        u,
        diagnostics={"kappa": kappa, "window": (S1, S2), "constant_se": est.se},
    )


def order_stats_approx(n: int, r: int, base_prob_min_r: float) -> float:
    """Tail of the r-th order statistic from the min-of-r tail.

    The multiplier is n! / ((n-r)! r!) -- the number of ways to choose which
    r exchangeable coordinates exceed.
    """
    r = require_count(r, 1, "r")
    return math.comb(require_count(n, r, "n"), r) * require_real(base_prob_min_r, "base_prob_min_r", at_least=0)
