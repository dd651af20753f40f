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
is decoupled from estimation cost; providers may be closed-form, Monte
Carlo with caching, or scalar-scaled from a single base estimate.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy import special
from scipy.integrate import simpson

from .constants import (
    ConstantEstimate,
    DriftSpec,
    closed_forms_n1,
    estimate_pickands,
    estimate_piterbarg,
    estimate_window_constant,
)
from .errors import DomainError, PreconditionError, ProviderError
from .processes import (
    FractionalBrownian,
    LocallyStationary,
    NonStationary,
    Stationary,
    ThresholdFamily,
    VarianceProfileReport,
    VectorProcessSpec,
    ensure_valid,
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
        if not leading_constant > 0:
            raise DomainError(f"leading constant must be positive, got {leading_constant}")
        tail_args = tuple(float(x) for x in tail_args)
        tails = float(np.prod([gaussian_tail(x) for x in tail_args]))
        value = leading_constant * float(u) ** u_power * tails
        return cls(regime, float(leading_constant), float(u_power), tail_args, value, diagnostics or {})


# -- constant providers --------------------------------------------------------


class ConstantProvider:
    """Lookup interface for extremal constants; unavailable values raise ProviderError."""

    def pickands(self, C) -> ConstantEstimate:
        raise ProviderError("this provider has no limit-constant path")

    def window(self, C, drift: DriftSpec, window) -> ConstantEstimate:
        raise ProviderError("this provider has no window-constant path")

    def piterbarg(self, C, drift: DriftSpec, variant: str) -> ConstantEstimate:
        raise ProviderError("this provider has no drifted-limit path")


class ClosedFormProvider(ConstantProvider):
    """Single-coordinate closed forms for kappa in {1, 2}; exact, se = 0."""

    def __init__(self, kappa):
        if kappa not in (1, 2, 1.0, 2.0):
            raise ProviderError("closed forms exist only for kappa in {1, 2}")
        self.kappa = float(kappa)

    def pickands(self, C) -> ConstantEstimate:
        C = np.asarray(C, dtype=float)
        if C.size != 1:
            raise ProviderError("closed forms cover a single coordinate only")
        value = closed_forms_n1(float(C[0]), self.kappa)
        return ConstantEstimate(value, 0.0, (0.0, math.inf), 0.0, 0, "closed_form")

    def window(self, C, drift: DriftSpec, window) -> ConstantEstimate:
        C = np.asarray(C, dtype=float)
        S1, S2 = float(window[0]), float(window[1])
        if C.size != 1 or S1 != 0.0:
            raise ProviderError("window closed forms cover [0, S] with one coordinate")
        if any(v != 0.0 for v in drift.d_lower + drift.d_upper):
            raise ProviderError("window closed forms are drift-free")
        # self-similarity moves a general amplitude into the window length
        scaled_T = float(C[0]) ** (2.0 / self.kappa) * S2
        value = closed_forms_n1(1.0, self.kappa, window_T=scaled_T)
        return ConstantEstimate(value, 0.0, (S1, S2), 0.0, 0, "closed_form")


class MonteCarloProvider(ConstantProvider):
    """Estimating provider with per-key caching and key-derived streams.

    Streams are derived from a hash of the request, so cache misses hit the
    same numbers regardless of lookup order; repeated lookups are free.
    """

    def __init__(
        self,
        kappa,
        stream: RngStream,
        R: int = 20_000,
        S_ladder=(1.0, 2.0, 4.0, 8.0),
        piterbarg_ladder=(2.0, 4.0, 8.0, 16.0),
        grid_step=None,
        workers: int = 1,
    ):
        self.kappa = float(kappa)
        self.stream = stream
        self.R = int(R)
        self.S_ladder = tuple(S_ladder)
        self.piterbarg_ladder = tuple(piterbarg_ladder)
        self.grid_step = grid_step
        self.workers = int(workers)
        self._cache: dict = {}

    @staticmethod
    def _key(kind, *parts):
        """Cache key of a request, holding plain Python values only.

        ``_stream_for`` hashes ``repr(key)``, and a numpy scalar's repr
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

    def _stream_for(self, key) -> RngStream:
        return self.stream.child("provider", repr(key))

    def pickands(self, C) -> ConstantEstimate:
        key = self._key("pickands", C)
        if key not in self._cache:
            self._cache[key] = estimate_pickands(
                C,
                self.kappa,
                self.S_ladder,
                grid_step=self.grid_step,
                R=self.R,
                stream=self._stream_for(key),
                workers=self.workers,
            )
        return self._cache[key]

    def window(self, C, drift: DriftSpec, window) -> ConstantEstimate:
        key = self._key("window", C, drift.exponent, drift.d_lower, drift.d_upper, window[0], window[1])
        if key not in self._cache:
            self._cache[key] = estimate_window_constant(
                C,
                self.kappa,
                drift,
                window,
                grid_step=self.grid_step,
                R=self.R,
                stream=self._stream_for(key),
                workers=self.workers,
            )
        return self._cache[key]

    def piterbarg(self, C, drift: DriftSpec, variant: str) -> ConstantEstimate:
        key = self._key("piterbarg", C, drift.exponent, drift.d_lower, drift.d_upper, variant)
        if key not in self._cache:
            self._cache[key] = estimate_piterbarg(
                C,
                self.kappa,
                drift,
                variant,
                self.piterbarg_ladder,
                grid_step=self.grid_step,
                R=self.R,
                stream=self._stream_for(key),
                workers=self.workers,
            )
        return self._cache[key]


class ScalingProvider(ConstantProvider):
    """Serves limit constants proportional to one base estimate.

    Self-similarity gives H(lambda C) = lambda^(2/kappa) H(C); any request
    not a positive multiple of the base amplitude raises ProviderError.
    """

    def __init__(self, base_C, base_estimate: ConstantEstimate, kappa):
        self.base_C = np.asarray(base_C, dtype=float)
        self.base = base_estimate
        self.kappa = float(kappa)

    def pickands(self, C) -> ConstantEstimate:
        C = np.asarray(C, dtype=float)
        if C.shape != self.base_C.shape:
            raise ProviderError("amplitude dimension mismatch")
        active = self.base_C > 0
        if not np.array_equal(active, C > 0):
            raise ProviderError("zero pattern differs from the base amplitude")
        ratios = C[active] / self.base_C[active]
        lam = float(ratios[0])
        if lam <= 0 or np.any(np.abs(ratios - lam) > 1e-9 * lam):
            raise ProviderError("amplitude is not a positive scalar multiple of the base")
        factor = lam ** (2.0 / self.kappa)
        est = self.base
        return ConstantEstimate(
            est.value * factor,
            est.se * factor,
            est.window_S,
            est.grid_step,
            est.replications,
            est.estimator_tag,
            dict(est.diagnostics, scaled_by=factor),
        )


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


def _integrate_limit_constant(provider, c, kappa, a_of_t, T, rel_tol=1e-3, n0=33, max_refine=3):
    """Simpson integral of t -> H(c sqrt(a(t))) over [0, T].

    When the curvature vectors at the quadrature nodes are proportional the
    constant is looked up once and scaled by rho(t)^(1/kappa); otherwise the
    provider is queried per node.
    """
    c = np.asarray(c, dtype=float)

    def node_values(ts):
        a_nodes = np.stack([a_of_t(t) for t in ts])  # (len, n)
        active = a_nodes[0] > 0
        proportional = np.all((a_nodes > 0) == active[None, :])
        if proportional and active.any():
            base = a_nodes[0]
            ratios = a_nodes[:, active] / base[None, active]
            rho = ratios[:, 0]
            if np.all(np.abs(ratios - rho[:, None]) <= 1e-9 * np.abs(rho[:, None])):
                ref = provider.pickands(c * np.sqrt(base))
                return ref.value * rho ** (1.0 / kappa), ref.se * float(
                    np.abs(rho ** (1.0 / kappa)).max()
                )
        vals = []
        ses = []
        for t, a_vec in zip(ts, a_nodes):
            est = provider.pickands(c * np.sqrt(a_vec))
            vals.append(est.value)
            ses.append(est.se)
        return np.asarray(vals), float(max(ses))

    n = n0
    ts = np.linspace(0.0, T, n)
    vals, se_scale = node_values(ts)
    integral = float(simpson(vals, x=ts))
    for _ in range(max_refine):
        n = 2 * (n - 1) + 1
        ts = np.linspace(0.0, T, n)
        vals, se_scale = node_values(ts)
        refined = float(simpson(vals, x=ts))
        converged = abs(refined - integral) < rel_tol * max(abs(refined), 1e-300)
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
    ensure_valid(spec)
    u = float(u)
    if u <= 0:
        raise DomainError("u must be positive")
    if len(thresholds.limits_c) != spec.n:
        raise DomainError("threshold family dimension must match the process")
    kappa, a_of_t = _active_curvature(spec)
    c = np.asarray(thresholds.limits_c)
    integral, int_se = _integrate_limit_constant(constant_provider, c, kappa, a_of_t, spec.horizon_T)
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
    beta = float(beta)
    if profile.boundary_tag == "left":
        return profile.theta_upper ** (-1.0 / beta)
    if profile.boundary_tag == "right":
        return profile.theta_lower ** (-1.0 / beta)
    return profile.theta_lower ** (-1.0 / beta) + profile.theta_upper ** (-1.0 / beta)


def case_i_leading_constant(limit_constant_value, profile: VarianceProfileReport, beta) -> float:
    """Leading constant H * Theta * Gamma(1/beta + 1) of the alpha < beta regime."""
    return float(limit_constant_value * theta_combination(profile, beta) * special.gamma(1.0 / beta + 1.0))


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
    ensure_valid(spec)
    u = float(u)
    if u <= 0:
        raise DomainError("u must be positive")
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
    u = float(u)
    if u <= 0:
        raise DomainError("u must be positive")
    S1, S2 = float(window[0]), float(window[1])
    if max(S1, S2) <= 0:
        raise DomainError("window must have positive extent")
    est = constant_provider.window(np.asarray(C_effective, dtype=float), drift, (S1, S2))
    return AsymptoticApproximation.assemble(
        "local_window",
        est.value,
        0.0,
        np.asarray(thresholds_at_u, dtype=float),
        u,
        diagnostics={"kappa": float(kappa), "window": (S1, S2), "constant_se": est.se},
    )


def order_stats_approx(n: int, r: int, base_prob_min_r: float) -> float:
    """Tail of the r-th order statistic from the min-of-r tail.

    The multiplier is n! / ((n-r)! r!) -- the number of ways to choose which
    r exchangeable coordinates exceed.
    """
    n = int(n)
    r = int(r)
    if not 1 <= r <= n:
        raise DomainError(f"r={r} outside 1..{n}")
    base = float(base_prob_min_r)
    if base < 0:
        raise DomainError("base probability must be non-negative")
    return math.comb(n, r) * base
