"""Process specifications and their scalar building blocks.

A vector process is a list of independent coordinate models on a common
horizon ``[0, T]``.  Stationary and locally stationary coordinates have
unit variance and correlation ``r(h) = exp(-a |h|^kappa)`` (frozen per
block for the locally stationary case); this family realizes the local
expansion ``r(h) = 1 - a|h|^kappa + o(|h|^kappa)`` exactly and stays
strictly below 1 away from the diagonal.  Non-stationary coordinates are
a positive standard-deviation profile times a unit-variance exponential-
correlation process.  A fractional Brownian coordinate is also available
for self-similar benchmarks.

A :class:`VectorProcessSpec` is valid by construction: its constructor runs
:func:`validate_spec` and raises :class:`SpecValidationError` on any
failure, so every operation that takes a spec may rely on the structural
hypotheses of the limit theory without checking them again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

from .errors import AmbiguousMinimumError, DomainError, SpecValidationError, UnsupportedModelError
from .parallel import require_count, require_real, require_real_array

__all__ = [
    "ProfileTable",
    "Stationary",
    "LocallyStationary",
    "NonStationary",
    "FractionalBrownian",
    "CoordinateSpec",
    "VectorProcessSpec",
    "ThresholdFamily",
    "ValidationReport",
    "VarianceProfileReport",
    "gaussian_tail",
    "validate_spec",
    "variance_profile",
    "eval_correlation",
    "coord_variance",
    "coord_covariance",
]


_erfc = np.vectorize(math.erfc, otypes=[float])


def gaussian_tail(x):
    """Upper tail probability of a standard normal variable.

    Accepts scalars or arrays; every entry must be finite.  Computed as
    erfc(x / sqrt(2)) / 2 with the C library's ``erfc``.  The relative error
    is below 1e-14 for |x| <= 7 and below 2e-16 * x^2 beyond, from the
    rounding of x / sqrt(2) (about 1.7e-13 at x = 35.5), until the result
    underflows into subnormals (around x = 37.6).
    """
    arr = require_real_array(x, "gaussian_tail input")
    if not np.all(np.isfinite(arr)):
        raise DomainError("gaussian_tail requires finite input")
    out = 0.5 * _erfc(arr / math.sqrt(2.0))
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


@dataclass(frozen=True)
class ProfileTable:
    """Positive function on an interval, given as (node, value) pairs.

    Evaluation is a natural cubic spline through the table (linear for two
    nodes, constant for one), so configs and code see the same analytic
    function.
    """

    nodes: tuple
    values: tuple

    def __post_init__(self):
        nodes = tuple(require_real(t, "ProfileTable nodes") for t in self.nodes)
        values = tuple(require_real(v, "ProfileTable values") for v in self.values)
        if len(nodes) != len(values) or not nodes:
            raise DomainError("ProfileTable needs matching, non-empty nodes and values")
        if any(b <= a for a, b in zip(nodes, nodes[1:])):
            raise DomainError("ProfileTable nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, value, horizon):
        return cls((0.0, horizon), (value, value))

    @classmethod
    def from_function(cls, fn, horizon, count=33):
        ts = np.linspace(0.0, float(horizon), count)
        return cls(tuple(ts), tuple(float(fn(t)) for t in ts))

    @cached_property
    def _spline(self):
        if len(self.nodes) == 1:
            return None
        from scipy.interpolate import CubicSpline  # heavy import, kept off package load

        bc = "not-a-knot" if len(self.nodes) >= 4 else "natural"
        return CubicSpline(self.nodes, self.values, bc_type=bc)

    def __call__(self, t):
        if self._spline is None:
            out = np.full_like(np.asarray(t, dtype=float), self.values[0])
            return float(out) if out.ndim == 0 else out
        out = self._spline(np.asarray(t, dtype=float))
        return float(out) if out.ndim == 0 else out

    @property
    def span(self):
        return self.nodes[0], self.nodes[-1]


@dataclass(frozen=True)
class Stationary:
    """Unit-variance coordinate with correlation exp(-a |h|^kappa)."""

    a: float
    kappa: float


@dataclass(frozen=True)
class LocallyStationary:
    """Unit-variance coordinate whose curvature a(t) varies along the horizon.

    Sampling freezes a(t) on ``block_count`` equal blocks of the horizon, the
    same localization the limit theory uses; refinement of the blocks
    controls the bias.
    """

    a_profile: ProfileTable
    kappa: float
    block_count: int = 32


@dataclass(frozen=True)
class NonStationary:
    """Coordinate sigma(t) * Z(t) with Z unit-variance, exp(-a |h|^alpha) correlated.

    ``beta``, ``b_lower``, ``b_upper`` describe the one-sided power behaviour
    of 1 - sigma(t0+t)/sigma(t0) at the variance-profile minimizer; the
    holder_* fields bound max_i E (X_i(t) - X_i(s))^2 <= G |t-s|^gamma near t0.
    """

    sigma_profile: ProfileTable
    alpha: float
    a: float
    beta: float
    b_lower: float
    b_upper: float
    holder_G: float
    holder_gamma: float
    holder_rho: float


@dataclass(frozen=True)
class FractionalBrownian:
    """Fractional Brownian coordinate with variance t^kappa (Hurst kappa/2)."""

    kappa: float


CoordinateSpec = Union[Stationary, LocallyStationary, NonStationary, FractionalBrownian]


@dataclass(frozen=True)
class VectorProcessSpec:
    """n independent coordinates on a shared horizon [0, T], valid by construction.

    The constructor runs :func:`validate_spec` and raises
    :class:`SpecValidationError` with its failures, so a spec that exists
    satisfies every structural constraint; the warnings are not raised.
    """

    coords: tuple
    horizon_T: float

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        failures = validate_spec(self).failures
        if failures:
            raise SpecValidationError(failures)
        object.__setattr__(self, "horizon_T", float(self.horizon_T))

    @property
    def n(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class ThresholdFamily:
    """Linear threshold family f_i(u) = c_i * u + offset_i with finite c > 0 and offsets."""

    limits_c: tuple
    offsets: tuple = ()

    def __post_init__(self):
        c = tuple(require_real(v, "limits_c", above=0) for v in self.limits_c)
        offs = tuple(require_real(v, "offsets") for v in self.offsets) if self.offsets else (0.0,) * len(c)
        if len(offs) != len(c):
            raise DomainError("offsets must match limits_c in length")
        object.__setattr__(self, "limits_c", c)
        object.__setattr__(self, "offsets", offs)

    def realize(self, u) -> np.ndarray:
        return np.asarray(self.limits_c) * require_real(u, "u") + np.asarray(self.offsets)


# -- scalar model evaluation -------------------------------------------------


def coord_variance(coord, t):
    """Model variance of a coordinate at time(s) t."""
    t = np.asarray(t, dtype=float)
    if isinstance(coord, (Stationary, LocallyStationary)):
        out = np.ones_like(t)
    elif isinstance(coord, NonStationary):
        out = np.asarray(coord.sigma_profile(t)) ** 2
    elif isinstance(coord, FractionalBrownian):
        out = np.abs(t) ** coord.kappa
    else:
        raise UnsupportedModelError(f"unknown coordinate type {type(coord)!r}")
    return float(out) if out.ndim == 0 else out


def coord_covariance(coord, s, t):
    """Model covariance Cov(X(s), X(t)) of a coordinate."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    h = np.abs(t - s)
    if isinstance(coord, Stationary):
        out = np.exp(-coord.a * h**coord.kappa)
    elif isinstance(coord, LocallyStationary):
        a_mid = np.asarray(coord.a_profile((s + t) / 2.0))
        out = np.exp(-a_mid * h**coord.kappa)
    elif isinstance(coord, NonStationary):
        sig = coord.sigma_profile
        out = np.asarray(sig(s)) * np.asarray(sig(t)) * np.exp(-coord.a * h**coord.alpha)
    elif isinstance(coord, FractionalBrownian):
        k = coord.kappa
        out = 0.5 * (np.abs(s) ** k + np.abs(t) ** k - h**k)
    else:
        raise UnsupportedModelError(f"unknown coordinate type {type(coord)!r}")
    return float(out) if np.ndim(out) == 0 else out


def eval_correlation(coord, s, t, horizon_T):
    """Correlation of a coordinate at (s, t); both must lie in [0, T].

    Equals 1 exactly iff s == t (a fractional Brownian coordinate at the
    origin is degenerate and correlates 0 with every other time).
    """
    T = require_real(horizon_T, "horizon_T")
    s, t = require_real(s, "s", at_least=0.0, at_most=T), require_real(t, "t", at_least=0.0, at_most=T)
    if s == t:
        return 1.0
    vs = coord_variance(coord, s)
    vt = coord_variance(coord, t)
    if vs == 0.0 or vt == 0.0:
        return 0.0
    return float(coord_covariance(coord, s, t) / math.sqrt(vs * vt))


# -- validation ---------------------------------------------------------------


@dataclass
class ValidationReport:
    failures: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _in_unit_interval(x):
    return 0.0 < x <= 2.0


# The fields of each coordinate type that must be finite real numbers.
_REAL_FIELDS = {
    Stationary: ("a", "kappa"),
    LocallyStationary: ("kappa",),
    NonStationary: ("alpha", "a", "beta", "b_lower", "b_upper", "holder_G", "holder_gamma", "holder_rho"),
    FractionalBrownian: ("kappa",),
}


def _passes(failures, check, *args):
    """True when ``check(*args)`` passes; otherwise its :class:`DomainError` message joins ``failures``."""
    try:
        check(*args)
    except DomainError as exc:
        failures.append(str(exc))
        return False
    return True


def _check_profile_positive(profile, lo, hi, label, failures):
    a, b = profile.span
    if a > lo + 1e-12 or b < hi - 1e-12:
        failures.append(f"{label}: table [{a}, {b}] does not cover [{lo}, {hi}]")
        return
    ts = np.linspace(lo, hi, max(65, 2 * len(profile.nodes)))
    if np.min(profile(ts)) <= 0.0:
        failures.append(f"{label}: must be strictly positive on [{lo}, {hi}]")


def validate_spec(spec: VectorProcessSpec) -> ValidationReport:
    """Check the structural constraints every downstream operation assumes.

    Returns a report with hard failures (parameter ranges, positivity,
    shared beta, unique variance minimizer) and warnings (a vanishing
    one-sided curvature coefficient makes the non-stationary limit theorem
    inapplicable on that side).  The :class:`VectorProcessSpec` constructor
    runs this rule and raises on its failures, so a constructed spec
    reports none and only its warnings remain to be read.
    """
    rep = ValidationReport()
    if spec.n < 1:
        rep.failures.append("spec needs at least one coordinate")
        return rep
    T = spec.horizon_T
    if not _passes(rep.failures, require_real, T, "horizon_T"):
        return rep
    if not T > 0:
        rep.failures.append(f"horizon_T must be positive and finite, got {T}")
        return rep

    betas = []
    for i, coord in enumerate(spec.coords):
        tag = f"coord[{i}]"
        fields = next((names for kind, names in _REAL_FIELDS.items() if isinstance(coord, kind)), ())
        # a list, not a generator: each field that is not a number is a failure
        if not all([_passes(rep.failures, require_real, getattr(coord, f), f"{tag}: {f}") for f in fields]):
            continue
        if isinstance(coord, Stationary):
            if not _in_unit_interval(coord.kappa):
                rep.failures.append(f"{tag}: kappa={coord.kappa} outside (0, 2]")
            if not coord.a > 0:
                rep.failures.append(f"{tag}: a={coord.a} must be positive")
        elif isinstance(coord, LocallyStationary):
            if not _in_unit_interval(coord.kappa):
                rep.failures.append(f"{tag}: kappa={coord.kappa} outside (0, 2]")
            _passes(rep.failures, require_count, coord.block_count, 1, f"{tag}: block_count")
            _check_profile_positive(coord.a_profile, 0.0, T, f"{tag}.a_profile", rep.failures)
        elif isinstance(coord, NonStationary):
            if not _in_unit_interval(coord.alpha):
                rep.failures.append(f"{tag}: alpha={coord.alpha} outside (0, 2]")
            if not coord.a > 0:
                rep.failures.append(f"{tag}: a={coord.a} must be positive")
            if not coord.beta > 0:
                rep.failures.append(f"{tag}: beta={coord.beta} must be positive")
            if not coord.holder_G > 0:
                rep.failures.append(f"{tag}: holder_G must be positive")
            if not _in_unit_interval(coord.holder_gamma):
                rep.failures.append(f"{tag}: holder_gamma={coord.holder_gamma} outside (0, 2]")
            if not coord.holder_rho > 0:
                rep.failures.append(f"{tag}: holder_rho must be positive")
            _check_profile_positive(coord.sigma_profile, 0.0, T, f"{tag}.sigma_profile", rep.failures)
            betas.append(coord.beta)
        elif isinstance(coord, FractionalBrownian):
            if not _in_unit_interval(coord.kappa):
                rep.failures.append(f"{tag}: kappa={coord.kappa} outside (0, 2]")
        else:
            rep.failures.append(f"{tag}: unknown coordinate type {type(coord)!r}")

    if betas and any(b != betas[0] for b in betas):
        rep.failures.append(f"non-stationary coordinates must share beta, got {sorted(set(betas))}")

    if rep.failures:
        return rep

    if any(isinstance(c, NonStationary) for c in spec.coords) and not any(
        isinstance(c, FractionalBrownian) for c in spec.coords
    ):
        try:
            prof = variance_profile(spec, scan_step=T / 512.0)
        except AmbiguousMinimumError as exc:
            rep.failures.append(f"generalized variance has no unique minimizer: {exc}")
            return rep
        if prof.boundary_tag in ("interior", "right") and prof.theta_lower <= 0:
            rep.warnings.append(
                "theta_lower = 0: the non-stationary limit theorem needs a positive "
                "left curvature coefficient at the variance minimizer"
            )
        if prof.boundary_tag in ("interior", "left") and prof.theta_upper <= 0:
            rep.warnings.append(
                "theta_upper = 0: the non-stationary limit theorem needs a positive "
                "right curvature coefficient at the variance minimizer"
            )
    return rep


# -- generalized variance profile ---------------------------------------------


@dataclass(frozen=True)
class VarianceProfileReport:
    """Location and curvature of the minimum of g(t) = sum_i 1/sigma_i^2(t)."""

    g_min: float
    t0: float
    boundary_tag: str  # left | interior | right
    theta_lower: float
    theta_upper: float


def _generalized_variance(spec):
    coords = spec.coords

    def g(t):
        t = np.asarray(t, dtype=float)
        total = np.zeros_like(t)
        for coord in coords:
            total += 1.0 / coord_variance(coord, t)
        return float(total) if total.ndim == 0 else total

    return g


def variance_profile(spec: VectorProcessSpec, scan_step: float) -> VarianceProfileReport:
    """Locate the unique minimizer of the generalized variance g(t).

    Coarse scan at ``scan_step`` followed by golden-section refinement to
    1e-10.  A second local minimum within 1e-8 * (1 + |g_min|) of the best
    one means the minimizer is not unique and the profile is rejected.
    """
    T = spec.horizon_T
    scan_step = require_real(scan_step, "scan_step", above=0, at_most=T / 10.0)
    if not any(isinstance(c, NonStationary) for c in spec.coords):
        raise DomainError("variance_profile needs at least one non-stationary coordinate")
    if any(isinstance(c, FractionalBrownian) for c in spec.coords):
        raise UnsupportedModelError(
            "variance_profile is undefined with a fractional Brownian coordinate "
            "(degenerate variance at the origin)"
        )

    g = _generalized_variance(spec)
    count = int(math.ceil(T / scan_step)) + 1
    ts = np.linspace(0.0, T, count)
    gs = g(ts)

    # local minima on the scan grid, boundaries compared one-sidedly
    is_min = np.ones(count, dtype=bool)
    is_min[1:] &= gs[1:] <= gs[:-1]
    is_min[:-1] &= gs[:-1] <= gs[1:]
    cand = np.flatnonzero(is_min)

    best = cand[np.argmin(gs[cand])]
    tol = 1e-8 * (1.0 + abs(float(gs[best])))
    rivals = [i for i in cand if abs(int(i) - int(best)) > 1 and gs[i] <= gs[best] + tol]
    if rivals:
        raise AmbiguousMinimumError(
            f"second local minimum at t={ts[rivals[0]]:.6g} within tolerance of "
            f"t={ts[best]:.6g}"
        )

    if best == 0:
        t0, g_min = 0.0, float(gs[0])
    elif best == count - 1:
        t0, g_min = float(T), float(gs[-1])
    else:
        lo, mid, hi = ts[best - 1], ts[best], ts[best + 1]
        if gs[best] < gs[best - 1] and gs[best] < gs[best + 1]:
            from scipy.optimize import minimize_scalar  # heavy import, kept off package load

            res = minimize_scalar(g, bracket=(lo, mid, hi), method="golden", options={"xtol": 1e-10})
            t0, g_min = float(min(max(res.x, 0.0), T)), float(res.fun)
        else:
            t0, g_min = float(mid), float(gs[best])

    edge = 1e-9 * max(1.0, T)
    if t0 <= edge:
        tag = "left"
    elif t0 >= T - edge:
        tag = "right"
    else:
        tag = "interior"

    theta_lower = 0.0
    theta_upper = 0.0
    for coord in spec.coords:
        if isinstance(coord, NonStationary):
            s2 = float(coord.sigma_profile(t0)) ** 2
            theta_lower += coord.b_lower / s2
            theta_upper += coord.b_upper / s2
    return VarianceProfileReport(g_min, t0, tag, theta_lower, theta_upper)
