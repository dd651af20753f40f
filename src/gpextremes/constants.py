"""Estimators and closed forms for the generalized extremal constants.

A window constant over [-S1, S2] with amplitude vector C, roughness kappa
and a two-sided power drift d is the mean exponential-weighted orthant
volume of the drifted-path cloud

    xi_i(t_j) = sqrt(2) C_i B_i(t_j) - C_i^2 |t_j|^kappa - d_i(t_j)

over the window grid, with the B_i independent fractional Brownian motions.
The long-window constant is the slope of the window constant in S; drifted
windows converge without normalization.  A grid-free cross-check estimates
the same limit from the small-u probability that a drifted, exponentially
tilted minimum process stays non-positive on the lattice {u, 2u, ...}.

Closed forms and bounds cover the single-coordinate kappa in {1, 2} cases,
a general positive lower bound, unit-amplitude upper bounds, and drift
lower bounds for the converging window constants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special
from scipy.integrate import simpson

from .errors import ConvergenceError, DomainError, TruncationError, UnsupportedModelError
from .orthants import ewv_batch
from .parallel import BLOCK_SIZE, RunningMoments, block_sizes, map_blocks, merge_moments
from .rng import RngStream
from .sampling import FgnSampler

__all__ = [
    "DriftSpec",
    "ConstantEstimate",
    "default_window_step",
    "estimate_window_constant",
    "estimate_pickands",
    "estimate_piterbarg",
    "estimate_discrete_zero",
    "closed_forms_n1",
    "pickands_bounds",
    "piterbarg_lower_bound",
]


@dataclass(frozen=True)
class DriftSpec:
    """Two-sided power drift d_i(t) = d_lower_i |t|^e for t <= 0, d_upper_i t^e for t > 0."""

    exponent: float
    d_lower: tuple
    d_upper: tuple

    def __post_init__(self):
        if not self.exponent > 0:
            raise DomainError(f"drift exponent must be positive, got {self.exponent}")
        lo = tuple(float(v) for v in self.d_lower)
        hi = tuple(float(v) for v in self.d_upper)
        if len(lo) != len(hi) or not lo:
            raise DomainError("d_lower and d_upper must be non-empty and equally long")
        object.__setattr__(self, "d_lower", lo)
        object.__setattr__(self, "d_upper", hi)

    @classmethod
    def zero(cls, n, exponent=1.0):
        return cls(exponent, (0.0,) * n, (0.0,) * n)

    @property
    def n(self) -> int:
        return len(self.d_lower)

    def evaluate(self, t) -> np.ndarray:
        """Drift values with shape (len(t), n)."""
        t = np.asarray(t, dtype=float)
        mag = np.abs(t)[:, None] ** self.exponent
        left = np.asarray(self.d_lower)[None, :]
        right = np.asarray(self.d_upper)[None, :]
        return np.where(t[:, None] > 0, right * mag, left * mag)

    def positive_sum_upper(self) -> float:
        return float(sum(max(0.0, v) for v in self.d_upper))

    def positive_sum_lower(self) -> float:
        return float(sum(max(0.0, v) for v in self.d_lower))


@dataclass
class ConstantEstimate:
    """Point estimate of an extremal constant with estimator metadata."""

    value: float
    se: float
    window_S: tuple
    grid_step: float
    replications: int
    estimator_tag: str  # window | slope | discrete_zero | closed_form | bound
    diagnostics: dict = field(default_factory=dict)


def default_window_step(kappa, S) -> float:
    """Window grid step: rougher paths (small kappa) need finer grids."""
    S = float(S)
    return S / 1024.0 if kappa <= 1.0 else S / 512.0


def _check_amplitudes(C):
    C = np.asarray(C, dtype=float)
    if C.ndim != 1 or C.size < 1:
        raise DomainError("C must be a non-empty vector")
    if np.any(C < 0) or not np.any(C > 0):
        raise DomainError("C must be componentwise non-negative with at least one positive entry")
    if not np.all(np.isfinite(C)):
        raise DomainError("C must be finite")
    return C


def _window_node_count(S, step, label):
    j = S / step
    j_round = int(round(j))
    if abs(j - j_round) > 1e-9 * max(1.0, j):
        raise DomainError(f"{label}={S} is not an integer multiple of grid_step={step}")
    return j_round


def _linear_path_window_value(C, t, trend):
    """Window constant for perfectly correlated (kappa = 2) coordinates.

    Hurst-1 paths are a.s. linear, so the window functional is a Gaussian
    integral in the one normal per coordinate; plain Monte Carlo cannot see
    its exponential-weighted tail (mass sits on events of probability
    ~exp(-S^2)), but composite-Simpson quadrature evaluates it to numerical
    precision.  Returns (value, error_estimate).
    """
    n = C.size
    span = max(abs(float(t[0])), abs(float(t[-1])))
    half = math.sqrt(2.0) * float(C.max()) * span + 12.0
    num = int(math.ceil(2.0 * half / 0.2))
    num += (num + 1) % 2  # odd node count, and odd count of half-strides
    xs = np.linspace(-half, half, 2 * num - 1)
    log_phi = -0.5 * xs**2 - 0.5 * math.log(2.0 * math.pi)
    sqrt2C = math.sqrt(2.0) * C
    if n == 1:
        log_f = np.max(sqrt2C[0] * xs[:, None] * t[None, :] - trend[None, :, 0], axis=1) + log_phi
        shift = log_f.max()
        g = np.exp(log_f - shift)
        fine = float(simpson(g, x=xs)) * math.exp(shift)
        coarse = float(simpson(g[::2], x=xs[::2])) * math.exp(shift)
    else:
        from .orthants import _ewv_staircase_log_rows

        coord1 = sqrt2C[1] * xs[:, None] * t[None, :] - trend[None, :, 1]  # (num_x2, m)
        log_rows = np.empty((xs.size, xs.size))
        chunk = max(1, int(2**22 // (xs.size * t.size)))
        for lo in range(0, xs.size, chunk):
            hi = min(lo + chunk, xs.size)
            c0 = sqrt2C[0] * xs[lo:hi, None] * t[None, :] - trend[None, :, 0]
            x_rep = np.repeat(c0, xs.size, axis=0)
            y_rep = np.tile(coord1, (hi - lo, 1))
            sh, mant = _ewv_staircase_log_rows(x_rep, y_rep)
            log_rows[lo:hi] = (sh + np.log(np.maximum(mant, 1e-300))).reshape(hi - lo, xs.size)
        log_f = log_rows + log_phi[:, None] + log_phi[None, :]
        shift = log_f.max()
        g = np.exp(log_f - shift)
        fine = float(simpson(simpson(g, x=xs, axis=1), x=xs)) * math.exp(shift)
        coarse = float(simpson(simpson(g[::2, ::2], x=xs[::2], axis=1), x=xs[::2])) * math.exp(shift)
    err = abs(fine - coarse) / 15.0 + 1e-9 * abs(fine)
    return fine, err


def estimate_window_constant(
    C,
    kappa,
    drift: DriftSpec,
    window,
    grid_step=None,
    R=10_000,
    stream: RngStream = None,
    workers: int = 1,
) -> ConstantEstimate:
    """Monte Carlo window constant over [-S1, S2].

    Each replication samples the n drifted fractional-Brownian coordinates on
    the window grid and integrates the exponential-weighted orthant-union
    volume of the resulting cloud; the estimate is the replication mean.
    Discretization biases the value downward, so one-sided tolerances apply
    where that matters -- except for a single Brownian coordinate (kappa = 1)
    with segmentwise-linear drift, where exact bridge maxima remove the
    discretization bias entirely.  The degenerate window [0, 0] is exactly 1.
    """
    C = _check_amplitudes(C)
    if not 0 < kappa <= 2:
        raise DomainError(f"kappa={kappa} outside (0, 2]")
    S1, S2 = float(window[0]), float(window[1])
    if S1 < 0 or S2 < 0:
        raise DomainError("window bounds must be non-negative (S1 is the left extent)")
    if drift.n != C.size:
        raise DomainError("drift dimension must match C")
    if S1 == 0.0 and S2 == 0.0:
        return ConstantEstimate(1.0, 0.0, (0.0, 0.0), 0.0, 0, "window")
    if R < 1000:
        raise DomainError("R must be >= 1000")
    if stream is None:
        raise DomainError("an RngStream is required")

    step = float(grid_step) if grid_step is not None else default_window_step(kappa, max(S1, S2))
    j1 = _window_node_count(S1, step, "S1")
    j2 = _window_node_count(S2, step, "S2")
    m = j1 + j2 + 1
    t = (np.arange(m) - j1) * step
    drift_vals = drift.evaluate(t)  # (m, n)
    trend = np.abs(t)[:, None] ** kappa * (C**2)[None, :] + drift_vals
    if kappa == 2.0 and C.size <= 2:
        value, err = _linear_path_window_value(C, t, trend)
        return ConstantEstimate(
            value,
            err,
            (S1, S2),
            step,
            R,
            "window",
            diagnostics={"evaluation": "exact quadrature over the linear-path normals"},
        )
    sampler = FgnSampler(kappa, step, m - 1) if m > 1 else None
    sqrt2C = math.sqrt(2.0) * C
    # Single Brownian coordinate with a segmentwise-linear drift: conditional
    # on the node values, segment maxima follow the exact bridge-maximum law,
    # so the continuous supremum is simulated without discretization bias.
    drift_is_zero = all(v == 0.0 for v in drift.d_lower + drift.d_upper)
    exact_bridge = C.size == 1 and kappa == 1.0 and m > 1 and (drift.exponent == 1.0 or drift_is_zero)

    def run_block(b):
        sizes = block_sizes(R)
        Rb = sizes[b]
        parts = []
        for i in range(C.size):
            gen = stream.child("block", b, "coord", i).generator()
            path = np.zeros((Rb, m))
            if sampler is not None:
                np.cumsum(sampler.increments(Rb, gen), axis=1, out=path[:, 1:])
            # anchor the two-sided path at the j1-th node (time 0)
            path -= path[:, j1][:, None]
            parts.append(sqrt2C[i] * path - trend[None, :, i])
        if exact_bridge:
            xi = parts[0]
            gen_u = stream.child("block", b, "bridge").generator()
            log_u = np.log1p(-gen_u.random(size=(Rb, m - 1)))
            a, bb = xi[:, :-1], xi[:, 1:]
            seg_max = 0.5 * (a + bb + np.sqrt((bb - a) ** 2 - 4.0 * C[0] ** 2 * step * log_u))
            return RunningMoments.from_values(np.exp(seg_max.max(axis=1)))
        cloud = np.stack(parts, axis=2)  # (Rb, m, n)
        return RunningMoments.from_values(ewv_batch(cloud))

    n_blocks = len(block_sizes(R))
    moments = merge_moments(map_blocks(run_block, n_blocks, workers))
    return ConstantEstimate(
        moments.mean,
        moments.se_of_mean,
        (S1, S2),
        step,
        R,
        "window",
    )


def estimate_pickands(
    C,
    kappa,
    S_ladder,
    grid_step=None,
    R=10_000,
    stream: RngStream = None,
    workers: int = 1,
) -> ConstantEstimate:
    """Long-window limit constant from the slope of the window constant in S.

    Fits a least-squares line H(S) ~ slope * S + b over the ladder rungs
    (independent streams per rung), cancelling the additive boundary term
    that a plain H(S)/S cannot.  The smallest rung is discarded when its
    residual exceeds three of its standard errors.  The per-rung H(S)/S
    sequence is reported for bias diagnosis and should be non-increasing.
    """
    C = _check_amplitudes(C)
    ladder = [float(s) for s in S_ladder]
    if len(ladder) < 3 or any(b <= a for a, b in zip(ladder, ladder[1:])) or ladder[0] <= 0:
        raise DomainError("S_ladder must be >= 3 strictly increasing positive rungs")
    drift = DriftSpec.zero(C.size, exponent=kappa)
    rungs = []
    for r, S in enumerate(ladder):
        est = estimate_window_constant(
            C,
            kappa,
            drift,
            (0.0, S),
            grid_step=grid_step,
            R=R,
            stream=stream.child("rung", r),
            workers=workers,
        )
        rungs.append(est)

    S_arr = np.asarray(ladder)
    H_arr = np.asarray([e.value for e in rungs])
    se_arr = np.asarray([e.se for e in rungs])

    def fit(mask):
        s = S_arr[mask]
        h = H_arr[mask]
        sbar = s.mean()
        denom = ((s - sbar) ** 2).sum()
        w = (s - sbar) / denom
        slope = float(w @ h)
        intercept = float(h.mean() - slope * sbar)
        slope_se = float(np.sqrt((w**2 @ se_arr[mask] ** 2)))
        return slope, intercept, slope_se

    mask = np.ones(len(ladder), dtype=bool)
    slope, intercept, slope_se = fit(mask)
    first_resid = H_arr[0] - (slope * S_arr[0] + intercept)
    dropped_first = abs(first_resid) > 3.0 * se_arr[0] and len(ladder) >= 4
    if dropped_first:
        mask[0] = False
        slope, intercept, slope_se = fit(mask)

    ratios = H_arr / S_arr
    ratio_se = se_arr / S_arr
    warnings = []
    for k in range(len(ladder) - 1):
        if ratios[k + 1] > ratios[k] + 3.0 * math.hypot(ratio_se[k], ratio_se[k + 1]):
            warnings.append(
                f"H(S)/S increased from rung S={ladder[k]} to S={ladder[k + 1]} beyond 3 se; "
                "subadditivity predicts non-increasing ratios"
            )
    return ConstantEstimate(
        slope,
        slope_se,
        (0.0, ladder[-1]),
        rungs[-1].grid_step,
        R,
        "slope",
        diagnostics={
            "S_ladder": ladder,
            "window_values": H_arr.tolist(),
            "window_se": se_arr.tolist(),
            "ratios": ratios.tolist(),
            "intercept": intercept,
            "dropped_first_rung": bool(dropped_first),
            "warnings": warnings,
        },
    )


_PITERBARG_VARIANTS = ("right", "left", "two_sided")


def estimate_piterbarg(
    C,
    kappa,
    drift: DriftSpec,
    variant: str,
    S_ladder,
    grid_step=None,
    R=10_000,
    stream: RngStream = None,
    workers: int = 1,
) -> ConstantEstimate:
    """Drifted window constant driven to its large-window limit.

    Estimates the window constant on each ladder rung, reusing the same
    stream so consecutive rungs are positively coupled, and declares
    convergence when consecutive rungs differ by less than
    max(2 pooled se, 1e-3 |value|) -- the operational meaning of S -> infinity
    here, recorded in the diagnostics.  Without a drift making the relevant
    sum positive the limit diverges, so that precondition is enforced.
    """
    C = _check_amplitudes(C)
    if variant not in _PITERBARG_VARIANTS:
        raise DomainError(f"variant must be one of {_PITERBARG_VARIANTS}")
    if variant in ("right", "two_sided") and sum(drift.d_upper) <= 0:
        raise DomainError("right/two-sided variants need sum(d_upper) > 0")
    if variant in ("left", "two_sided") and sum(drift.d_lower) <= 0:
        raise DomainError("left/two-sided variants need sum(d_lower) > 0")
    ladder = [float(s) for s in S_ladder]
    if not ladder or any(b <= a for a, b in zip(ladder, ladder[1:])) or ladder[0] <= 0:
        raise DomainError("S_ladder must be strictly increasing and positive")

    sequence = []
    prev = None
    for S in ladder:
        window = {"right": (0.0, S), "left": (S, 0.0), "two_sided": (S, S)}[variant]
        est = estimate_window_constant(
            C, kappa, drift, window, grid_step=grid_step, R=R, stream=stream, workers=workers
        )
        sequence.append((S, est.value, est.se))
        if prev is not None:
            gap = abs(est.value - prev.value)
            tol = max(2.0 * math.hypot(est.se, prev.se), 1e-3 * abs(est.value))
            if gap < tol:
                est.estimator_tag = "window"
                est.diagnostics.update(
                    {
                        "variant": variant,
                        "rungs": sequence,
                        "converged_at_S": S,
                        "stopping_rule": "consecutive rungs within max(2 pooled se, 1e-3 value)",
                    }
                )
                return est
        prev = est
    raise ConvergenceError(
        f"piterbarg ladder did not converge by S={ladder[-1]}", sequence
    )


def estimate_discrete_zero(
    C,
    kappa,
    u_ladder,
    horizon,
    R=10_000,
    stream: RngStream = None,
    workers: int = 1,
) -> ConstantEstimate:
    """Grid-free limit-constant estimator from lattice non-exceedance.

    For each rung u the statistic is u^{-1} P(min-coordinate of the tilted
    drifted paths stays <= 0 on every lattice node uk <= horizon), with
    unit-mean exponential tilts independent per coordinate; the final value
    linearly extrapolates the last two rungs to u = 0.  The horizon must
    push the drift to at least 40 for some coordinate so that truncation
    error is far below Monte Carlo noise.
    """
    C = _check_amplitudes(C)
    if not 0 < kappa <= 2:
        raise DomainError(f"kappa={kappa} outside (0, 2]")
    horizon = float(horizon)
    if max(c * c * horizon**kappa for c in C) < 40.0:
        raise TruncationError(
            "horizon too short: need max_i C_i^2 * horizon^kappa >= 40"
        )
    ladder = [float(u) for u in u_ladder]
    if len(ladder) < 2 or any(b >= a for a, b in zip(ladder, ladder[1:])) or ladder[-1] <= 0:
        raise DomainError("u_ladder must be >= 2 strictly decreasing positive rungs")
    if R < 1000:
        raise DomainError("R must be >= 1000")

    sqrt2C = math.sqrt(2.0) * C
    rungs = []
    for r, u in enumerate(ladder):
        K = int(math.floor(horizon / u + 1e-9))
        if K < 1:
            raise TruncationError(f"rung u={u} has no lattice nodes below the horizon")
        t = u * np.arange(1, K + 1)
        trend = t[:, None] ** kappa * (C**2)[None, :]
        sampler = FgnSampler(kappa, u, K)
        rung_stream = stream.child("rung", r)

        def run_block(b, sampler=sampler, rung_stream=rung_stream, trend=trend, K=K):
            sizes = block_sizes(R)
            Rb = sizes[b]
            mins = np.full((Rb, K), np.inf)
            for i in range(C.size):
                gen = rung_stream.child("block", b, "coord", i).generator()
                path = np.cumsum(sampler.increments(Rb, gen), axis=1)
                tilt = rung_stream.child("block", b, "tilt", i).generator().exponential(size=Rb)
                np.minimum(mins, sqrt2C[i] * path - trend[None, :, i] + tilt[:, None], out=mins)
            return int((mins.max(axis=1) <= 0.0).sum())

        n_blocks = len(block_sizes(R))
        hits = sum(map_blocks(run_block, n_blocks, workers))
        p = hits / R
        rungs.append((u, p / u, math.sqrt(p * (1.0 - p) / R) / u))

    (u1, h1, se1), (u2, h2, se2) = rungs[-2], rungs[-1]
    slope_w = u2 / (u1 - u2)
    value = h2 + (h2 - h1) * slope_w
    se = math.hypot((1.0 + slope_w) * se2, slope_w * se1)
    return ConstantEstimate(
        value,
        se,
        (0.0, horizon),
        ladder[-1],
        R,
        "discrete_zero",
        diagnostics={"u_ladder": ladder, "rungs": rungs},
    )


def closed_forms_n1(C1, kappa, window_T=None) -> float:
    """Single-coordinate closed forms for kappa in {1, 2}.

    Without a window: the limit constant C1^(2/kappa) * {1 if kappa=1,
    1/sqrt(pi) if kappa=2}.  With a window (unit amplitude only):
    kappa=1 -> (2+T) Phi(sqrt(T/2)) + sqrt(T/pi) exp(-T/4);
    kappa=2 -> 1 + T/sqrt(pi).
    """
    C1 = float(C1)
    if C1 <= 0:
        raise DomainError("C1 must be positive")
    if kappa not in (1, 2, 1.0, 2.0):
        raise UnsupportedModelError(f"closed forms exist only for kappa in {{1, 2}}, got {kappa}")
    kappa = float(kappa)
    if window_T is None:
        base = 1.0 if kappa == 1.0 else 1.0 / math.sqrt(math.pi)
        return C1 ** (2.0 / kappa) * base
    T = float(window_T)
    if T < 0:
        raise DomainError("window_T must be non-negative")
    if C1 != 1.0:
        raise DomainError(
            "window closed forms are stated for C1 = 1; rescale the window by "
            "C1^(2/kappa) and the value by C1^(2/kappa) instead"
        )
    if kappa == 1.0:
        return float((2.0 + T) * special.ndtr(math.sqrt(T / 2.0)) + math.sqrt(T / math.pi) * math.exp(-T / 4.0))
    return 1.0 + T / math.sqrt(math.pi)


def pickands_bounds(n, C, kappa):
    """(lower, upper) bounds on the limit constant; upper needs unit C, kappa in {1, 2}.

    Lower: (sum C_i^2)^(1/kappa) / (4^(1+1/kappa) Gamma(1/kappa + 1)),
    valid for all kappa in (0, 2].  Upper (C = 1):
    kappa=1 -> n ((n/(n-1)) (2 + sqrt(2/(pi e))))^(n-1),
    kappa=2 -> n (n/(n-1))^(n-1) / sqrt(pi), with n/(n-1) read as 1 at n=1.
    """
    C = _check_amplitudes(C)
    n = int(n)
    if n != C.size:
        raise DomainError("n must equal len(C)")
    if not 0 < kappa <= 2:
        raise DomainError(f"kappa={kappa} outside (0, 2]")
    csum = float((C**2).sum())
    lower = csum ** (1.0 / kappa) / (4.0 ** (1.0 + 1.0 / kappa) * special.gamma(1.0 / kappa + 1.0))
    upper = None
    if kappa in (1.0, 2.0) and np.all(C == 1.0):
        ratio = 1.0 if n == 1 else n / (n - 1.0)
        if kappa == 1.0:
            upper = n * (ratio * (2.0 + math.sqrt(2.0 / (math.pi * math.e)))) ** (n - 1)
        else:
            upper = n * ratio ** (n - 1) / math.sqrt(math.pi)
    return float(lower), upper


def piterbarg_lower_bound(C, kappa, drift: DriftSpec, variant: str, pickands_value: float) -> float:
    """Lower bound for the drifted window-constant limits.

    right: (e kappa sum_i max(0, d_upper_i))^(-1/kappa) * H;
    two_sided: 2 (e kappa)^(-1/kappa) (sum_i max(0, d_lower_i) +
    max(0, d_upper_i))^(-1/kappa) * H, with H the undrifted limit constant.
    """
    C = _check_amplitudes(C)
    if drift.n != C.size:
        raise DomainError("drift dimension must match C")
    if not 0 < kappa <= 2:
        raise DomainError(f"kappa={kappa} outside (0, 2]")
    if variant == "right":
        s = drift.positive_sum_upper()
        if s <= 0:
            raise DomainError("right variant needs sum_i max(0, d_upper_i) > 0")
        return (math.e * kappa * s) ** (-1.0 / kappa) * pickands_value
    if variant == "two_sided":
        s = drift.positive_sum_lower() + drift.positive_sum_upper()
        if s <= 0:
            raise DomainError("two-sided variant needs a positive clamped drift sum")
        return 2.0 * (math.e * kappa) ** (-1.0 / kappa) * s ** (-1.0 / kappa) * pickands_value
    raise DomainError("variant must be 'right' or 'two_sided'")
