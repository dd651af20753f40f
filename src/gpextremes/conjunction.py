"""Direct Monte Carlo for conjunction probabilities and inequality audits.

A conjunction hit is a replication whose sampled vector path has some grid
node where every coordinate exceeds its threshold.  The default grid step
resolves the u^(-2/kappa) mesoscale of the local-window theory; nested
refinement (evaluating strided subsets of one fine-grid batch) makes the
discretization bias monotone and exactly measurable per replication.

Every estimate runs its replication blocks through the block engine
:func:`~gpextremes.sampling._plane_blocks`, which draws coordinate i of
block b from the stream ("block", b, "coord", i).  The hit counts of the
probability estimators come from one lazy scan, :func:`_exceed_blocks`, a
reducer of that engine: in each chunk of a block's rows coordinate 0 is
drawn on every row and gives, per threshold row, the node mask of its
exceedances.  A row without an exceeding node for any threshold row cannot
hit, so a later coordinate is drawn only for the rows still alive, and no
normal is drawn for a dead row: the k-th row of a block alive before
coordinate i is paired with the k-th row of coordinate i's stream.  Which
rows are alive depends only on the earlier coordinates, and the rows of
coordinate i are iid and independent of them, so every row is still a
vector of independent coordinate paths and the hit count is Binomial(R, p).
The Borell audit's mixture supremum needs whole paths; its empirical
tail counts hits on the same paths, drawn once, row k of every coordinate
together.  Every estimate reports the engine's draw record in
``diagnostics``: the rows drawn per coordinate and the samplers' fallbacks.

The audits turn the comparison inequalities into empirical verdicts:
correlation dominance must not raise the conjunction probability
(Slepian), the variance-weighted mixture bounds the tail by a Gaussian
concentration term (Borell-TIS), and the normalized tail stays bounded by
the polynomially corrected concentration rate (Piterbarg).  All audits are
conservative: preconditions that fail make the audit inapplicable rather
than failed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import AsymptoticApproximation
from .errors import DomainError, PreconditionError
from .parallel import binomial_se, mean_and_se, require_count, require_ladder, require_real, require_stream
from .processes import (
    NonStationary,
    Stationary,
    VectorProcessSpec,
    coord_covariance,
    coord_variance,
)
from .rng import RngStream
from .sampling import SampleGrid, _plane_blocks, _take_all, coordinate_samplers

__all__ = [
    "ProbEstimate",
    "BorellReport",
    "SlepianReport",
    "DoubleEventResult",
    "PiterbargDecayReport",
    "RatioReport",
    "default_grid_step",
    "estimate_conjunction_prob",
    "conjunction_prob_nested",
    "estimate_double_event",
    "audit_slepian",
    "audit_borell",
    "audit_piterbarg_decay",
    "compare_with_asymptotic",
]


@dataclass(frozen=True)
class ProbEstimate:
    """Binomial hit-probability estimate; zero hits, or R, report the rule-of-three se 3/R.

    ``diagnostics`` is the draw record of
    :func:`~gpextremes.sampling._plane_blocks`: each coordinate's sampler
    fields, the number of replication blocks and ``rows_drawn``, the rows
    drawn per coordinate as the engine counted them.  The lazy scan draws
    coordinate i >= 1 only for the rows alive after the coordinates before
    it, so its ``rows_drawn`` falls below R for later coordinates; the
    Borell audit draws R rows of each.
    """

    value: float
    se: float
    hits: int
    replications: int
    grid_step: float
    notes: str = ""
    diagnostics: dict = field(default_factory=dict)


def _prob_from_hits(hits, R, grid_step, diagnostics) -> ProbEstimate:
    notes = {
        0: "rare event: zero hits; se is the rule-of-three bound 3/R",
        R: "every replication hits; se is the rule-of-three bound 3/R",
    }
    return ProbEstimate(hits / R, binomial_se(hits, R), int(hits), R, grid_step, notes.get(hits, ""), dict(diagnostics))


def default_grid_step(horizon_T, u, kappa_min) -> float:
    """min(T/1024, 0.1 u^(-2/kappa_min)): resolves the local-window mesoscale."""
    u = require_real(u, "u", above=0)
    kappa_min = require_real(kappa_min, "kappa_min", above=0, at_most=2)
    return min(require_real(horizon_T, "horizon_T", above=0) / 1024.0, 0.1 * u ** (-2.0 / kappa_min))


def _threshold_matrix(thresholds, n):
    """``thresholds``, a vector of n numbers or a non-empty stack of such vectors, as a (rows, n) float array."""
    try:
        shape = np.shape(thresholds)
    except ValueError:  # a ragged stack
        raise DomainError("thresholds must be a vector or a stack of equally long vectors") from None
    thr = np.reshape([require_real(v, "thresholds") for v in np.ravel(thresholds)], shape)
    if thr.ndim == 1:
        thr = thr[None, :]
    if thr.ndim != 2 or thr.shape[1] != n:
        raise DomainError(f"thresholds shape {thr.shape} incompatible with n={n}")
    if not thr.shape[0]:
        raise DomainError("thresholds must hold at least one threshold vector")
    return thr


def _stride_hits(exceed, strides=(1,)):
    """Hit counts of node masks ``exceed`` (J, rows, m), shape (J, len(strides)).

    Stride s counts the rows that have an exceeding node among every s-th.
    """
    counts = np.zeros((exceed.shape[0], len(strides)), dtype=np.int64)
    for j, mask in enumerate(exceed):
        for k, stride in enumerate(strides):
            counts[j, k] = int(mask[:, ::stride].any(axis=1).sum())
    return counts


def _exceed_blocks(samplers, thr, R, stream, workers, reduce):
    """``(sum of reduce(exceed) over every chunk of every block, diagnostics)``, drawn lazily.

    ``samplers`` are :func:`~gpextremes.sampling.coordinate_samplers` of the
    spec and grid.  ``exceed`` is the (J, k, m) node mask "every coordinate
    exceeds" of the J threshold rows ``thr``, on the k rows of a chunk that
    have an exceeding node for some threshold row; the other rows cannot
    hit.  ``reduce`` returns counts.  The scan is a reducer of
    :func:`~gpextremes.sampling._plane_blocks`: in each chunk coordinate 0
    is taken on every row, and each later coordinate only on the rows still
    alive (none when no row is alive), each narrowing the masks.  So row k
    of a block is row k of coordinate 0's block stream, and the k-th row of
    the block alive before coordinate i >= 1 is row k of coordinate i's.
    """

    def scan(planes, take):
        rows, exceed = planes.shape[1], None
        for i in range(len(planes)):
            if not rows:
                break
            above = take(i, rows) > thr[:, i, None, None]
            exceed = above if exceed is None else np.logical_and(exceed, above, out=above)
            live = exceed.any(axis=(0, 2))
            if not live.all():
                exceed = exceed[:, live]
                rows = exceed.shape[1]
        return reduce(exceed)

    parts, diagnostics = _plane_blocks(samplers, R, stream, workers, lambda block: scan)
    return sum(parts), diagnostics


def _scan_hits(samplers, thr, R, stream, workers, strides=(1,)):
    """``(counts, diagnostics)``: hit counts (len(thr), len(strides)) on shared, lazily drawn paths."""
    return _exceed_blocks(samplers, thr, R, stream, workers, lambda exceed: _stride_hits(exceed, strides))


def estimate_conjunction_prob(
    spec: VectorProcessSpec,
    thresholds,
    grid: SampleGrid,
    R: int,
    stream: RngStream,
    workers: int = 1,
):
    """P(some grid node has every coordinate above its threshold).

    ``thresholds`` is a realized vector f(u) of length n, or a stack of such
    vectors evaluated on shared paths (a higher threshold then never gains a
    hit a lower one missed, making monotonicity in u exact per replication).
    Returns one estimate or a list matching the stack.
    """
    thr = _threshold_matrix(thresholds, spec.n)
    counts, diagnostics = _scan_hits(coordinate_samplers(spec, grid), thr, R, stream, workers)
    out = [_prob_from_hits(int(c[0]), R, grid.step, diagnostics) for c in counts]
    return out[0] if np.asarray(thresholds).ndim == 1 else out


def conjunction_prob_nested(
    spec: VectorProcessSpec,
    thresholds,
    grid: SampleGrid,
    strides,
    R: int,
    stream: RngStream,
    workers: int = 1,
):
    """Conjunction estimates on nested node subsets of one fine grid.

    ``strides`` are strictly decreasing positive ints, each a multiple of
    the next (e.g. (4, 2, 1)); stride s uses every s-th node.  Because node
    sets nest and paths are shared, the hit indicator is monotone under
    refinement, exactly.
    """
    try:
        strides = tuple(require_count(s, 1, "strides") for s in strides)
    except TypeError:
        raise DomainError(f"strides must be a sequence of positive integers, got {strides!r}") from None
    if not strides:
        raise DomainError("strides must name at least one stride")
    if any(a <= b or a % b for a, b in zip(strides, strides[1:])):
        raise DomainError(f"strides must strictly decrease, each a multiple of the next, got {strides}")
    thr = _threshold_matrix(thresholds, spec.n)
    if thr.shape[0] != 1:
        raise DomainError("nested mode takes a single threshold vector")
    counts, diagnostics = _scan_hits(coordinate_samplers(spec, grid), thr, R, stream, workers, strides)
    return [_prob_from_hits(int(c), R, grid.step * s, diagnostics) for c, s in zip(counts[0], strides)]


@dataclass(frozen=True)
class DoubleEventResult:
    offsets: tuple
    joint: tuple  # ProbEstimate per offset
    single_window: ProbEstimate


# Grid nodes per mesoscale window of length S in estimate_double_event.
_DOUBLE_EVENT_NODES = 64


def estimate_double_event(
    spec: VectorProcessSpec,
    u,
    S,
    t0_offsets,
    R: int,
    stream: RngStream,
    workers: int = 1,
) -> DoubleEventResult:
    """Joint exceedance of two mesoscale windows at increasing separations.

    Windows are [0, S] u^(-2/kappa) and [t0, t0+S] u^(-2/kappa) with all
    offsets t0 > S > 1; paths are shared across offsets for variance
    reduction.  Offsets snap to the window grid, and the result reports the
    snapped offsets.  Raises :class:`DomainError` when a snapped offset
    window shares a node with the first window, or two offsets snap to one
    node.
    """
    if not all(isinstance(c, Stationary) for c in spec.coords):
        raise DomainError("double-event windows are defined for stationary coordinates")
    u = require_real(u, "u", above=0)
    S = require_real(S, "S", above=1)
    offsets = require_ladder(t0_offsets, "t0_offsets")
    starts = [int(round(off / S * _DOUBLE_EVENT_NODES)) for off in offsets]
    if starts[0] <= _DOUBLE_EVENT_NODES or len(set(starts)) < len(starts):
        raise DomainError(
            f"every offset in t0_offsets must exceed S, and the offsets stay distinct, once snapped "
            f"to the window grid of step S/{_DOUBLE_EVENT_NODES}; got {offsets}"
        )
    offsets = [s * S / _DOUBLE_EVENT_NODES for s in starts]
    kappa = min(c.kappa for c in spec.coords)
    scale = u ** (-2.0 / kappa)
    step = S * scale / _DOUBLE_EVENT_NODES
    span = (offsets[-1] + S) * scale
    if span > spec.horizon_T:
        raise DomainError(f"windows span {span:.4g}, beyond the horizon {spec.horizon_T}")
    grid = SampleGrid(0.0, step, starts[-1] + _DOUBLE_EVENT_NODES + 1)
    thr = np.full((1, spec.n), u)

    def reduce(exceed):
        exceed_all = exceed[0]  # (rows, m)
        hit0 = exceed_all[:, : _DOUBLE_EVENT_NODES + 1].any(axis=1)
        single = int(hit0.sum())
        joint = [
            int((hit0 & exceed_all[:, s : s + _DOUBLE_EVENT_NODES + 1].any(axis=1)).sum())
            for s in starts
        ]
        return np.asarray([single] + joint, dtype=np.int64)

    counts, diagnostics = _exceed_blocks(coordinate_samplers(spec, grid), thr, R, stream, workers, reduce)
    single = _prob_from_hits(int(counts[0]), R, step, diagnostics)
    joint = tuple(_prob_from_hits(int(c), R, step, diagnostics) for c in counts[1:])
    return DoubleEventResult(tuple(offsets), joint, single)


# -- audits ---------------------------------------------------------------------


@dataclass(frozen=True)
class SlepianReport:
    p_dominating: ProbEstimate
    p_dominated: ProbEstimate
    pooled_se: float
    verdict: str  # pass | fail


def audit_slepian(
    specA: VectorProcessSpec,
    specB: VectorProcessSpec,
    thresholds,
    grid: SampleGrid,
    R: int,
    stream: RngStream,
    workers: int = 1,
) -> SlepianReport:
    """Correlation dominance must not raise the conjunction probability.

    Applicable only when the two specs match variances on the grid within
    1e-12 and A's coordinate covariances dominate B's everywhere on the
    grid; then the verdict passes iff P_A <= P_B + 3 pooled se.
    ``thresholds`` is a single vector of length n.
    """
    require_stream(stream)
    if specA.n != specB.n:
        raise PreconditionError("specs must have the same number of coordinates")
    if np.ndim(thresholds) != 1:
        raise DomainError(f"the Slepian audit takes a single threshold vector, got shape {np.shape(thresholds)}")
    thr = _threshold_matrix(thresholds, specA.n)[0]
    nodes = grid.nodes()
    for i, (ca, cb) in enumerate(zip(specA.coords, specB.coords)):
        va = np.asarray(coord_variance(ca, nodes))
        vb = np.asarray(coord_variance(cb, nodes))
        if np.abs(va - vb).max() > 1e-12 * max(1.0, float(np.abs(va).max())):
            raise PreconditionError(f"coordinate {i}: variance profiles differ on the grid")
        cov_a = np.asarray(coord_covariance(ca, nodes[:, None], nodes[None, :]))
        cov_b = np.asarray(coord_covariance(cb, nodes[:, None], nodes[None, :]))
        if np.min(cov_a - cov_b) < -1e-12:
            raise PreconditionError(f"coordinate {i}: covariance dominance fails on the grid")
    pa = estimate_conjunction_prob(specA, thr, grid, R, stream.child("dominating"), workers)
    pb = estimate_conjunction_prob(specB, thr, grid, R, stream.child("dominated"), workers)
    pooled = math.hypot(pa.se, pb.se)
    verdict = "pass" if pa.value <= pb.value + 3.0 * pooled else "fail"
    return SlepianReport(pa, pb, pooled, verdict)


@dataclass(frozen=True)
class BorellReport:
    tau_sq: float
    mu_hat: float
    mu_se: float
    bound_at_u: float
    empirical_at_u: ProbEstimate
    verdict: str  # pass | inconclusive | fail


def _variance_weights(spec, nodes):
    """Mixture weights lambda_i(t) proportional to 1/sigma_i^2(t); rows sum to 1.

    Nodes where some coordinate is degenerate (zero variance) give those
    coordinates the whole weight -- their path values are a.s. zero there.
    """
    sig2 = np.stack([np.broadcast_to(coord_variance(c, nodes), nodes.shape) for c in spec.coords])
    with np.errstate(divide="ignore"):
        w = 1.0 / sig2
    g = w.sum(axis=0)
    lam = np.zeros_like(w)
    finite = np.isfinite(g)
    lam[:, finite] = w[:, finite] / g[finite]
    if (~finite).any():
        degenerate = np.isinf(w[:, ~finite])
        lam[:, ~finite] = degenerate / degenerate.sum(axis=0)
    return lam, g


def audit_borell(
    spec: VectorProcessSpec,
    u_ladder,
    grid: SampleGrid,
    R: int,
    stream: RngStream,
    workers: int = 1,
) -> list:
    """Gaussian concentration audit of the conjunction tail.

    tau^2 is the grid infimum of the generalized variance; mu is the Monte
    Carlo mean of the supremum of the variance-weighted coordinate mixture,
    inflated by 3 se so noise can only make the audit inconclusive, never
    falsely failing.  For each u > mu the empirical tail must not exceed
    exp(-(u - mu)^2 tau^2 / 2).
    """
    us = require_ladder(u_ladder, "u_ladder")
    nodes = grid.nodes()
    lam, g = _variance_weights(spec, nodes)
    finite_g = g[np.isfinite(g)]
    if finite_g.size == 0 or finite_g.min() <= 0:
        raise PreconditionError("tau^2 must be positive on the grid")
    tau_sq = float(finite_g.min())
    samplers = coordinate_samplers(spec, grid)

    def reduce(planes, take):
        # each row's mixture supremum, and the rows where the least coordinate is above u at some node
        planes = _take_all(planes, take)
        sup_mix = np.einsum("nrm,nm->rm", planes, lam).max(axis=1)
        peaks = planes.min(axis=0).max(axis=1)
        return sup_mix, (peaks > np.asarray(us)[:, None]).sum(axis=1)

    parts, diagnostics = _plane_blocks(samplers, R, stream, workers, lambda block: reduce)
    mu_hat, mu_se = mean_and_se([sup_mix for sup_mix, _ in parts])
    counts = sum(hits for _, hits in parts)
    mu_conservative = mu_hat + 3.0 * mu_se

    reports = []
    for u, hits in zip(us, counts):
        emp = _prob_from_hits(int(hits), R, grid.step, diagnostics)
        if u <= mu_conservative:
            reports.append(BorellReport(tau_sq, mu_hat, mu_se, math.nan, emp, "inconclusive"))
            continue
        bound = math.exp(-0.5 * (u - mu_conservative) ** 2 * tau_sq)
        verdict = "pass" if emp.value <= bound else "fail"
        reports.append(BorellReport(tau_sq, mu_hat, mu_se, bound, emp, verdict))
    return reports


@dataclass(frozen=True)
class PiterbargDecayReport:
    nu: float
    tau_sq: float
    mes: float
    us: tuple
    estimates: tuple  # ProbEstimate per u
    ratios: tuple  # float or None (zero hits)
    ratio_bounds: tuple  # rule-of-three bound where hits were zero
    verdict: str  # pass | fail | inconclusive
    diagnostics: dict = field(default_factory=dict)


def _holder_exponent(coord):
    if isinstance(coord, NonStationary):
        return min(coord.alpha, coord.holder_gamma)
    return coord.kappa  # every other coordinate type of a valid spec


def audit_piterbarg_decay(
    spec: VectorProcessSpec,
    u_ladder,
    grid: SampleGrid,
    R: int,
    stream: RngStream,
    workers: int = 1,
) -> PiterbargDecayReport:
    """Boundedness audit of P(u) / (mes(T) u^(2/nu - 1) exp(-u^2 tau^2 / 2)).

    nu is the smallest coordinate smoothness exponent min(gamma, alpha); the
    ratio sequence over an increasing u ladder must stay within a factor two
    of its median.  Entries with zero hits only contribute a rule-of-three
    bound; fewer than two hit-bearing entries leave the audit inconclusive.
    """
    us = require_ladder(u_ladder, "u_ladder", min_rungs=3)
    if not grid.span > 0:
        raise DomainError("the grid needs at least two nodes: mes(T) is its span")
    nu = min(_holder_exponent(c) for c in spec.coords)
    nodes = grid.nodes()
    _, g = _variance_weights(spec, nodes)
    tau_sq = float(g[np.isfinite(g)].min())
    mes = grid.span
    thr = np.asarray([[u] * spec.n for u in us])
    counts, draw_diagnostics = _scan_hits(coordinate_samplers(spec, grid), thr, R, stream, workers)

    estimates = []
    ratios = []
    bounds = []
    for u, hits in zip(us, counts[:, 0]):
        emp = _prob_from_hits(int(hits), R, grid.step, draw_diagnostics)
        denom = mes * u ** (2.0 / nu - 1.0) * math.exp(-0.5 * u * u * tau_sq)
        estimates.append(emp)
        if hits == 0:
            ratios.append(None)
            bounds.append(emp.se / denom)
        else:
            ratios.append(emp.value / denom)
            bounds.append(None)
    observed = [r for r in ratios if r is not None]
    if len(observed) < 2:
        verdict = "inconclusive"
    else:
        verdict = "pass" if max(observed) <= 2.0 * float(np.median(observed)) else "fail"
    return PiterbargDecayReport(
        nu,
        tau_sq,
        mes,
        tuple(us),
        tuple(estimates),
        tuple(ratios),
        tuple(bounds),
        verdict,
        diagnostics={"nu_rule": "min over coordinates of min(holder_gamma, alpha)"},
    )


@dataclass(frozen=True)
class RatioReport:
    """Empirical / asymptotic comparison; operationalizes first-order equivalence."""

    ratio: float | None
    ci: tuple
    grid_step: float
    rule_of_three_bound: float | None = None
    notes: str = ""


def compare_with_asymptotic(empirical: ProbEstimate, approx: AsymptoticApproximation) -> RatioReport:
    a = require_real(approx.value_at_u, "asymptotic value", above=0)
    if empirical.hits == 0:
        bound = empirical.se / a
        return RatioReport(None, (0.0, bound), empirical.grid_step, bound, "zero hits: ratio undefined")
    lo = max(0.0, empirical.value - 3.0 * empirical.se) / a
    hi = (empirical.value + 3.0 * empirical.se) / a
    return RatioReport(empirical.value / a, (lo, hi), empirical.grid_step)
