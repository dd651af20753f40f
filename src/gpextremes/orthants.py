"""Exponential-weighted volume of a union of downward orthants.

For a finite cloud P in R^n the quantity computed here is

    EWV(P) = integral over R^n of exp(w_1 + ... + w_n)
             on the region { w : w < p componentwise for some p in P },

the inner integral behind every window constant in this package.  Since
the integral of exp(sum w) over the orthant below p is exp(sum p), EWV(P)
is the hypervolume of exp(P) with the origin as reference point, and the
dimension-sweep hypervolume algorithms compute it exactly (While, Hingston,
Barone & Huband 2006; Beume et al. 2009).  Sorting by the last coordinate
z descending, with z_(m+1) = -inf,

    EWV_n(P) = sum_k (exp(z_(k)) - exp(z_(k+1))) EWV_(n-1)(top-k prefix of P),

the prefixes projected onto the first n-1 coordinates.  n = 1 is exp(max);
n = 2 is the O(m log m) staircase; n = 3 sweeps every z-prefix of every
cloud at once with the staircase as base case, in O(m^2) per cloud and with
no Pareto filter; n >= 4 prunes each cloud to its Pareto set and slices the
last coordinate recursively down to the n = 3 kernel.  Every exponential is
shifted by a maximum, which keeps coordinates beyond +-700 from
overflowing.  :func:`ewv_mc` is an independent Monte Carlo estimator.

:func:`ewv_batch` reduces n <= 3 in row chunks: each chunk holds at most
``_CHUNK_ELEMENTS // m**(n - 1)`` clouds (a quarter of that for n = 2), so
every temporary of a kernel stays near ``_CHUNK_ELEMENTS`` entries however
many clouds come in.  The
clouds may be any strided (R, m, n) view, such as ``np.moveaxis`` of an
(n, R, m) block of coordinate planes, and are never copied whole.  Every
cloud is reduced on its own, with the same operands in the same order, so
neither the chunking nor the memory layout changes a bit of the result.

Every sweep orders its points with numpy's default argsort, a SIMD sort that
places tied keys in no fixed order.  With distinct keys the sorted
permutation is unique, so the result does not depend on the sort, nor on the
order of the points in a cloud.  Where keys tie exactly, the tied points
enter the sweep in some order; the EWV is the same number in exact
arithmetic whatever that order, but the rounding of its sum may move in the
last bits, with the order of the input points or with the SIMD level of the
sort.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .parallel import require_count, require_real_array
from .rng import RngStream

__all__ = ["PointCloud", "pareto_prune", "ewv_exact", "ewv_mc", "ewv_batch"]

# Largest temporary, in elements, of the n <= 3 kernels: clouds are reduced
# in row chunks of at most this many (cloud, point) pairs for n = 2 and
# (point, cloud, prefix) triples for n = 3, or one cloud at a time once a
# single cloud exceeds it.
_CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class PointCloud:
    """Finite set of points in R^n (rows of ``points``)."""

    dim: int
    points: np.ndarray

    def __post_init__(self):
        pts = np.array(require_real_array(self.points, "points"))
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise DomainError(f"points shape {pts.shape} incompatible with dim {self.dim}")
        if pts.shape[0] < 1:
            raise DomainError("a point cloud needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise DomainError("all points must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]


def _pareto_mask(pts: np.ndarray) -> np.ndarray:
    """Boolean mask of componentwise-maximal rows.

    Weak domination (<= everywhere, < somewhere) prunes; exact duplicates
    keep their first occurrence.
    """
    m = pts.shape[0]
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        ge = (pts >= pts[i]).all(axis=1)
        gt = (pts > pts[i]).any(axis=1)
        if np.any(ge & gt):
            keep[i] = False
            continue
        eq = ge & ~gt
        if eq[:i].any():
            keep[i] = False
    return keep


def pareto_prune(cloud: PointCloud) -> PointCloud:
    """Componentwise-maximal subset of the cloud; EWV is unchanged."""
    return PointCloud(cloud.dim, cloud.points[_pareto_mask(cloud.points)])


def _ewv_staircase_log_rows(x: np.ndarray, y: np.ndarray):
    """(shift, mantissa) of the n=2 sweep: EWV = exp(shift) * mantissa per row.

    Sorting by x descending makes the Pareto staircase the strict running
    records of y; the union region decomposes into horizontal strips whose
    weighted measures are exp(x_k + y_k) * (1 - exp(y_prev - y_k)), with
    y_prev the previous record.  Every strip is shifted by the largest
    coordinate sum of the row, which no x_k + y_k exceeds, so no term
    overflows.  A point that sets no record adds an exact zero, so pruning
    dominated points leaves every strip bit for bit.  x and y are gathered
    into sweep order, the gathered y is added to the gathered x in place
    (the same sums as x + y), and the strips are formed in place.
    """
    order = np.argsort(-x, axis=1)
    strips = np.take_along_axis(x, order, axis=1)
    ys = np.take_along_axis(y, order, axis=1)
    strips += ys
    shift = strips.max(axis=1)
    run = np.maximum.accumulate(ys, axis=1)
    gap = np.empty_like(ys)  # y_prev - y_k, -inf before the first record
    gap[:, 0] = -np.inf
    np.subtract(run[:, :-1], ys[:, 1:], out=gap[:, 1:])
    np.minimum(gap, 0.0, out=gap)
    np.expm1(gap, out=gap)  # -(1 - exp(y_prev - y_k))
    strips -= shift[:, None]
    np.exp(strips, out=strips)
    strips *= gap
    return shift, -strips.sum(axis=1)


def _ewv3_mantissa(pts: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Mantissa of the n=3 sweep for clouds (B, m, 3): EWV = exp(shift) * mantissa.

    With the points sorted by x descending (x_(m+1) = -inf) and R_j the
    running maximum of y, summation by parts turns the n=2 staircase into
    sum_j (exp(x_j) - exp(x_(j+1))) exp(R_j).  Slab k of the z sweep is the
    staircase of the k+1 points of largest z: the other points are masked to
    -inf before the running maximum, so every prefix comes out of one pass
    over a (point, cloud, prefix) array.  R_kj is the y of a point i with
    x_i >= x_j and z_i >= z_(k), so x_j + R_kj + z_(k) never exceeds
    ``shift``, the largest coordinate sum of the cloud, and no term
    overflows.  Every term is non-negative; dominated points and ties add
    zero.
    """
    m = pts.shape[1]
    order = np.argsort(-pts[:, :, 0], axis=1)
    x, y, z = np.take_along_axis(pts, order[:, :, None], axis=1).transpose(2, 1, 0)  # (point, cloud)
    z_order = np.argsort(-z, axis=0)
    zs = np.take_along_axis(z, z_order, axis=0)
    rank = np.empty_like(z_order)
    np.put_along_axis(rank, z_order, np.arange(m)[:, None], axis=0)
    dx = -np.expm1(np.diff(x, axis=0, append=-np.inf))  # (exp(x_j) - exp(x_(j+1))) / exp(x_j)
    dz = -np.expm1(np.diff(zs, axis=0, append=-np.inf))
    E = np.where(rank[:, :, None] <= np.arange(m), y[:, :, None], -np.inf)  # (j, B, k)
    # row by row: maximum.accumulate along an axis is several times slower
    for j in range(1, m):
        np.maximum(E[j - 1], E[j], out=E[j])
    E += (x - shift)[:, :, None]
    E += zs.T[None]
    np.exp(E, out=E)
    E *= dx[:, :, None]
    return (E.sum(axis=0) * dz.T).sum(axis=1)


def _ewv_log_rows(points: np.ndarray):
    """(shift, mantissa) of clouds (R, m, n) for n <= 3, in row chunks.

    Each chunk holds at most ``_CHUNK_ELEMENTS // m**(n - 1)`` clouds (a
    quarter of that for n = 2; at least one), so no temporary of a kernel
    grows with R.  Every cloud is reduced on its own, so the chunking
    leaves every bit of the result.
    """
    R, m, n = points.shape
    shift = np.empty(R)
    mantissa = np.empty(R)
    # the n = 2 sweep holds five (cloud, point) arrays at once, so it takes a quarter of the elements
    budget = _CHUNK_ELEMENTS // 4 if n == 2 else _CHUNK_ELEMENTS
    rows = max(1, budget // m ** (n - 1))
    for lo in range(0, R, rows):
        pts = points[lo : lo + rows]
        part = slice(lo, lo + pts.shape[0])
        if n == 1:
            shift[part] = pts[:, :, 0].max(axis=1)
            mantissa[part] = 1.0
        elif n == 2:
            shift[part], mantissa[part] = _ewv_staircase_log_rows(pts[:, :, 0], pts[:, :, 1])
        else:
            shift[part] = pts.sum(axis=2).max(axis=1)
            mantissa[part] = _ewv3_mantissa(pts, shift[part])
    return shift, mantissa


def _ewv_log_cloud(pts: np.ndarray):
    """(shift, mantissa) of one cloud (m, n), n >= 4, by slicing the last coordinate.

    EWV_n(P) = sum_k (exp(z_(k)) - exp(z_(k+1))) EWV_(n-1)(top-k prefix without z)
    over the Pareto set sorted by z descending.  A prefix is padded to full
    length with copies of its first point, which leaves its EWV unchanged, so
    every prefix of a 4-D cloud goes to the n=3 kernel in one batch.
    """
    pts = pts[_pareto_mask(pts)]
    pts = pts[np.argsort(-pts[:, -1])]
    if pts.shape[1] == 4:
        j = np.arange(pts.shape[0])
        prefixes = pts[np.where(j[None, :] <= j[:, None], j[None, :], 0), :3]
        sub_shift, sub_mant = _ewv_log_rows(prefixes)
    else:
        sub_shift, sub_mant = np.array([_ewv_log_cloud(pts[: k + 1, :-1]) for k in range(pts.shape[0])]).T
    z = pts[:, -1]
    lead = z + sub_shift
    shift = lead.max()
    slab = -np.expm1(np.diff(z, append=-np.inf))
    return shift, float((np.exp(lead - shift) * slab * sub_mant).sum())


def ewv_exact(cloud: PointCloud) -> float:
    """Exact exponential-weighted orthant-union volume, for every n.

    The same code as :func:`ewv_batch` on a batch of one cloud.
    """
    return float(ewv_batch(cloud.points[None])[0])


def ewv_mc(cloud: PointCloud, budget: int, stream: RngStream):
    """Unbiased Monte Carlo estimate of EWV with its standard error.

    With M the componentwise maximum, draws w = M - E (E unit-mean
    exponentials): the coverage fraction times exp(sum M) is unbiased for
    EWV because the weighted region is contained in the orthant below M.
    """
    budget = require_count(budget, 100, "budget")
    gen = stream.generator()
    pts = cloud.points
    M = pts.max(axis=0)
    scale = float(np.exp(M.sum()))
    covered = np.zeros(budget, dtype=bool)
    w = M - gen.exponential(size=(budget, cloud.dim))
    for p in pts:
        covered |= (w < p).all(axis=1)
        if covered.all():
            break
    frac = covered.mean()
    se = scale * float(np.sqrt(frac * (1.0 - frac) / budget))
    return scale * float(frac), se


def ewv_batch(points: np.ndarray, gen: np.random.Generator | None = None) -> np.ndarray:
    """Exact EWV of many clouds at once; ``points`` has shape (R, m, n), m and n >= 1.

    n = 1 is the maximum, n = 2 the staircase and n = 3 the masked-prefix
    sweep, each vectorized over the clouds of a row chunk; n >= 4 prunes
    each cloud to its Pareto set and slices the last coordinate down to the
    n = 3 kernel.  ``points`` may be any strided view, such as
    ``np.moveaxis`` of an (n, R, m) block of coordinate planes; it is never
    copied whole.  The result does not depend on the order of the points
    within a cloud, except in the rounding of clouds with exactly tied
    coordinates (see the module docstring).
    """
    # ``gen`` is unused: perfbench/run.py and perfbench/probes.py pass it, and
    # the benchmark stays fixed so that its timings compare across versions.
    points = np.asarray(points, dtype=float)
    if points.ndim != 3 or not points.shape[1] or not points.shape[2]:
        raise DomainError(f"points must have shape (R, m, n) with m, n >= 1, got {points.shape}")
    if points.shape[2] >= 4:
        shift, mantissa = np.array([_ewv_log_cloud(p) for p in points]).reshape(-1, 2).T
    else:
        shift, mantissa = _ewv_log_rows(points)
    return np.exp(shift) * mantissa
