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
n = 2 is the O(m log m) staircase; every n >= 3 first drops every point
that an earlier point in x order dominates (an exact filter, O(m^2)
comparisons per cloud).  n = 3 then sweeps every z-prefix of the c survivors
with the staircase as base case, O(c^2), and n >= 4 sends every z-prefix,
one coordinate shorter, back through the filter and sweep.  Every
exponential is shifted by a maximum, which keeps coordinates beyond +-700
from overflowing.  :func:`ewv_mc` is an independent Monte Carlo estimator.

:func:`ewv_batch` reduces n <= 2 in row chunks of at most
``_CHUNK_ELEMENTS // m**(n - 1)`` clouds (a quarter of that for n = 2).  At
n >= 3 the filter runs in row chunks; the clouds are then grouped by their
survivor counts, each group padded to its largest count, and swept in
batches (:func:`_ewv_sweep_log_rows`).  Every temporary of a kernel stays
near ``_CHUNK_ELEMENTS`` entries however many clouds come in.  The clouds may
be any strided (R, m, n) view, such as ``np.moveaxis`` of an (n, R, m) block
of coordinate planes, and are never copied whole.  Every cloud is reduced on
its own, with the same operands in the same order, so neither the chunking
nor the memory layout changes a bit of the result.  At n >= 3 that takes two
rules: a cloud's pads are copies of one of its survivors that sort next to
it, whose x steps (n = 3) or z steps (n >= 4) are exact zeros, and every sum
of a sweep runs in point order, so the padded terms add exact zeros and
neither the padding nor the batch-mates move a bit.  Non-finite points raise
:class:`DomainError`.

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

# Largest temporary, in elements, of the kernels: clouds are reduced in row
# chunks of at most this many (cloud, point) pairs for n = 2, or one cloud at
# a time once a single cloud exceeds it.  At n >= 3 the filter's (point,
# cloud) arrays hold 1 / (n + 1) of it each, the n = 3 sweep's (point,
# prefix, cloud) array half of it and the n >= 4 slice's prefixes all of it.
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


def _require_finite(shift: np.ndarray, low: float):
    """Raise unless every cloud is finite: ``shift`` holds the clouds' largest
    coordinates or coordinate sums, which a nan or +inf makes non-finite, and
    ``low`` the least of them over the chunk, which a -inf makes -inf."""
    if not (np.isfinite(shift).all() and low > -np.inf):
        raise DomainError("all points must be finite")


def _pareto_mask(pts: np.ndarray) -> np.ndarray:
    """Boolean mask of componentwise-maximal rows.

    Weak domination (<= everywhere, < somewhere) prunes; exact duplicates
    keep their first occurrence.  A stable sort, lexicographically
    descending, puts every weak dominator of a row and every earlier copy of
    it before the row, and nothing else that is >= it everywhere, so a row
    is pruned exactly when a row before it in that order is >= it
    everywhere.  The rows are compared in column blocks of at most
    ``_CHUNK_ELEMENTS`` pairs.
    """
    m, n = pts.shape
    order = np.lexsort(-pts.T[::-1])
    ranked = pts[order]
    keep = np.empty(m, dtype=bool)
    cols = max(1, _CHUNK_ELEMENTS // max(m, 1))
    for lo in range(0, m, cols):
        block = ranked[lo : lo + cols]
        hi = lo + block.shape[0]
        ge = np.ones((hi, block.shape[0]), dtype=bool)  # ge[i, j]: row i >= row lo + j everywhere
        for k in range(n):
            ge &= ranked[:hi, None, k] >= block[None, :, k]
        keep[order[lo:hi]] = ~np.triu(ge, 1 - lo).any(axis=0)  # rows i < lo + j only
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
    into sweep order by one flat index of the rows, the gathered y is added
    to the gathered x in place (the same sums as x + y), and the strips are
    formed in place.
    """
    order = np.argsort(-x, axis=1)
    order += np.arange(0, order.size, x.shape[1])[:, None]
    strips = x.reshape(-1)[order]
    ys = y.reshape(-1)[order]
    strips += ys
    shift = strips.max(axis=1)
    _require_finite(shift, strips.min())
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


def _maxima(pts: np.ndarray):
    """(shift, counts, survivors) of the maxima filter of clouds (B, m, n), n >= 2.

    Sorted by x descending, point j is dropped when a point before it is
    >= it on coordinates 1 ... n-1: j is weakly dominated or a copy (a pad
    among them), so its orthant lies in the others' union and dropping it
    leaves the EWV exact.  At exact x ties a dominated point can survive,
    which is harmless: the survivors hold every maximum.  ``survivors`` lists
    each cloud's kept point indices in sweep order, cloud after cloud, and
    ``counts`` how many each cloud keeps; ``shift`` is each cloud's largest
    coordinate sum, which must be finite.
    """
    B, m, n = pts.shape
    sums = pts.sum(axis=2)
    shift = sums.max(axis=1)
    _require_finite(shift, sums.min())
    del sums
    order = np.argsort(pts[:, :, 0], axis=1)[:, ::-1]
    order += np.arange(0, B * m, m)[:, None]
    flat = pts.reshape(B * m, n)
    y, *rest = (flat[order.T, c] for c in range(1, n))  # (point, cloud) in sweep order
    dominated = np.zeros((m, B), dtype=bool)
    ge = np.empty((m - 1, B), dtype=bool)
    ge_c = np.empty_like(ge)
    for i in range(m - 1):
        k = m - 1 - i
        np.less_equal(y[i + 1 :], y[i], out=ge[:k])
        for c in rest:
            np.less_equal(c[i + 1 :], c[i], out=ge_c[:k])
            ge[:k] &= ge_c[:k]
        dominated[i + 1 :] |= ge[:k]
    del y, rest, ge, ge_c
    order -= np.arange(0, B * m, m)[:, None]
    clouds, points = np.nonzero(~dominated.T)
    return shift, np.bincount(clouds, minlength=B), order[clouds, points]


def _ewv3_mantissa(pts: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Mantissa of the n=3 sweep of clouds held point-major, (w, G, 3).

    EWV = exp(shift) * mantissa.  The points of each cloud come sorted by x
    descending (x_(w+1) = -inf).  With R_j the running maximum of y,
    summation by parts turns the n=2 staircase into
    sum_j (exp(x_j) - exp(x_(j+1))) exp(R_j).  Slab k of the z sweep is the
    staircase of the k+1 points of largest z: the other points are masked to
    -inf before the running maximum, so every prefix comes out of one pass
    over a (point, prefix, cloud) array.  R_kj is the y of a point i with
    x_i >= x_j and z_i >= z_(k), so x_j + R_kj + z_(k) never exceeds
    ``shift``, the largest coordinate sum of the cloud, and no term
    overflows.  Every term is non-negative; dominated points and ties add
    zero.  Both sums run in order, point by point and then prefix by
    prefix, one cloud per lane, so copies of a cloud's first point placed
    before it add exact zeros (their x steps are 0) and a cloud's bits
    depend neither on its padding nor on its batch-mates.
    """
    w = pts.shape[0]
    x, y, z = pts.transpose(2, 0, 1)
    z_order = np.argsort(-z, axis=0)
    zs = np.take_along_axis(z, z_order, axis=0)
    rank = np.empty_like(z_order)
    np.put_along_axis(rank, z_order, np.arange(w)[:, None], axis=0)
    dx = -np.expm1(np.diff(x, axis=0, append=-np.inf))  # (exp(x_j) - exp(x_(j+1))) / exp(x_j)
    dz = -np.expm1(np.diff(zs, axis=0, append=-np.inf))
    E = np.where(rank[:, None] <= np.arange(w)[:, None], y[:, None], -np.inf)  # (j, k, G)
    # row by row: maximum.accumulate along an axis is several times slower
    for j in range(1, w):
        np.maximum(E[j - 1], E[j], out=E[j])
    E += (x - shift)[:, None]
    E += zs
    np.exp(E, out=E)
    E *= dx[:, None]
    for j in range(1, w):
        E[j] += E[j - 1]
    slabs = E[-1]
    slabs *= dz
    for k in range(1, w):
        slabs[k] += slabs[k - 1]
    return slabs[-1]


def _sweep_bucket(count: int) -> int:
    """Largest survivor count of ``count``'s sweep group: counts up to 8 alone, then 4 groups per doubling."""
    step = 1 << max((count - 1).bit_length() - 3, 0)
    return -(-count // step) * step


def _ewv_slice_mantissa(pts: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Mantissa of the n >= 4 slice of clouds held point-major, (w, G, n).

    EWV = exp(shift) * mantissa.  Sorted by the last coordinate z descending
    (z_(w+1) = -inf), a cloud's w top-k prefixes, projected onto the first
    n-1 coordinates and padded to w points with copies of the first point,
    go to :func:`_ewv_log_rows` as one (G w, w, n-1) batch of (s_k, m_k), and
    mantissa = sum_k exp(z_(k) + s_k - shift) (1 - exp(z_(k+1) - z_(k))) m_k.
    z_(k) + s_k is a coordinate sum of the cloud, so no term exceeds
    ``shift``, its largest.  A cloud's pads sort next to their original, so
    their z steps are 0 and their terms exact zeros; a prefix's pads are
    copies that the maxima filter drops.  The sum runs in z order, one cloud
    per lane, so a cloud's bits depend neither on its padding nor on its
    batch-mates.
    """
    w, G, n = pts.shape
    pts = np.take_along_axis(pts, np.argsort(-pts[:, :, -1], axis=0)[:, :, None], axis=0)
    zs = pts[:, :, -1]
    top = np.tri(w, dtype=bool)[:, :, None]  # (k, slot): the top k+1 points, then pads
    low = pts[:, :, :-1].transpose(1, 0, 2)[:, None]  # (G, 1, w, n-1)
    sub_shift, sub_mant = _ewv_log_rows(np.where(top, low, low[:, :, :1]).reshape(G * w, w, n - 1))
    terms = np.exp(zs + sub_shift.reshape(G, w).T - shift)
    terms *= -np.expm1(np.diff(zs, axis=0, append=-np.inf))
    terms *= sub_mant.reshape(G, w).T
    return np.add.accumulate(terms, axis=0)[-1]


def _ewv_sweep_log_rows(points: np.ndarray):
    """(shift, mantissa) of clouds (R, m, n), n >= 3: the maxima filter, then padded sweeps.

    The filter runs in chunks of at most ``_CHUNK_ELEMENTS // ((n + 1) m)``
    clouds, so its (point, cloud) arrays together stay near
    ``_CHUNK_ELEMENTS`` elements.  Clouds are then grouped by the bucket of
    their survivor count (:func:`_sweep_bucket`), each group padded to its
    largest count w with copies of each cloud's first survivor placed before
    it, and swept by :func:`_ewv3_mantissa` (n = 3) or
    :func:`_ewv_slice_mantissa` in batches of at most
    ``_CHUNK_ELEMENTS // ((n - 1) w**2)`` clouds.
    """
    R, m, n = points.shape
    shift = np.empty(R)
    counts = np.empty(R, dtype=np.intp)
    survivors = [np.empty(0, dtype=np.intp)]
    rows = max(1, _CHUNK_ELEMENTS // ((n + 1) * m))
    for lo in range(0, R, rows):
        part = slice(lo, min(lo + rows, R))
        shift[part], counts[part], kept = _maxima(points[part])
        survivors.append(kept)
    survivors = np.concatenate(survivors)
    start = np.cumsum(counts) - counts
    buckets = np.array([_sweep_bucket(count) for count in range(m + 1)])[counts]
    mantissa = np.empty(R)
    kernel = _ewv3_mantissa if n == 3 else _ewv_slice_mantissa
    for bucket in np.flatnonzero(np.bincount(buckets)).tolist():
        group = np.flatnonzero(buckets == bucket)
        w = int(counts[group].max())
        batch = max(1, _CHUNK_ELEMENTS // ((n - 1) * w * w))
        for lo in range(0, group.size, batch):
            clouds = group[lo : lo + batch]
            slot = np.maximum(np.arange(w)[:, None] - (w - counts[clouds]), 0)  # pads repeat slot 0
            j = survivors[start[clouds] + slot]  # (w, G)
            mantissa[clouds] = kernel(points[clouds, j], shift[clouds])
    return shift, mantissa


def _ewv_log_rows(points: np.ndarray):
    """(shift, mantissa) of clouds (R, m, n) for every n, in row chunks.

    n >= 3 is :func:`_ewv_sweep_log_rows`.  For n <= 2 each chunk holds at most
    ``_CHUNK_ELEMENTS // m**(n - 1)`` clouds (a quarter of that for n = 2;
    at least one), so no temporary of a kernel grows with R.  Every cloud
    is reduced on its own, so the chunking leaves every bit of the result.
    """
    R, m, n = points.shape
    if n >= 3:
        return _ewv_sweep_log_rows(points)
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
            _require_finite(shift[part], pts[:, :, 0].min())
        else:
            shift[part], mantissa[part] = _ewv_staircase_log_rows(pts[:, :, 0], pts[:, :, 1])
    return shift, mantissa


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

    n = 1 is the maximum, n = 2 the staircase and every n >= 3 the maxima
    filter followed by a sweep of the survivors (at n >= 4 a slice of the
    last coordinate, down to the n = 3 sweep), each vectorized over many
    clouds, whose pads add exact zeros.  ``points`` may be any
    strided view, such as ``np.moveaxis`` of an (n, R, m) block of
    coordinate planes; it is never copied whole.  The result does not depend
    on the order of the points within a cloud, except in the rounding of
    clouds with exactly tied coordinates (see the module docstring).  Raises
    :class:`DomainError` unless ``points`` holds real, finite numbers.
    """
    # ``gen`` is unused: perfbench/run.py and perfbench/probes.py pass it, and
    # the benchmark stays fixed so that its timings compare across versions.
    points = require_real_array(points, "points")
    if points.ndim != 3 or not points.shape[1] or not points.shape[2]:
        raise DomainError(f"points must have shape (R, m, n) with m, n >= 1, got {points.shape}")
    shift, mantissa = _ewv_log_rows(points)
    return np.exp(shift) * mantissa
