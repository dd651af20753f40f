"""Exact Gaussian path simulation on uniform grids.

Stationary sequences (fractional Gaussian noise and the exponential-
correlation family) are sampled by circulant embedding: the covariance
sequence is folded into a circulant first row, diagonalized by the FFT,
and complex-normal coefficients with the matching spectrum are transformed
back.  Eigenvalues slightly below zero (>= -1e-8 of the maximum) are
clamped with a logged warning; deeper negativity triggers up to three
padding doublings before the embedding is declared infeasible.  Fractional
Brownian motion is the prefix sum of fractional Gaussian noise, exact in
distribution.  A dense symmetric-square-root sampler serves as the
independent oracle for cross-validation.
"""
from __future__ import annotations

import logging
import struct
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .errors import DomainError, EmbeddingError, FactorizationError, UnsupportedModelError
from .processes import (
    FractionalBrownian,
    LocallyStationary,
    NonStationary,
    Stationary,
    VectorProcessSpec,
    ensure_valid,
)
from .rng import RngStream

logger = logging.getLogger(__name__)

__all__ = [
    "SampleGrid",
    "PathBatch",
    "sample_fbm",
    "sample_vector",
    "sample_cholesky_oracle",
    "write_path_dump",
    "read_path_dump",
    "FgnSampler",
    "StationarySampler",
]

DUMP_MAGIC = b"GPB1"


@dataclass(frozen=True)
class SampleGrid:
    """Uniform grid origin + j*step for 0 <= j < count."""

    origin: float
    step: float
    count: int

    def __post_init__(self):
        if not self.step > 0:
            raise DomainError(f"grid step must be positive, got {self.step}")
        if self.count < 1:
            raise DomainError(f"grid count must be >= 1, got {self.count}")

    def nodes(self) -> np.ndarray:
        return self.origin + self.step * np.arange(self.count)

    @property
    def span(self) -> float:
        return self.step * (self.count - 1)


@dataclass
class PathBatch:
    """R replications of an n-coordinate path on a common grid.

    ``values`` has shape (replications, n_coords, count); coordinates are
    mutually independent within each replication.
    """

    grid: SampleGrid
    n_coords: int
    replications: int
    values: np.ndarray

    def __post_init__(self):
        expected = (self.replications, self.n_coords, self.grid.count)
        if self.values.shape != expected:
            raise DomainError(f"values shape {self.values.shape} != {expected}")


# -- circulant embedding -----------------------------------------------------

_CLAMP_REL = 1e-8
_MAX_DOUBLINGS = 3


def _embedding_eigenvalues(cov_of_lag, m, max_doublings=_MAX_DOUBLINGS):
    """Eigenvalues of the circulant extension of a length-m covariance sequence.

    ``cov_of_lag`` maps an integer lag array to covariances.  Doubles the
    padding until all eigenvalues clear -1e-8 of the maximum; tiny negatives
    are clamped to zero.
    """
    if m == 1:
        return np.asarray([float(cov_of_lag(np.asarray([0])))]), 1
    size = 1
    while size < 2 * (m - 1):
        size *= 2
    for _ in range(max_doublings + 1):
        lags = np.arange(size)
        folded = np.minimum(lags, size - lags)
        row = np.asarray(cov_of_lag(folded), dtype=float)
        eigs = np.fft.fft(row).real
        floor = -_CLAMP_REL * eigs.max()
        if eigs.min() >= floor:
            n_neg = int((eigs < 0).sum())
            if n_neg:
                logger.warning(
                    "clamped %d slightly negative embedding eigenvalues (min %.3e)",
                    n_neg,
                    eigs.min(),
                )
            return np.clip(eigs, 0.0, None), size
        size *= 2
    raise EmbeddingError(
        f"circulant eigenvalues below {-_CLAMP_REL:.0e} of max after "
        f"{max_doublings} padding doublings; fall back to sample_cholesky_oracle"
    )


def _circulant_draw(eigs, size, count, R, gen):
    """R stationary Gaussian rows of length count with the embedded covariance.

    Draw order is fixed (two real Fourier modes, then the paired modes) so a
    given generator state always produces the same batch.
    """
    if size == 1:
        return np.sqrt(eigs[0]) * gen.standard_normal((R, 1))
    half = size // 2
    w = np.zeros((R, size), dtype=complex)
    w[:, 0] = np.sqrt(eigs[0] / size) * gen.standard_normal(R)
    w[:, half] = np.sqrt(eigs[half] / size) * gen.standard_normal(R)
    if half > 1:
        uv = gen.standard_normal((R, 2, half - 1))
        modes = np.sqrt(eigs[1:half] / (2.0 * size)) * (uv[:, 0] + 1j * uv[:, 1])
        w[:, 1:half] = modes
        w[:, half + 1 :] = np.conj(modes[:, ::-1])
    return np.fft.fft(w, axis=1).real[:, :count]


class FgnSampler:
    """Batch sampler for fractional Gaussian noise increments on a fixed grid.

    kappa = 1 increments are independent and kappa = 2 increments are one
    shared normal (the path is a.s. linear); both are drawn directly.  All
    other exponents go through circulant embedding.
    """

    def __init__(self, kappa, step, count):
        if not 0 < kappa <= 2:
            raise DomainError(f"kappa={kappa} outside (0, 2]")
        self.kappa = float(kappa)
        self.step = float(step)
        self.count = int(count)
        if self.kappa in (1.0, 2.0):
            self._eigs = None
            return
        scale = self.step**self.kappa

        def cov(lags):
            k = np.abs(lags).astype(float)
            return 0.5 * scale * ((k + 1) ** kappa - 2 * k**kappa + np.abs(k - 1) ** kappa)

        self._eigs, self._size = _embedding_eigenvalues(cov, self.count)

    def increments(self, R, gen) -> np.ndarray:
        if self._eigs is None:
            if self.kappa == 1.0:
                return np.sqrt(self.step) * gen.standard_normal((R, self.count))
            xi = gen.standard_normal(R)
            return np.broadcast_to(self.step * xi[:, None], (R, self.count)).copy()
        return _circulant_draw(self._eigs, self._size, self.count, R, gen)


class StationarySampler:
    """Batch sampler for the unit-variance exponential-correlation family.

    kappa = 1 uses the exact AR(1) recursion (the correlation is Markov);
    other exponents go through circulant embedding.
    """

    def __init__(self, a, kappa, step, count):
        if not a > 0:
            raise DomainError(f"a={a} must be positive")
        if not 0 < kappa <= 2:
            raise DomainError(f"kappa={kappa} outside (0, 2]")
        self.a = float(a)
        self.kappa = float(kappa)
        self.step = float(step)
        self.count = int(count)
        if kappa == 1.0 or count == 1:
            self._eigs = None
        else:

            def cov(lags):
                h = np.abs(lags).astype(float) * step
                return np.exp(-a * h**kappa)

            self._eigs, self._size = _embedding_eigenvalues(cov, self.count)

    def sample(self, R, gen) -> np.ndarray:
        if self._eigs is None:
            rho = np.exp(-self.a * self.step)
            xi = gen.standard_normal((R, self.count))
            if self.count == 1:
                return xi
            xi[:, 1:] *= np.sqrt(1.0 - rho * rho)
            return lfilter([1.0], [1.0, -rho], xi, axis=1)
        return _circulant_draw(self._eigs, self._size, self.count, R, gen)


# -- public sampling operations ----------------------------------------------


def sample_fbm(kappa, grid: SampleGrid, R: int, stream: RngStream) -> PathBatch:
    """Exact fractional Brownian paths with B(0) = 0 on a grid starting at 0.

    Increments come from circulant embedding of fractional Gaussian noise and
    are prefix-summed; kappa = 2 degenerates to the a.s. linear path t * xi.
    """
    if grid.origin != 0.0:
        raise DomainError("sample_fbm requires grid.origin == 0")
    if R < 1:
        raise DomainError("R must be >= 1")
    values = np.zeros((R, 1, grid.count))
    if grid.count > 1:
        sampler = FgnSampler(kappa, grid.step, grid.count - 1)
        inc = sampler.increments(R, stream.generator())
        np.cumsum(inc, axis=1, out=values[:, 0, 1:])
    return PathBatch(grid, 1, R, values)


def _locally_stationary_block_values(coord, grid, R, gen, horizon):
    nodes = grid.nodes()
    block_len = horizon / coord.block_count
    idx = np.minimum((nodes / block_len).astype(int), coord.block_count - 1)
    out = np.empty((R, grid.count))
    pos = 0
    for b in range(coord.block_count):
        sel = np.flatnonzero(idx == b)
        if sel.size == 0:
            continue
        if not np.array_equal(sel, np.arange(pos, pos + sel.size)):
            raise UnsupportedModelError("grid nodes must be contiguous within frozen blocks")
        pos += sel.size
        a_frozen = float(coord.a_profile((b + 0.5) * block_len))
        if a_frozen <= 0:
            raise UnsupportedModelError(f"a_profile must stay positive, got {a_frozen} in block {b}")
        sampler = StationarySampler(a_frozen, coord.kappa, grid.step, sel.size)
        out[:, sel] = sampler.sample(R, gen)
    return out


def sample_vector(spec: VectorProcessSpec, grid: SampleGrid, R: int, stream: RngStream) -> PathBatch:
    """Sample R paths of every coordinate of a validated vector process.

    Coordinates are sampled independently (coordinate-major draw order on
    per-coordinate child streams).  Non-stationary coordinates are the
    sigma profile times a unit-variance path; locally stationary ones use
    the piecewise-frozen scheme.  The grid must lie inside [0, T].
    """
    ensure_valid(spec)
    if R < 1:
        raise DomainError("R must be >= 1")
    nodes = grid.nodes()
    if nodes[0] < -1e-12 or nodes[-1] > spec.horizon_T * (1 + 1e-12) + 1e-12:
        raise DomainError("grid extends outside the process horizon [0, T]")
    values = np.empty((R, spec.n, grid.count))
    for i, coord in enumerate(spec.coords):
        gen = stream.child("coord", i).generator()
        if isinstance(coord, Stationary):
            sampler = StationarySampler(coord.a, coord.kappa, grid.step, grid.count)
            values[:, i, :] = sampler.sample(R, gen)
        elif isinstance(coord, LocallyStationary):
            values[:, i, :] = _locally_stationary_block_values(coord, grid, R, gen, spec.horizon_T)
        elif isinstance(coord, NonStationary):
            sampler = StationarySampler(coord.a, coord.alpha, grid.step, grid.count)
            values[:, i, :] = sampler.sample(R, gen) * coord.sigma_profile(nodes)
        elif isinstance(coord, FractionalBrownian):
            offset = grid.origin / grid.step
            j0 = int(round(offset))
            if abs(offset - j0) > 1e-9 or j0 < 0:
                raise UnsupportedModelError(
                    "fractional Brownian coordinates need the grid origin to be a "
                    "non-negative multiple of the step"
                )
            full = SampleGrid(0.0, grid.step, grid.count + j0)
            batch = sample_fbm(coord.kappa, full, R, stream.child("coord", i))
            values[:, i, :] = batch.values[:, 0, j0:]
        else:
            raise UnsupportedModelError(f"unknown coordinate type {type(coord)!r}")
    return PathBatch(grid, spec.n, R, values)


def sample_cholesky_oracle(cov, R: int, stream: RngStream, grid: SampleGrid | None = None) -> PathBatch:
    """Exact Gaussian samples from an explicit covariance matrix.

    Factorizes by symmetric eigendecomposition, truncating the rank at zero
    (eigenvalues below -1e-10 * trace are an error).  Independent of the FFT
    path, so it cross-validates the circulant samplers.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise DomainError("cov must be a square matrix")
    scale = max(1.0, float(np.abs(cov).max()))
    if np.abs(cov - cov.T).max() > 1e-12 * scale:
        raise DomainError("cov must be symmetric")
    m = cov.shape[0]
    eigval, eigvec = np.linalg.eigh(cov)
    tol = -1e-10 * max(np.trace(cov), 1e-300)
    if eigval.min() < tol:
        raise FactorizationError(
            f"matrix indefinite beyond tolerance: min eigenvalue {eigval.min():.3e}"
        )
    root = eigvec * np.sqrt(np.clip(eigval, 0.0, None))
    draws = stream.generator().standard_normal((R, m))
    values = (draws @ root.T)[:, None, :]
    if grid is None:
        grid = SampleGrid(0.0, 1.0, m)
    return PathBatch(grid, 1, R, values)


# -- raw path dump -------------------------------------------------------------

_HEADER = struct.Struct("<III d d")


def write_path_dump(batch: PathBatch, path) -> None:
    """Binary dump: magic 'GPB1', u32 (n, m, R), f64 (step, origin), then
    little-endian f64 values in replication-major, coordinate-major,
    node-minor order."""
    with open(path, "wb") as fh:
        fh.write(DUMP_MAGIC)
        fh.write(
            _HEADER.pack(
                batch.n_coords, batch.grid.count, batch.replications, batch.grid.step, batch.grid.origin
            )
        )
        fh.write(np.ascontiguousarray(batch.values, dtype="<f8").tobytes())


def read_path_dump(path) -> PathBatch:
    """Read a :func:`write_path_dump` file; a short header, a truncated body
    or trailing bytes raise :class:`DomainError`."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != DUMP_MAGIC:
            raise DomainError(f"not a path dump (magic {magic!r})")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise DomainError(f"path dump header has {len(header)} bytes, expected {_HEADER.size}")
        n, m, R, step, origin = _HEADER.unpack(header)
        size = 8 * n * m * R
        body = fh.read(size + 1)
    if len(body) < size:
        raise DomainError(f"truncated path dump: {len(body)} of {size} body bytes for (n, m, R) = {(n, m, R)}")
    if len(body) > size:
        raise DomainError(f"trailing bytes after the {size}-byte body of a path dump")
    data = np.frombuffer(body, dtype="<f8").astype(float)
    grid = SampleGrid(origin, step, m)
    return PathBatch(grid, n, R, data.reshape(R, n, m))
