"""Exact Gaussian path simulation on uniform grids.

Stationary sequences (fractional Gaussian noise and the exponential-
correlation family) are drawn by one of three methods, chosen once when a
sampler is built and recorded as its ``method``:

* ``"direct"``: independent normals where the law allows it (Brownian
  increments, the kappa = 1 AR(1) recursion, the a.s. linear kappa = 2
  fractional Brownian path, a single stationary node).
* ``"circulant"``: circulant embedding (Wood & Chan 1994, Dietrich &
  Newsam 1997).  The covariance sequence is folded into a circulant first
  row of length ``size`` and diagonalized by the FFT; a draw fills only the
  half spectrum of each row with complex normals scaled by the eigenvalues
  and transforms it back with one real inverse FFT.
* ``"dense"``: the lower Cholesky factor L of the m x m Toeplitz
  covariance (a clipped symmetric square root if Cholesky fails); a draw
  is ``standard_normal((R, m)) @ L.T``.

The embedding is always computed first, at the least power-of-two size
that holds the sequence.  Eigenvalues slightly below zero (>= -1e-8 of the
maximum) are clamped with a logged warning; deeper negativity makes the
embedding infeasible at that size.  The rule in :func:`_plan_draw` picks
the method from that outcome.  A feasible embedding of least size stays
circulant.  A padded one would draw at least four normals per node, and
the dense draw measured cheaper on every padded spec up to
``_DENSE_MAX_NODES`` = 2049 nodes (with one BLAS thread, 2048 rows: 142
against 582 ms at 1025 nodes padded 4x, 484 against 578 ms at 2049 nodes
padded 2x), so up to that cap an infeasible least embedding goes dense and
no padded one is computed; the clamps logged are those of the embedding
that is drawn.  Above that cap, where the factor would pass 32 MB, the
padding doubles up to three times: a padded embedding stays circulant and
one still infeasible raises :class:`EmbeddingError`.  So kappa > 1 on short
spans goes dense, while fractional Gaussian noise, whose least embedding is
nonnegative definite, stays circulant.

Fractional Brownian motion is the prefix sum of fractional Gaussian noise,
exact in distribution; :meth:`FgnSampler.path` is the one place that forms
it, in place from B(0) = 0.  :func:`coordinate_samplers` builds the samplers
of every coordinate of a vector process once, so an estimator can draw every
replication block with them.  A dense symmetric-square-root sampler serves
as the independent oracle for cross-validation.

Every draw takes an optional ``out``: the sampler methods, the circulant
and dense kernels and the ``draw`` closures of :func:`coordinate_samplers`
write their rows into it and return it.  ``out`` may be any writable
strided view, such as one coordinate plane ``values[:, i, :]`` of a larger
block.  A draw into ``out`` consumes the same normals in the same order as
one without, so the two agree bit for bit and leave the generator in the
same state.  Normals are drawn, and the AR(1) recursion runs, in row chunks
of at most ``_CHUNK_ELEMENTS`` entries (8 MB) that continue one stream.  The
circulant draw builds and transforms its spectrum in smaller row chunks, of
at most ``_SPECTRUM_ELEMENTS`` embedding entries (64 rows at size 1024, a
0.5 MB complex half spectrum).  So beside ``out`` a draw holds only
chunk-sized temporaries, and a chunk is released before the next is drawn.
Every row of a circulant draw is the same whatever its chunk, but a dense
product of another row count may round differently, so the normal-row chunk
stays at ``_CHUNK_ELEMENTS``.  Only an fBm coordinate on a grid that starts
after the origin builds its longer path from B(0) = 0 whole and copies the
tail into ``out``.

Every draw also takes an optional ``rows``, a sorted array of distinct row
indices of the R-row draw.  A restricted draw consumes the generator
exactly as the full R-row draw does, so it ends in the same state, and it
writes only the selected rows, in order, into ``out`` of shape
``(len(rows), count)``.  The dense draw multiplies only the selected rows
of each normal chunk and the circulant draw transforms only the selected
spectrum rows; the direct draws select their rows before the row-wise
scaling or recursion.  So every restricted row equals the full draw's row
bit for bit, except that a dense product may round its last bits
differently (BLAS blocks a different row count differently).  A ``rows``
that selects all R rows is the full draw.
"""
from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmbeddingError, FactorizationError, UnsupportedModelError
from .parallel import _one_blas_thread
from .processes import (
    LocallyStationary,
    NonStationary,
    Stationary,
    VectorProcessSpec,
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
    "coordinate_samplers",
]

DUMP_MAGIC = b"GPB1"


@dataclass(frozen=True)
class SampleGrid:
    """Uniform grid origin + j*step for 0 <= j < count."""

    origin: float
    step: float
    count: int

    def __post_init__(self):
        if not math.isfinite(self.origin):
            raise DomainError(f"grid origin must be finite, got {self.origin}")
        if not (math.isfinite(self.step) and self.step > 0):
            raise DomainError(f"grid step must be finite and positive, got {self.step}")
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


# -- circulant embedding and dense factor --------------------------------------

_CLAMP_REL = 1e-8
_MAX_DOUBLINGS = 3
# Entries drawn per chunk of rows in _normal_rows (8 MB).
_CHUNK_ELEMENTS = 2**20
# Embedding entries per chunk of rows in _circulant_draw: 64 rows at size 1024,
# whose half spectrum, normals and transform hold 0.5 MB each, so a chunk stays
# within a per-core L2 cache.
_SPECTRUM_ELEMENTS = 2**16
# Largest node count drawn by a dense factor: 2049^2 doubles are 32 MB.
_DENSE_MAX_NODES = 2049


def _rows_out(out, R, rows, count):
    """``out``, or a new array for the draw's rows: ``(R, count)``, or ``(len(rows), count)``."""
    if out is None:
        out = np.empty((R if rows is None else len(rows), count))
    return out


def _row_chunks(R, step, rows):
    """``(r0, r1, dest, pick)`` for the consecutive chunks of at most ``step`` of R rows.

    ``dest`` slices the output rows that chunk ``r0:r1`` fills and ``pick``
    indexes them within the chunk: every row (``slice(None)``) when ``rows``
    is None or selects all R, otherwise the chunk's entries of ``rows``.
    """
    if rows is not None and len(rows) == R:
        rows = None
    for r0 in range(0, R, step):
        r1 = min(R, r0 + step)
        if rows is None:
            yield r0, r1, slice(r0, r1), slice(None)
        else:
            i0, i1 = np.searchsorted(rows, (r0, r1))
            yield r0, r1, slice(i0, i1), rows[i0:i1] - r0


def _embedding_eigenvalues(cov_of_lag, m, doublings=_MAX_DOUBLINGS):
    """``(eigenvalues, size)`` of the circulant extension of a length-m covariance sequence.

    ``cov_of_lag`` maps an integer lag array to covariances.  Starts at the
    least power of two >= 2 (m - 1) and doubles the padding, at most
    ``doublings`` times, until all eigenvalues clear -1e-8 of the maximum;
    tiny negatives are clamped to zero.  Raises :class:`EmbeddingError` when
    that does not suffice.
    """
    if m == 1:
        return np.asarray([float(cov_of_lag(np.zeros(1, dtype=int))[0])]), 1
    size = 1
    while size < 2 * (m - 1):
        size *= 2
    for _ in range(doublings + 1):
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
        f"circulant eigenvalues of {m} nodes below {-_CLAMP_REL:.0e} of max after "
        f"{doublings} padding doublings (the dense factor takes at most "
        f"{_DENSE_MAX_NODES} nodes)"
    )


def _mode_scale(eigs, size):
    """Per-mode scale of the half spectrum that :func:`_circulant_draw` fills.

    The two real modes (0 and size/2) carry ``sqrt(size * eig)``; each paired
    mode carries ``sqrt(size * eig / 2)`` on its real and imaginary part.
    """
    half = size // 2
    weight = np.full(half + 1, size / 2.0)
    weight[[0, half]] = size
    return np.sqrt(eigs[: half + 1] * weight)


def _circulant_draw(scale, size, count, R, gen, out=None, rows=None):
    """R stationary Gaussian rows of length count with the embedded covariance.

    Fills the half spectrum ``(R, size/2 + 1)`` and transforms it with a
    real inverse FFT, one chunk of at most ``_SPECTRUM_ELEMENTS`` embedding
    entries at a time so the working set stays within about 2 MB.  Draw
    order is fixed: the normals of mode 0 for all rows, then of mode size/2, then the
    ``(R, 2, size/2 - 1)`` real and imaginary parts of the paired modes in
    row order, so a given generator state always produces the same batch
    whatever the chunking.  The paired modes enter conjugated, because the
    real part of the forward FFT of a Hermitian spectrum w is
    ``size * irfft(conj(w[:size/2 + 1]))``.  The rows go into ``out``, an
    ``(R, count)`` array or view, when given.  With ``rows`` every normal is
    still drawn, but only the selected spectrum rows are built and
    transformed.
    """
    out = _rows_out(out, R, rows, count)
    if size == 1:
        z = gen.standard_normal((R, 1))
        np.multiply(scale[0], z if rows is None else z[rows], out=out)
        return out
    half = size // 2
    first = scale[0] * gen.standard_normal(R)
    last = scale[half] * gen.standard_normal(R)
    paired = scale[1:half]
    for r0, r1, dest, pick in _row_chunks(R, max(1, _SPECTRUM_ELEMENTS // size), rows):
        spectrum = np.empty((dest.stop - dest.start, half + 1), dtype=complex)
        uv = gen.standard_normal((r1 - r0, 2, half - 1))[pick]
        spectrum[:, 0] = first[r0:r1][pick]
        spectrum[:, half] = last[r0:r1][pick]
        np.multiply(uv[:, 0], paired, out=spectrum.real[:, 1:half])
        np.multiply(uv[:, 1], -paired, out=spectrum.imag[:, 1:half])
        del uv  # freed before the transform allocates its output
        out[dest] = np.fft.irfft(spectrum, n=size, axis=1)[:, :count]
    return out


def _dense_factor(cov_of_lag, m):
    """A factor L with ``L @ L.T`` the m x m Toeplitz covariance ``row[|j - k|]``.

    The lower Cholesky factor; where rounding leaves the matrix numerically
    indefinite, the symmetric square root with its negative eigenvalues
    clipped to zero, as :func:`sample_cholesky_oracle` factorizes.  Either
    runs on one BLAS thread: the factor's last bits depend on the count.
    """
    row = np.asarray(cov_of_lag(np.arange(m)), dtype=float)
    nodes = np.arange(m)
    cov = row[np.abs(nodes[:, None] - nodes[None, :])]
    with _one_blas_thread():
        try:
            return np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            eigval, eigvec = np.linalg.eigh(cov)
            return eigvec * np.sqrt(np.clip(eigval, 0.0, None))


def _normal_rows(R, m, gen, rows, fill):
    """Call ``fill(dest, z)`` per chunk: a slice of the output rows and their ``standard_normal`` draws.

    Each chunk draws at most ``_CHUNK_ELEMENTS`` entries.  The chunks
    continue one stream, so they are the rows of a single (R, m) call
    whatever the chunking.  With ``rows``, z keeps the chunk's selected rows
    and ``dest`` slices the ``len(rows)`` output rows; every chunk is still
    drawn, and one without a selected row is not passed on.
    """
    for r0, r1, dest, pick in _row_chunks(R, max(1, _CHUNK_ELEMENTS // max(m, 1)), rows):
        z = gen.standard_normal((r1 - r0, m))[pick]
        if len(z):
            fill(dest, z)
        del z  # freed before the next chunk is drawn


def _dense_draw(factor, R, gen, out=None, rows=None):
    """R rows ``standard_normal((R, m)) @ factor.T``, into ``out`` when given.

    With ``rows`` only the selected rows of each normal chunk are multiplied.
    """
    m = factor.shape[0]
    out = _rows_out(out, R, rows, m)
    _normal_rows(R, m, gen, rows, lambda dest, z: np.matmul(z, factor.T, out=out[dest]))
    return out


def _plan_draw(cov_of_lag, m):
    """``(method, size, factor)`` of the draw of a length-m stationary sequence.

    Circulant (``factor`` the mode scale, ``size`` the embedding size) when
    the embedding is feasible: at its least size up to ``_DENSE_MAX_NODES``
    nodes, after at most three padding doublings beyond.  Otherwise dense
    (``factor`` the Toeplitz factor, ``size`` = m) up to the cap, and
    :class:`EmbeddingError` beyond it.
    """
    dense_ok = m <= _DENSE_MAX_NODES
    try:
        eigs, size = _embedding_eigenvalues(cov_of_lag, m, 0 if dense_ok else _MAX_DOUBLINGS)
    except EmbeddingError:
        if not dense_ok:
            raise
        return "dense", m, _dense_factor(cov_of_lag, m)
    return "circulant", size, _mode_scale(eigs, size)


def _planned_draw(sampler, R, gen, out, rows):
    """R rows, or the selected ``rows``, from a sampler whose ``method`` is circulant or dense."""
    if sampler.method == "circulant":
        return _circulant_draw(sampler._factor, sampler.size, sampler.count, R, gen, out, rows)
    return _dense_draw(sampler._factor, R, gen, out, rows)


class FgnSampler:
    """Batch sampler for fractional Gaussian noise increments on a fixed grid.

    kappa = 1 increments are independent and kappa = 2 increments are one
    shared normal (the path is a.s. linear); both are drawn directly, as is
    the empty draw of ``count`` = 0.  All other exponents use the circulant
    or the dense draw that :func:`_plan_draw` picks.  ``method`` records the
    choice and ``size`` the length of each row's draw (the embedding size
    for circulant, the node count otherwise).
    """

    def __init__(self, kappa, step, count):
        if not 0 < kappa <= 2:
            raise DomainError(f"kappa={kappa} outside (0, 2]")
        self.kappa = float(kappa)
        self.step = float(step)
        self.count = int(count)
        if self.kappa in (1.0, 2.0) or self.count == 0:
            self.method, self.size, self._factor = "direct", self.count, None
            return
        scale = self.step**self.kappa

        def cov(lags):
            k = np.abs(lags).astype(float)
            return 0.5 * scale * ((k + 1) ** kappa - 2 * k**kappa + np.abs(k - 1) ** kappa)

        self.method, self.size, self._factor = _plan_draw(cov, self.count)

    def increments(self, R, gen, out=None, rows=None) -> np.ndarray:
        """``(R, count)`` increments, written into ``out`` and returned when given.

        With ``rows`` only those rows of the R-row draw, ``(len(rows), count)``.
        """
        if self.method != "direct":
            return _planned_draw(self, R, gen, out, rows)
        out = _rows_out(out, R, rows, self.count)
        if self.kappa == 1.0:
            root = np.sqrt(self.step)
            _normal_rows(R, self.count, gen, rows, lambda dest, z: np.multiply(root, z, out=out[dest]))
        else:
            xi = self.step * gen.standard_normal(R)
            out[:] = (xi if rows is None else xi[rows])[:, None]
        return out

    def path(self, R, gen, out=None, rows=None) -> np.ndarray:
        """``(R, count + 1)`` fractional Brownian paths from B(0) = 0, into ``out`` when given.

        The :meth:`increments` are drawn into ``out[:, 1:]`` and prefix-summed
        in place.  With ``count`` = 0 the path is the one node B(0) = 0.
        With ``rows`` only those rows of the R-row draw.
        """
        out = _rows_out(out, R, rows, self.count + 1)
        out[:, 0] = 0.0
        if self.count:
            steps = self.increments(R, gen, out=out[:, 1:], rows=rows)
            np.cumsum(steps, axis=1, out=steps)
        return out


class StationarySampler:
    """Batch sampler for the unit-variance exponential-correlation family.

    kappa = 1 uses the exact AR(1) recursion (the correlation is Markov),
    which on a single node is one normal, whatever kappa; other exponents
    use the circulant or the dense draw that :func:`_plan_draw` picks,
    recorded in ``method`` and ``size`` as for :class:`FgnSampler`.
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
            self.method, self.size, self._factor = "direct", self.count, None
        else:

            def cov(lags):
                h = np.abs(lags).astype(float) * step
                return np.exp(-a * h**kappa)

            self.method, self.size, self._factor = _plan_draw(cov, self.count)

    def sample(self, R, gen, out=None, rows=None) -> np.ndarray:
        """``(R, count)`` unit-variance rows, written into ``out`` and returned when given.

        With ``rows`` only those rows of the R-row draw, ``(len(rows), count)``.
        """
        if self.method != "direct":
            return _planned_draw(self, R, gen, out, rows)
        out = _rows_out(out, R, rows, self.count)
        rho = np.exp(-self.a * self.step)

        def recur(dest, xi):
            xi[:, 1:] *= np.sqrt(1.0 - rho * rho)
            for j in range(1, self.count):
                xi[:, j] += rho * xi[:, j - 1]
            out[dest] = xi

        _normal_rows(R, self.count, gen, rows, recur)
        return out

    def __call__(self, R, gen, out=None, rows=None) -> np.ndarray:
        """:meth:`sample`: the sampler is itself the draw of a stationary coordinate."""
        return self.sample(R, gen, out, rows)


# -- public sampling operations ----------------------------------------------


def _described(draw, samplers):
    """``draw`` with the ``method`` and ``size`` of the samplers it runs.

    The distinct methods are joined by "+" in order, and ``size`` is the sum
    of the sizes: the length of each row's draw.
    """
    draw.method = "+".join(dict.fromkeys(s.method for s in samplers))
    draw.size = sum(s.size for s in samplers)
    return draw


def _fbm_draw(kappa, grid):
    """``draw(R, gen, out=None, rows=None)``: fractional Brownian paths with B(0) = 0 on ``grid``.

    The grid origin must be a non-negative multiple j0 of the step.  The
    path is :meth:`FgnSampler.path` on j0 + count nodes from the origin,
    written straight into ``out`` when j0 = 0 and sliced at j0 otherwise.
    """
    offset = grid.origin / grid.step
    j0 = int(round(offset))
    if abs(offset - j0) > 1e-9 or j0 < 0:
        raise UnsupportedModelError(
            "fractional Brownian coordinates need the grid origin to be a "
            "non-negative multiple of the step"
        )
    sampler = FgnSampler(kappa, grid.step, grid.count + j0 - 1)

    def draw(R, gen, out=None, rows=None):
        if j0 == 0:
            return sampler.path(R, gen, out, rows)
        path = sampler.path(R, gen, rows=rows)[:, j0:]
        if out is None:
            return path
        out[:] = path
        return out

    return _described(draw, [sampler])


def sample_fbm(kappa, grid: SampleGrid, R: int, stream: RngStream) -> PathBatch:
    """Exact fractional Brownian paths with B(0) = 0 on a grid starting at 0.

    Increments are fractional Gaussian noise, prefix-summed; kappa = 2
    degenerates to the a.s. linear path t * xi.
    """
    if grid.origin != 0.0:
        raise DomainError("sample_fbm requires grid.origin == 0")
    if R < 1:
        raise DomainError("R must be >= 1")
    values = _fbm_draw(kappa, grid)(R, stream.generator())
    return PathBatch(grid, 1, R, values[:, None, :])


def _locally_stationary_draw(coord, grid, horizon, stationary):
    """``draw(R, gen, out=None, rows=None)`` of the piecewise-frozen scheme, one sampler per block."""
    nodes = grid.nodes()
    block_len = horizon / coord.block_count
    idx = np.minimum((nodes / block_len).astype(int), coord.block_count - 1)
    blocks = []
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
        blocks.append((slice(sel[0], pos), stationary(a_frozen, coord.kappa, sel.size)))

    def draw(R, gen, out=None, rows=None):
        out = _rows_out(out, R, rows, grid.count)
        for sel, sampler in blocks:
            sampler.sample(R, gen, out=out[:, sel], rows=rows)
        return out

    return _described(draw, [sampler for _, sampler in blocks])


def _profiled_draw(sampler, sigma):
    """``draw(R, gen, out=None, rows=None)`` of the sigma profile times a unit-variance path."""

    def draw(R, gen, out=None, rows=None):
        out = sampler.sample(R, gen, out, rows)
        out *= sigma
        return out

    return _described(draw, [sampler])


def coordinate_samplers(spec: VectorProcessSpec, grid: SampleGrid) -> tuple:
    """One ``draw(R, gen, out=None, rows=None) -> (R, grid.count)`` per coordinate of ``spec`` on ``grid``.

    Builds every embedding and dense factor once, so an estimator builds
    these outside its replication blocks and passes them to
    :func:`sample_vector` in each block.  Coordinates (and frozen blocks)
    with equal parameters share one sampler; a stationary coordinate's draw
    is its :class:`StationarySampler`.  Every draw records the ``method``
    and ``size`` of the samplers it runs.  Requires the grid to lie inside
    [0, T].
    """
    nodes = grid.nodes()
    if nodes[0] < -1e-12 or nodes[-1] > spec.horizon_T * (1 + 1e-12) + 1e-12:
        raise DomainError("grid extends outside the process horizon [0, T]")
    built = {}

    def stationary(a, kappa, count):
        key = (float(a), float(kappa), int(count))
        if key not in built:
            built[key] = StationarySampler(a, kappa, grid.step, count)
        return built[key]

    draws = []
    for coord in spec.coords:
        if isinstance(coord, Stationary):
            draws.append(stationary(coord.a, coord.kappa, grid.count))
        elif isinstance(coord, LocallyStationary):
            draws.append(_locally_stationary_draw(coord, grid, spec.horizon_T, stationary))
        elif isinstance(coord, NonStationary):
            sampler = stationary(coord.a, coord.alpha, grid.count)
            draws.append(_profiled_draw(sampler, coord.sigma_profile(nodes)))
        else:  # a valid spec's only other coordinate type
            draws.append(_fbm_draw(coord.kappa, grid))
    return tuple(draws)


def sample_vector(
    spec: VectorProcessSpec, grid: SampleGrid, R: int, stream: RngStream, samplers=None
) -> PathBatch:
    """Sample R paths of every coordinate of a validated vector process.

    Coordinates are sampled independently (coordinate-major draw order on
    per-coordinate child streams).  Non-stationary coordinates are the
    sigma profile times a unit-variance path; locally stationary ones use
    the piecewise-frozen scheme.  The grid must lie inside [0, T].
    ``samplers`` is :func:`coordinate_samplers` of ``(spec, grid)``, for a
    caller that draws many batches; it is built here when omitted.
    """
    if samplers is None:
        samplers = coordinate_samplers(spec, grid)
    if R < 1:
        raise DomainError("R must be >= 1")
    values = np.empty((R, spec.n, grid.count))
    for i, draw in enumerate(samplers):
        draw(R, stream.child("coord", i).generator(), out=values[:, i, :])
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
