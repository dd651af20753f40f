"""Exact Gaussian path simulation on uniform grids.

Every draw is one record, a ``_Draw`` of rows of ``count`` nodes:
``chunks(gen)`` streams the rows, calling it as ``draw(R, gen, out=None)``
draws R of them, and ``method``, ``size``, ``clamped`` and ``factor`` say
how.  Stationary sequences (fractional Gaussian noise and the
exponential-correlation family) are drawn by one of three methods, chosen
once when the draw is built:

* ``"direct"``: independent normals where the law allows it (Brownian
  increments, the kappa = 1 AR(1) recursion, the a.s. linear kappa = 2
  fractional Brownian path, a single stationary node).
* ``"circulant"``: circulant embedding (Wood & Chan 1994, Dietrich &
  Newsam 1997).  The covariance sequence is folded into a circulant first
  row of length ``size`` and diagonalized by the FFT; a draw fills only the
  half spectrum of each row with complex normals scaled by the eigenvalues
  and transforms it back with one real inverse FFT.
* ``"dense"``: the lower Cholesky factor L of the m x m Toeplitz
  covariance, factored in place (if Cholesky fails, a clipped square root
  from its eigendecomposition, made lower-triangular by QR); a draw is
  ``standard_normal((R, m)) @ L.T``, each chunk's normals multiplied by L.T
  in place by one triangular product (``cblas_dtrmm`` of numpy's bundled
  OpenBLAS, a plain matrix product where numpy bundles none).

:func:`_stationary` picks the method by the node count m of the sequence:

* m <= ``_DENSE_ALWAYS_NODES`` = 1025: dense, and no embedding is computed.
* m <= ``_DENSE_MAX_NODES`` = 2049: circulant when the embedding of least
  size (the least power of two >= 2 (m - 1)) is feasible, dense otherwise;
  no padded embedding is computed.
* m > 2049, where the factor would pass 32 MB: circulant, the padding
  doubled up to three times until the embedding is feasible; one still
  infeasible raises :class:`EmbeddingError`.

Embedding eigenvalues slightly below zero (>= -1e-8 of the maximum) are
clamped with a logged warning; deeper negativity makes the embedding
infeasible at that size.  The clamps logged are those of the embedding that
is drawn.  The triangular product measured cheaper than the least
embedding's draw up to about 1500 nodes (kappa = 1.5 fractional Gaussian
noise, 4096 rows, one BLAS thread, a 2-core x86_64 VM with numpy 2.4.6;
circulant against dense microseconds per row, the factor's build time in
brackets: 8.2 / 3.4 (1 ms) at 128 nodes, 31 / 18 (12 ms) at 512, 66 / 46
(49 ms) at 1024, 111 / 74 (97 ms) at 1536, 102 / 116 (215 ms) at 2048),
and on every padded spec up to 2049 nodes (2048 rows: 89 against 516 ms at
1025 nodes padded 4x, 307 against 501 ms at 2049 nodes padded 2x).

:class:`FgnSampler` holds two draws, its ``increments`` and its ``path``.
Fractional Brownian motion is the prefix sum of fractional Gaussian noise,
exact in distribution.  Where the increments are dense with factor L, the
path is one triangular product by ``cumsum(L, axis=0)``, the Cholesky
factor of the fractional Brownian covariance on the grid, behind an exact
B(0) = 0 (:func:`_stationary_path`), and the increments are the path's
differences; otherwise :func:`_prefix_sum` forms the path from the
increments, in place from B(0) = 0.  :func:`StationarySampler` is the draw
of a unit-variance exponential-correlation sequence.
:func:`coordinate_samplers` builds the draw of every coordinate of a vector
process once, so an estimator can draw every replication block with them.
A dense symmetric-square-root sampler serves as the independent oracle for
cross-validation.

Every replication block runs through one engine, :func:`_plane_blocks`:
each chunk of a block hands one reused ``(n, rows, count)`` buffer and a
``take(i, k)`` to a reducer, and a take draws the next k rows of
coordinate i from the block's stream ("block", b, "coord", i) into plane
i.  The reducers of whole paths (the window constant, the discrete-zero
rungs, the Borell audit) take every row of every plane
(:func:`_take_all`); the lazy conjunction scan takes a later
coordinate's rows only for the rows still alive.  The engine counts the
rows taken, so every estimate's ``rows_drawn`` is measured.

Every draw is one stream of rows.  Each draw method is one cursor kernel,
and a draw's ``chunks(gen)`` returns its cursor: a function ``take(rows,
out=None)`` whose calls draw the next ``rows`` rows of the stream, in
order, and return them.  The rows go into ``out`` when given, which may be
any writable strided view, such as one coordinate's plane of a block's
buffer.  A take draws the normals of its rows only, each row's normals
after those of the row before it, so a caller that needs only some rows,
such as the lazy conjunction scan, draws no normal for the rows it does
not take.

The full draw ``draw(R, gen, out=None)`` takes its rows in chunks, on one
BLAS thread as the replication blocks run, so its bits do not depend on the
process's thread count.  One rule sizes
every chunk: its float working set is at most ``_CHUNK_ELEMENTS`` entries
(4 MB), so a full draw takes ``_CHUNK_ELEMENTS // count`` rows per chunk and
a replication block that holds n planes per row takes ``_CHUNK_ELEMENTS //
(n * count)``, into buffers it allocates once and reuses for every chunk
(allocated per chunk, a 4 MB array went back to the system and was
faulted in again each time: 7x the page faults of whole-plane blocks on a
two-coordinate window constant).  The circulant draw builds and
transforms its spectrum in smaller sub-chunks of at most
``_SPECTRUM_ELEMENTS`` embedding entries (64 rows at size 1024, a 0.5 MB
complex half spectrum).  A dense take into a C-contiguous ``out`` draws its
normals straight into it and multiplies them there.  Every row of a direct
or a circulant draw is the same bits however its rows are split into
takes.  A dense product of another row count may round its last bits
differently (BLAS blocks a different row count differently), so a dense
row is the same bits only at the same take sizes.

Every draw records its numerical fallbacks: ``clamped``, the count of
embedding eigenvalues clamped to zero, and ``factor``, "cholesky" or "eigh"
for a dense draw and None otherwise.
"""
from __future__ import annotations

import functools
import logging
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, EmbeddingError, FactorizationError, UnsupportedModelError
from .parallel import _one_blas_thread, _openblas_trmm, replicate, require_count, require_real, require_real_array
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
    """Uniform grid origin + j*step for 0 <= j < count; origin and step are stored as floats."""

    origin: float
    step: float
    count: int

    def __post_init__(self):
        object.__setattr__(self, "origin", require_real(self.origin, "grid origin"))
        object.__setattr__(self, "step", require_real(self.step, "grid step", above=0))
        object.__setattr__(self, "count", require_count(self.count, 1, "grid count"))

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


# -- row chunks ----------------------------------------------------------------

# Float entries of the working set of one chunk of rows (4 MB).
_CHUNK_ELEMENTS = 2**19
# Embedding entries per sub-chunk of rows in _circulant_draw: 64 rows at size
# 1024, whose half spectrum, normals and transform hold 0.5 MB each, so a
# sub-chunk stays within a per-core L2 cache.
_SPECTRUM_ELEMENTS = 2**16


def _chunk_rows(width):
    """Rows per chunk when each row holds ``width`` floats of the working set."""
    return max(1, _CHUNK_ELEMENTS // max(width, 1))


def _rows_out(out, rows, count):
    """``out``, or a new ``(rows, count)`` array."""
    return np.empty((rows, count)) if out is None else out


def _written(rows, out):
    """``rows``, or ``out`` holding a copy of them when given."""
    if out is None:
        return rows
    out[:] = rows
    return out


def _normal_chunks(m, gen, write):
    """The cursor whose take of ``rows`` rows is ``write(z, out)``, z their normals.

    A take draws ``standard_normal((rows, m))``.  The takes continue one
    stream, so they are the rows of a single (R, m) call whatever the
    split.
    """
    return lambda rows, out=None: write(gen.standard_normal((rows, m)), out)


class _Draw:
    """Rows of ``count`` nodes: ``chunks(gen)`` streams them, and calling the draw draws R of them.

    ``method`` names how the rows are drawn ("direct", "circulant" or
    "dense"), ``size`` is the length of each row's draw (the embedding size
    for circulant, the node count otherwise), ``clamped`` counts the
    embedding eigenvalues clamped to zero and ``factor`` is the dense
    factor's kind ("cholesky" or "eigh"), None unless dense.
    """

    def __init__(self, chunks, count, method="direct", size=None, clamped=0, factor=None):
        self.chunks = chunks
        self.count = count
        self.method = method
        self.size = count if size is None else size
        self.clamped = clamped
        self.factor = factor

    @classmethod
    def joined(cls, chunks, count, draws):
        """The draw streamed by ``chunks``, which runs the draws ``draws``.

        Records their distinct methods joined by "+" in order, the sum of
        their sizes, the sum of their clamped eigenvalues and their distinct
        dense factor kinds joined by "+" (None when there is none).
        """
        return cls(
            chunks,
            count,
            "+".join(dict.fromkeys(d.method for d in draws)),
            sum(d.size for d in draws),
            sum(d.clamped for d in draws),
            "+".join(dict.fromkeys(d.factor for d in draws if d.factor)) or None,
        )

    def __call__(self, R, gen, out=None) -> np.ndarray:
        """All R rows, written into ``out`` and returned when given.

        Runs on one BLAS thread, as the replication blocks do: a dense
        product rounds its last bits by the thread count.
        """
        out = np.empty((R, self.count)) if out is None else out
        chunk = _chunk_rows(self.count)
        with _one_blas_thread():
            take = self.chunks(gen)
            for r0 in range(0, R, chunk):
                take(min(chunk, R - r0), out[r0 : r0 + chunk])
        return out


# -- circulant embedding and dense factor --------------------------------------

_CLAMP_REL = 1e-8
_MAX_DOUBLINGS = 3
# Largest node count drawn by a dense factor: 2049^2 doubles are 32 MB.
_DENSE_MAX_NODES = 2049
# Largest node count drawn by a dense factor whatever its embedding: the
# triangular product measured cheaper than the least circulant embedding up
# to about 1500 nodes.
_DENSE_ALWAYS_NODES = 1025
# Width of the diagonal blocks of the in-place Cholesky factorization.
_FACTOR_BLOCK = 128


def _embedding_eigenvalues(cov_of_lag, m, doublings=_MAX_DOUBLINGS):
    """``(eigenvalues, size, clamped)`` of the circulant extension of a length-m covariance sequence.

    ``cov_of_lag`` maps an integer lag array to covariances.  Starts at the
    least power of two >= 2 (m - 1) and doubles the padding, at most
    ``doublings`` times, until all eigenvalues clear -1e-8 of the maximum;
    the ``clamped`` tiny negatives are set to zero.  Raises
    :class:`EmbeddingError` when that does not suffice.
    """
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
            return np.clip(eigs, 0.0, None), size, n_neg
        size *= 2
    raise EmbeddingError(
        f"circulant eigenvalues of {m} nodes below {-_CLAMP_REL:.0e} of max after "
        f"{doublings} padding doublings (the dense factor takes at most "
        f"{_DENSE_MAX_NODES} nodes)"
    )


def _mode_scale(eigs, size):
    """Per-normal scale of a row's ``size`` normals in :func:`_circulant_draw`'s draw order.

    The two real modes (0 and size/2) carry ``sqrt(size * eig)``; each paired
    mode carries ``sqrt(size * eig / 2)`` on its real part and minus that on
    its imaginary part (the spectrum enters conjugated).
    """
    half = size // 2
    paired = np.sqrt(eigs[1:half] * (size / 2.0))
    real = np.sqrt(eigs[[0, half]] * size)
    return np.concatenate((real[:1], np.column_stack((paired, -paired)).ravel(), real[1:]))


def _circulant_draw(scale, size, count, gen):
    """The cursor of stationary Gaussian rows of length count with the embedded covariance.

    Each row's half spectrum ``size/2 + 1`` is filled and transformed with a
    real inverse FFT, in sub-chunks of at most ``_SPECTRUM_ELEMENTS``
    embedding entries within each take, so the working set stays within
    about 2 MB.  A row takes ``size`` normals, after those of the row before
    it: mode 0, then the real and imaginary parts of each paired mode in
    turn, then mode size/2; so a given generator state always produces the
    same rows however they are split into takes.  ``scale`` is
    :func:`_mode_scale`, which conjugates the paired modes, because the real
    part of the forward FFT of a Hermitian spectrum w is ``size *
    irfft(conj(w[:size/2 + 1]))``.
    """
    half = size // 2
    sub = max(1, _SPECTRUM_ELEMENTS // size)

    def take(rows, out=None):
        out = _rows_out(out, rows, count)
        for s0 in range(0, rows, sub):
            s1 = min(rows, s0 + sub)
            spectrum = np.empty((s1 - s0, half + 1), dtype=complex)
            parts = spectrum.view(float)  # re_0, im_0, re_1, im_1, ..., re_half, im_half
            # the row's normals land at im_0, re_1, ..., re_half; mode 0 moves to re_0
            np.multiply(gen.standard_normal((s1 - s0, size)), scale, out=parts[:, 1 : size + 1])
            parts[:, 0] = parts[:, 1]
            parts[:, [1, size + 1]] = 0.0
            out[s0:s1] = np.fft.irfft(spectrum, n=size, axis=1)[:, :count]
        return out

    return take


def _toeplitz(cov_of_lag, m):
    """The m x m Toeplitz covariance ``row[|j - k|]``, in one m x m allocation."""
    row = np.asarray(cov_of_lag(np.arange(m)), dtype=float)
    return sliding_window_view(np.concatenate((row[:0:-1], row)), m)[::-1].copy()


def _cholesky_in_place(a):
    """Overwrite the symmetric matrix ``a`` with its lower Cholesky factor.

    Left-looking and blocked: each block column of ``_FACTOR_BLOCK`` columns
    is updated by one product with the finished columns to its left, its
    diagonal block is factored by ``np.linalg.cholesky`` and the panel below
    is solved against that block.  Beside ``a`` it holds one block column.
    Raises ``LinAlgError`` where a diagonal block is not positive definite,
    leaving ``a`` partly overwritten.
    """
    m = a.shape[0]
    for j0 in range(0, m, _FACTOR_BLOCK):
        j1 = min(m, j0 + _FACTOR_BLOCK)
        if j0:
            a[j0:, j0:j1] -= a[j0:, :j0] @ a[j0:j1, :j0].T
            a[:j0, j0:j1] = 0.0
        diag = np.linalg.cholesky(a[j0:j1, j0:j1])
        a[j0:j1, j0:j1] = diag
        if j1 < m:
            a[j1:, j0:j1] = np.linalg.solve(diag, a[j1:, j0:j1].T).T


def _dense_factor(cov_of_lag, m):
    """``(L, kind)``: lower-triangular L with ``L @ L.T`` the m x m Toeplitz covariance ``row[|j - k|]``.

    L is C-contiguous, as :func:`_dense_draw` needs it.  ``kind`` =
    "cholesky": L is the lower Cholesky factor, computed in
    place in the matrix.  Where rounding leaves the matrix numerically
    indefinite, the matrix is built again and ``kind`` = "eigh": the
    square root ``A = V sqrt(max(w, 0))`` of its eigendecomposition, with
    the negative eigenvalues clipped to zero, as
    :func:`sample_cholesky_oracle` factorizes, is triangularized by QR:
    with ``A.T = QR``, L = R.T has ``L @ L.T = A @ A.T``.  So every dense
    factor is triangular.  Either runs on one BLAS thread: the factor's
    last bits depend on the count.
    """
    with _one_blas_thread():
        a = _toeplitz(cov_of_lag, m)
        try:
            _cholesky_in_place(a)
            return a, "cholesky"
        except np.linalg.LinAlgError:
            pass  # a is partly overwritten; once the traceback that holds it is gone, it is freed
        del a
        eigval, eigvec = np.linalg.eigh(_toeplitz(cov_of_lag, m))
        eigvec *= np.sqrt(np.clip(eigval, 0.0, None))
        return np.ascontiguousarray(np.linalg.qr(eigvec.T, mode="r").T), "eigh"


def _matmul_in_place(L, z):
    """``z @ L.T`` written into z, the triangular product where numpy bundles no OpenBLAS."""
    z[:] = z @ L.T
    return z


def _dense_draw(factor, gen, lead=0):
    """The cursor of rows of ``lead`` zeros and then ``z @ factor.T``, factor lower-triangular (m, m).

    A take of ``rows`` rows draws ``standard_normal((rows, lead + m))``; a
    row's first ``lead`` normals are dropped for exact zeros and its last m,
    z, become ``z @ factor.T`` in place through :func:`_openblas_trmm`, a
    triangular product that skips the zero upper triangle (``np.matmul``
    where numpy bundles none).  When ``out`` is a C-contiguous float block,
    the normals are drawn straight into it; otherwise they are drawn into a
    new array, multiplied there and go to ``out``, or are returned.
    """
    product = _openblas_trmm() or _matmul_in_place
    width = lead + factor.shape[0]

    def take(rows, out=None):
        direct = out is not None and out.flags.c_contiguous and out.dtype == np.float64
        z = gen.standard_normal(out=out) if direct else gen.standard_normal((rows, width))
        product(factor, z[:, lead:])
        z[:, :lead] = 0.0
        return z if direct else _written(z, out)

    return take


# -- direct draw kernels -------------------------------------------------------
#
# Each kernel, like _circulant_draw and _dense_draw, takes its parameters and
# then the generator, and returns the cursor of its rows; a draw binds the
# parameters with functools.partial.


def _scaled_draw(scale, count, gen):
    """The cursor of rows of ``count`` independent normals times ``scale``, scaled in place."""
    return _normal_chunks(count, gen, lambda z, out: np.multiply(scale, z, out=z if out is None else out))


def _shared_normal_draw(scale, count, gen):
    """The cursor of rows that each repeat one normal times ``scale`` on all ``count`` nodes."""

    def take(rows, out=None):
        out = _rows_out(out, rows, count)
        out[:] = scale * gen.standard_normal(rows)[:, None]
        return out

    return take


def _ar1_draw(rho, count, gen):
    """The cursor of unit-variance AR(1) rows of ``count`` nodes with lag-one correlation ``rho``.

    A row is ``x_0 = xi_0`` and ``x_j = rho x_(j-1) + sqrt(1 - rho^2) xi_j``,
    recursed in place in its normals xi.
    """

    def recur(xi, out):
        xi[:, 1:] *= np.sqrt(1.0 - rho * rho)
        for j in range(1, count):
            xi[:, j] += rho * xi[:, j - 1]
        return _written(xi, out)

    return _normal_chunks(count, gen, recur)


# -- the draws of stationary sequences -----------------------------------------


def _embedding(cov_of_lag, count):
    """``(eigenvalues, size, clamped)`` of the embedding that draws ``count`` nodes, or None where the draw is dense.

    Up to ``_DENSE_ALWAYS_NODES`` nodes every draw is dense and no
    embedding is computed.  Up to ``_DENSE_MAX_NODES`` the least embedding
    is drawn when it is feasible, and the draw is dense when it is not.
    Beyond, the padding doubles at most three times, and an embedding still
    infeasible raises :class:`EmbeddingError`.
    """
    if count <= _DENSE_ALWAYS_NODES:
        return None
    dense_ok = count <= _DENSE_MAX_NODES
    try:
        return _embedding_eigenvalues(cov_of_lag, count, 0 if dense_ok else _MAX_DOUBLINGS)
    except EmbeddingError:
        if not dense_ok:
            raise
        return None


def _circulant(embedding, count):
    """The circulant draw of ``count`` nodes from ``embedding`` = ``(eigenvalues, size, clamped)``."""
    eigs, size, clamped = embedding
    kernel = functools.partial(_circulant_draw, _mode_scale(eigs, size), size, count)
    return _Draw(kernel, count, "circulant", size, clamped)


def _stationary(cov_of_lag, count):
    """The draw of a length-``count`` stationary sequence whose covariance at lag k is ``cov_of_lag(k)``.

    Circulant (``size`` the embedding size, ``clamped`` its clamped
    eigenvalues) where :func:`_embedding` gives an embedding, dense
    otherwise (``size`` = count, ``factor`` the kind from
    :func:`_dense_factor`).
    """
    embedding = _embedding(cov_of_lag, count)
    if embedding is not None:
        return _circulant(embedding, count)
    factor, kind = _dense_factor(cov_of_lag, count)
    return _Draw(functools.partial(_dense_draw, factor), count, "dense", factor=kind)


def _stationary_path(cov_of_lag, count):
    """``(increments, path)``: the draws of the sequence of :func:`_stationary` and of its prefix sums from 0.

    Where the sequence is circulant, ``path`` is :func:`_prefix_sum` of it.
    Where it is dense with factor L, the prefix sums of its rows are rows
    times ``cumsum(L, axis=0)``, itself lower-triangular, the Cholesky
    factor of the prefix sums' covariance; it is formed in place in L, and
    ``path`` is one triangular product by it behind one exact zero (``size``
    = count + 1).  ``increments`` is then :func:`_differences` of the path,
    so the sampler holds one factor.
    """
    embedding = _embedding(cov_of_lag, count)
    if embedding is not None:
        increments = _circulant(embedding, count)
        return increments, _prefix_sum(increments)
    factor, kind = _dense_factor(cov_of_lag, count)
    np.cumsum(factor, axis=0, out=factor)
    path = _Draw(functools.partial(_dense_draw, factor, lead=1), count + 1, "dense", factor=kind)
    return _differences(path), path


def _check_grid(kappa, step, count):
    """``(kappa, step, count)`` as floats and an int: kappa in (0, 2], a positive step, a count >= 0."""
    kappa = require_real(kappa, "kappa", above=0, at_most=2)
    return kappa, require_real(step, "step", above=0), require_count(count, 0, "count")


def _prefix_sum(increments):
    """The draw of the ``(R, count + 1)`` paths from B(0) = 0 whose steps are the draw ``increments``.

    Each take's increments are drawn into ``out[:, 1:]`` and prefix-summed
    in place.  With no increments the path is the one node B(0) = 0.
    """
    count = increments.count + 1

    def chunks(gen):
        steps = increments.chunks(gen)

        def take(rows, out=None):
            out = _rows_out(out, rows, count)
            out[:, 0] = 0.0
            np.cumsum(steps(rows, out[:, 1:]), axis=1, out=out[:, 1:])
            return out

        return take

    return _Draw.joined(chunks, count, [increments])


def _differences(path):
    """The draw of the ``(R, count - 1)`` steps between consecutive nodes of the draw ``path``."""

    def chunks(gen):
        take = path.chunks(gen)

        def steps(rows, out=None):
            nodes = take(rows)
            return np.subtract(nodes[:, 1:], nodes[:, :-1], out=out)

        return steps

    return _Draw.joined(chunks, path.count - 1, [path])


class FgnSampler:
    """Fractional Gaussian noise on a fixed grid, as two draws.

    ``increments`` draws the ``(R, count)`` increments and ``path`` the
    ``(R, count + 1)`` fractional Brownian paths from B(0) = 0, their prefix
    sums.  kappa = 1 increments are independent and kappa = 2 increments
    are one shared normal (the path is a.s. linear); both are drawn
    directly, as are a single increment and the empty draw of ``count`` =
    0, and their paths are :func:`_prefix_sum` of them.  All other
    exponents use the circulant or the dense draws that
    :func:`_stationary_path` picks: a dense path is one triangular product
    by the Cholesky factor of the fractional Brownian covariance, and its
    increments are its differences.
    """

    def __init__(self, kappa, step, count):
        kappa, step, count = _check_grid(kappa, step, count)
        if kappa == 2.0:
            self.increments = _Draw(functools.partial(_shared_normal_draw, step, count), count)
        elif kappa == 1.0 or count <= 1:
            self.increments = _Draw(functools.partial(_scaled_draw, np.sqrt(step**kappa), count), count)
        else:
            scale = step**kappa

            def cov(lags):
                k = np.abs(lags).astype(float)
                return 0.5 * scale * ((k + 1) ** kappa - 2 * k**kappa + np.abs(k - 1) ** kappa)

            self.increments, self.path = _stationary_path(cov, count)
            return
        self.path = _prefix_sum(self.increments)


def StationarySampler(a, kappa, step, count) -> _Draw:
    """The draw of ``(R, count)`` rows with correlation ``exp(-a |t|^kappa)`` on a grid of ``step``.

    kappa = 1 uses the exact AR(1) recursion (the correlation is Markov),
    as do a single node (one normal) and no node (the empty draw), whatever
    kappa; other exponents use the circulant or the dense draw that
    :func:`_stationary` picks.  The draw of a stationary coordinate.
    """
    a = require_real(a, "a", above=0)
    kappa, step, count = _check_grid(kappa, step, count)
    if kappa == 1.0 or count <= 1:
        return _Draw(functools.partial(_ar1_draw, np.exp(-a * step), count), count)
    return _stationary(lambda lags: np.exp(-a * (np.abs(lags).astype(float) * step) ** kappa), count)


# -- public sampling operations ----------------------------------------------


def _fbm_draw(kappa, grid):
    """The draw of fractional Brownian paths with B(0) = 0 on ``grid``.

    The grid origin must be a non-negative multiple j0 of the step.  The
    draw is the :class:`FgnSampler` path on j0 + count nodes from the
    origin, sliced at j0 when j0 > 0.
    """
    offset = grid.origin / grid.step
    j0 = int(round(offset))
    if abs(offset - j0) > 1e-9 or j0 < 0:
        raise UnsupportedModelError(
            "fractional Brownian coordinates need the grid origin to be a "
            "non-negative multiple of the step"
        )
    path = FgnSampler(kappa, grid.step, grid.count + j0 - 1).path
    if j0 == 0:
        return path

    def chunks(gen):
        take = path.chunks(gen)
        return lambda rows, out=None: _written(take(rows)[:, j0:], out)

    return _Draw.joined(chunks, grid.count, [path])


def sample_fbm(kappa, grid: SampleGrid, R: int, stream: RngStream) -> PathBatch:
    """Exact fractional Brownian paths with B(0) = 0 on a grid starting at 0.

    Increments are fractional Gaussian noise, prefix-summed; kappa = 2
    degenerates to the a.s. linear path t * xi.
    """
    if grid.origin != 0.0:
        raise DomainError("sample_fbm requires grid.origin == 0")
    R = require_count(R, 1)
    values = _fbm_draw(kappa, grid)(R, stream.generator())
    return PathBatch(grid, 1, R, values[:, None, :])


def _locally_stationary_draw(coord, grid, horizon, stationary):
    """The draw of the piecewise-frozen scheme, one sampler per block.

    Frozen block b draws from its own generator: block 0 from the
    coordinate's, block b > 0 from a copy of it jumped b times (PCG64
    ``jumped``), so the blocks stream their chunks side by side.
    """
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

    def chunks(gen):
        gens = [gen] + [np.random.Generator(gen.bit_generator.jumped(b)) for b in range(1, len(blocks))]
        takes = [sampler.chunks(g) for (_, sampler), g in zip(blocks, gens)]

        def take(rows, out=None):
            out = _rows_out(out, rows, grid.count)
            for (sel, _), block in zip(blocks, takes):
                block(rows, out[:, sel])
            return out

        return take

    return _Draw.joined(chunks, grid.count, [sampler for _, sampler in blocks])


def _profiled_draw(sampler, sigma):
    """The draw of the sigma profile times a unit-variance path."""

    def chunks(gen):
        take = sampler.chunks(gen)

        def scaled(rows, out=None):
            out = take(rows, out)
            out *= sigma
            return out

        return scaled

    return _Draw.joined(chunks, sampler.count, [sampler])


def coordinate_samplers(spec: VectorProcessSpec, grid: SampleGrid) -> tuple:
    """One draw per coordinate of ``spec`` on ``grid``.

    Each draw streams its rows with ``chunks(gen)`` and, called
    as ``draw(R, gen, out=None)``, returns all ``(R, grid.count)`` rows.
    Builds every embedding and dense factor once, so an estimator builds
    these outside its replication blocks and streams every block with them.
    Coordinates (and frozen blocks) with equal parameters share one
    stationary draw; a stationary coordinate's draw is its
    :func:`StationarySampler`.  Every draw records the ``method``,
    ``size``, ``clamped`` and ``factor`` of the draws it runs.  Requires
    the grid to lie inside [0, T].
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


# -- replication blocks --------------------------------------------------------


def _plane_blocks(draws, R, stream, workers, reducer):
    """``(parts, diagnostics)``: ``reduce(planes, take)`` of every chunk of ``R`` rows of ``draws``, in row order.

    Each block of :func:`replicate` calls ``reduce = reducer(block)`` once
    and reuses one ``(len(draws), rows, count)`` buffer for its chunks of
    ``_chunk_rows(len(draws) * count)`` rows, ``planes`` a chunk's view of
    it.  ``take(i, k)`` draws the next ``k`` rows of draw i from
    ``block("coord", i)`` into ``planes[i, :k]`` and returns them.
    ``diagnostics`` is the draw record: each draw's ``sampler_*`` fields,
    the ``blocks`` and ``rows_drawn``, the rows taken per draw.
    """
    n, count = len(draws), draws[0].count
    chunk = _chunk_rows(n * count)

    def run_block(Rb, block):
        reduce = reducer(block)
        cursors = [draw.chunks(block("coord", i).generator()) for i, draw in enumerate(draws)]
        buffer = np.empty((n, min(chunk, Rb), count))
        drawn = [0] * n

        def take(i, k):
            drawn[i] += k
            return cursors[i](k, buffer[i, :k])

        return [reduce(buffer[:, : min(chunk, Rb - r0)], take) for r0 in range(0, Rb, chunk)], drawn

    blocks = replicate(R, stream, workers, run_block)
    diagnostics = {
        "sampler_methods": [draw.method for draw in draws],
        "sampler_sizes": [int(draw.size) for draw in draws],
        "sampler_clamped": [int(draw.clamped) for draw in draws],
        "sampler_factors": [draw.factor for draw in draws],
        "blocks": len(blocks),
        "rows_drawn": [sum(rows) for rows in zip(*(drawn for _, drawn in blocks))],
    }
    return [part for parts, _ in blocks for part in parts], diagnostics


def _take_all(planes, take):
    """``planes`` with every row of every plane taken: the draw of a :func:`_plane_blocks` reducer of whole paths."""
    for i, plane in enumerate(planes):
        take(i, len(plane))
    return planes


def sample_vector(spec: VectorProcessSpec, grid: SampleGrid, R: int, stream: RngStream) -> PathBatch:
    """Sample R paths of every coordinate of a validated vector process.

    Coordinates are sampled independently (coordinate-major draw order on
    per-coordinate child streams).  Non-stationary coordinates are the
    sigma profile times a unit-variance path; locally stationary ones use
    the piecewise-frozen scheme.  The grid must lie inside [0, T].
    """
    R = require_count(R, 1)
    values = np.empty((R, spec.n, grid.count))
    for i, draw in enumerate(coordinate_samplers(spec, grid)):
        draw(R, stream.child("coord", i).generator(), out=values[:, i, :])
    return PathBatch(grid, spec.n, R, values)


def sample_cholesky_oracle(cov, R: int, stream: RngStream, grid: SampleGrid | None = None) -> PathBatch:
    """Exact Gaussian samples from an explicit covariance matrix.

    Factorizes by symmetric eigendecomposition, truncating the rank at zero
    (eigenvalues below -1e-10 * trace are an error).  Independent of the FFT
    path, so it cross-validates the circulant samplers.
    """
    R = require_count(R, 1)
    cov = require_real_array(cov, "cov")
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or not cov.size:
        raise DomainError(f"cov must be a non-empty square matrix, got shape {cov.shape}")
    if not np.all(np.isfinite(cov)):
        raise DomainError("cov must be finite")
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
