"""Replication blocking shared by the Monte Carlo estimators.

Every Monte Carlo estimator in the package runs its replications through
:func:`replicate`, the one place that checks the replication count, splits
it into blocks of ``BLOCK_SIZE``, keys each block's random streams and
returns the block results in block order.  Block b always draws from the
caller's stream child ("block", b, ...), so the worker count changes wall
time only, never a single bit of the output.  Its one caller is the block
engine :func:`gpextremes.sampling._plane_blocks`, whose reducers return
per-replication values as arrays, which :func:`mean_and_se` joins in block
order into every replication-mean estimate, or hit counts, whose
frequency's se is :func:`binomial_se`.  While the blocks run, numpy's
bundled OpenBLAS is held to one thread, whatever the worker count: the
workers, not the threads of each matrix product, share the cores, and a
product rounds its last bits by the BLAS thread count, so one count for
every worker count keeps the output the same.

From that library (``libscipy_openblas*`` in ``numpy.libs``), opened once
with ctypes, the package takes three functions: the thread-count getter
and setter behind that hold, and ``cblas_dtrmm``, with which
:func:`_openblas_trmm` multiplies a dense draw's normals by its triangular
factor in place.  Where numpy bundles no OpenBLAS the hold does nothing
and the dense draw is a plain matrix product.  The argument
checks that every estimator shares live here too: :func:`require_count`
for the replication count and every other count, :func:`require_real` for
every other number (an exponent, step, horizon, threshold or entry),
:func:`require_real_array` for arrays of them, :func:`require_stream` for
the stream and :func:`require_ladder` for the S, u and offset ladders.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import operator
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .errors import DomainError
from .rng import RngStream

BLOCK_SIZE = 2048
MIN_REPLICATIONS = 1000


def block_sizes(total: int):
    """Sizes of the consecutive blocks covering ``total`` replications."""
    out = []
    left = int(total)
    while left > 0:
        take = min(BLOCK_SIZE, left)
        out.append(take)
        left -= take
    return out


# The cblas_dtrmm arguments of a row-major z := z @ L.T with L lower-triangular:
# CblasRowMajor, CblasRight, CblasLower, CblasTrans, CblasNonUnit.
_TRMM_ROWS_TIMES_LOWER_T = (101, 142, 122, 112, 131)


@functools.cache
def _openblas():
    """``(get, set, trmm)`` of numpy's bundled OpenBLAS, or None when numpy bundles none.

    The library is the ``libscipy_openblas*`` in the ``numpy.libs`` folder of
    a numpy wheel, opened with ctypes once per process.  ``get`` and ``set``
    are its thread-count getter and setter, ``trmm`` its ``cblas_dtrmm``
    with 64-bit integer arguments; each is None when the library lacks it.
    """
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        i32, i64, ptr = ctypes.c_int, ctypes.c_int64, ctypes.c_void_p
        signatures = {
            "scipy_openblas_get_num_threads64_": ([], i32),
            "scipy_openblas_set_num_threads64_": ([i32], None),
            "scipy_cblas_dtrmm64_": ([i32] * 5 + [i64, i64, ctypes.c_double, ptr, i64, ptr, i64], None),
        }
        calls = []
        for name, (argtypes, restype) in signatures.items():
            call = getattr(lib, name, None)
            if call is not None:
                call.argtypes, call.restype = argtypes, restype
            calls.append(call)
        return tuple(calls)
    return None


def _openblas_threads():
    """``(get, set)`` of the thread count of numpy's bundled OpenBLAS, or None.

    None when there is no such library or it lacks them (numpy built
    against another BLAS).
    """
    calls = _openblas()
    if calls is None or calls[0] is None or calls[1] is None:
        return None
    return calls[:2]


def _openblas_trmm():
    """``product(L, z)``: ``z @ L.T`` in place in z by numpy's bundled OpenBLAS, or None.

    L is a C-contiguous float (m, m) array read as lower-triangular (its
    upper triangle is never read) and z a float (rows, m) array whose rows
    are contiguous, each at least m entries after the last, such as the
    last m columns of a C-contiguous array; the product returns z.  One
    ``cblas_dtrmm`` call does half the multiplications of ``z @ L.T`` and
    needs no second array.  None when numpy bundles no OpenBLAS or it lacks
    ``cblas_dtrmm``.
    """
    calls = _openblas()
    if calls is None or calls[2] is None:
        return None
    trmm = calls[2]

    def product(L, z):
        rows, m = z.shape
        ld, rest = divmod(z.strides[0], z.itemsize)
        if not (
            L.shape == (m, m)
            and L.dtype == z.dtype == np.float64
            and L.flags.c_contiguous
            and (z.flags.c_contiguous or (z.strides[1] == z.itemsize and rest == 0 and ld >= m))
        ):
            raise ValueError("the triangular product needs float64 arrays L (m, m), C-contiguous, and z (rows, m) by rows")
        if rows:
            trmm(*_TRMM_ROWS_TIMES_LOWER_T, rows, m, 1.0, L.ctypes.data, m, z.ctypes.data, max(ld, m))
        return z

    return product


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's bundled OpenBLAS to one thread in the body, then restore its count.

    The count is process-wide.  Does nothing when :func:`_openblas_threads`
    finds no such library, or when the count is one already: so a hold
    inside another, such as a full draw in a replication block, never calls
    the setter from a worker thread while another worker's product runs.
    """
    calls = _openblas_threads()
    prior = 1 if calls is None else calls[0]()
    if prior == 1:
        yield
        return
    set_ = calls[1]
    set_(1)
    try:
        yield
    finally:
        set_(prior)


def map_blocks(fn, n_blocks: int, workers: int = 1):
    """Apply ``fn(block_index)`` to every block, results in block order.

    Several workers run the blocks on a thread pool.  Either way numpy's
    bundled OpenBLAS is held to one thread while they run.
    """
    with _one_blas_thread():
        if workers <= 1 or n_blocks <= 1:
            return [fn(b) for b in range(n_blocks)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, range(n_blocks)))


def require_stream(stream) -> None:
    """Reject anything but an :class:`RngStream` with :class:`DomainError`."""
    if not isinstance(stream, RngStream):
        raise DomainError("an RngStream is required")


def require_count(R, minimum: int, name: str = "R") -> int:
    """The count ``R`` as an int: replications, grid nodes or a sample budget.

    Raises :class:`DomainError`, naming the count ``name``, unless ``R`` is
    an integer (a Python or numpy integer, not a bool, a float or a string)
    of at least ``minimum``.
    """
    try:
        count = None if isinstance(R, bool) else operator.index(R)
    except TypeError:
        count = None
    if count is None:
        raise DomainError(f"{name} must be an integer, got {R!r}")
    if count < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {count}")
    return count


def require_real(value, name: str, above=None, at_least=None, at_most=None) -> float:
    """``value`` as a float: an exponent, a step, a horizon, a threshold or an entry.

    Raises :class:`DomainError`, naming the argument ``name``, unless
    ``value`` is a finite real number (a Python or numpy integer or float,
    not a bool, a string or None) that is ``> above``, ``>= at_least`` and
    ``<= at_most``, each where given.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x}")
    if (
        (above is not None and x <= above)
        or (at_least is not None and x < at_least)
        or (at_most is not None and x > at_most)
    ):
        rules = ((above, ">", "positive"), (at_least, ">=", "non-negative"), (at_most, "<=", ""))
        domain = " and ".join(word if word and b == 0 else f"{op} {b}" for b, op, word in rules if b is not None)
        raise DomainError(f"{name} must be {domain}, got {x}")
    return x


def require_real_array(values, name: str) -> np.ndarray:
    """``values`` as a float array: a point cloud, a covariance matrix or normal quantiles.

    Raises :class:`DomainError`, naming the array ``name``, unless numpy
    reads ``values`` with an integer or float dtype (not bool, string or
    object); finiteness is left to the caller.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"{name} must hold real numbers, got {arr.dtype} entries")
    return arr.astype(float, copy=False)


def require_ladder(values, name, min_rungs=1, decreasing=False) -> list:
    """The rungs of the ladder ``values`` as floats.

    Raises :class:`DomainError`, naming the ladder ``name``, unless there are
    at least ``min_rungs`` rungs, each a positive number by
    :func:`require_real`, and strictly increasing (strictly decreasing with
    ``decreasing``).
    """
    try:
        rungs = [require_real(v, f"{name} rungs", above=0) for v in values]
    except TypeError as exc:
        raise DomainError(f"{name} must be a sequence of numbers") from exc
    pairs = zip(rungs[1:], rungs) if decreasing else zip(rungs, rungs[1:])
    if len(rungs) < min_rungs or any(b <= a for a, b in pairs):
        order = "decreasing" if decreasing else "increasing"
        raise DomainError(
            f"{name} must be >= {min_rungs} finite, positive, strictly {order} rungs, got {rungs}"
        )
    return rungs


def replicate(R: int, stream: RngStream, workers: int, fn):
    """``[fn(Rb, block) for each block]`` over ``R`` replications, in block order.

    ``Rb`` is the block's replication count and ``block(*salt)`` is the
    block's stream ``stream.child("block", b, *salt)``.  Its one caller in
    the package is the block engine
    :func:`gpextremes.sampling._plane_blocks`, which draws coordinate i from
    ``block("coord", i)``.  Rejects a missing stream and, by
    :func:`require_count`, an ``R`` that is not an integer of at least
    ``MIN_REPLICATIONS`` and ``workers`` that is not a positive integer.
    """
    require_stream(stream)
    sizes = block_sizes(require_count(R, MIN_REPLICATIONS))
    workers = require_count(workers, 1, "workers")

    def run(b):
        return fn(sizes[b], functools.partial(stream.child, "block", b))

    return map_blocks(run, len(sizes), workers)


def mean_and_se(parts) -> tuple:
    """``(mean, std(ddof=1) / sqrt(R))`` of the blocks' value arrays ``parts``, joined in block order."""
    values = np.concatenate(parts)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def binomial_se(hits, R) -> float:
    """The se of a hit frequency p = ``hits / R``: ``sqrt(p (1 - p) / R)``.

    The rule-of-three bound ``3 / R`` where no replication hits, or every one.
    """
    if 0 < hits < R:
        p = hits / R
        return math.sqrt(p * (1.0 - p) / R)
    return 3.0 / R
