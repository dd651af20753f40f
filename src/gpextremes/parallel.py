"""Replication blocking shared by the Monte Carlo estimators.

Every Monte Carlo estimator in the package runs its replications through
:func:`replicate`, the one place that checks the replication count, splits
it into blocks of ``BLOCK_SIZE``, keys each block's random streams and
returns the block results in block order.  Block b always draws from the
caller's stream child ("block", b, ...), so the worker count changes wall
time only, never a single bit of the output.  A block returns its
per-replication values as an array, and :func:`mean_and_se` joins the
arrays in block order into every replication-mean estimate.  While the
blocks run, numpy's bundled OpenBLAS is held to one thread, whatever the
worker count: the workers, not the threads of each matrix product, share
the cores, and a product rounds its last bits by the BLAS thread count, so
one count for every worker count keeps the output the same.  The argument
checks that every estimator shares live here too: :func:`require_stream`
for the stream and :func:`require_ladder` for the S, u and offset ladders.
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


@functools.cache
def _openblas_threads():
    """``(get, set)`` of the thread count of numpy's bundled OpenBLAS, or None.

    The functions are resolved with ctypes from the library in the
    ``numpy.libs`` folder of a numpy wheel; None when there is no such
    library or it lacks them (numpy built against another BLAS).
    """
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's bundled OpenBLAS to one thread in the body, then restore its count.

    The count is process-wide.  Does nothing when :func:`_openblas_threads`
    finds no such library.
    """
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, set_ = calls
    prior = get()
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


def require_ladder(values, name, min_rungs=1, decreasing=False) -> list:
    """The rungs of the ladder ``values`` as floats.

    Raises :class:`DomainError`, naming the ladder ``name``, unless there are
    at least ``min_rungs`` rungs, each finite and positive, and strictly
    increasing (strictly decreasing with ``decreasing``).
    """
    try:
        rungs = [float(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a sequence of numbers") from exc
    pairs = zip(rungs[1:], rungs) if decreasing else zip(rungs, rungs[1:])
    if (
        len(rungs) < min_rungs
        or not all(math.isfinite(v) and v > 0 for v in rungs)
        or any(b <= a for a, b in pairs)
    ):
        order = "decreasing" if decreasing else "increasing"
        raise DomainError(
            f"{name} must be >= {min_rungs} finite, positive, strictly {order} rungs, got {rungs}"
        )
    return rungs


def replicate(R: int, stream: RngStream, workers: int, fn):
    """``[fn(Rb, block) for each block]`` over ``R`` replications, in block order.

    ``Rb`` is the block's replication count and ``block(*salt)`` is the
    block's stream ``stream.child("block", b, *salt)``: ``block()`` for one
    stream per block, ``block("coord", i)`` and the like for several.  Rejects
    a missing stream and ``R < MIN_REPLICATIONS``.  The caller reduces the
    list: :func:`mean_and_se` for per-replication values, a sum for counts.
    """
    require_stream(stream)
    try:
        R = operator.index(R)
    except TypeError as exc:
        raise DomainError(f"R must be an integer, got {R!r}") from exc
    if R < MIN_REPLICATIONS:
        raise DomainError(f"R must be >= {MIN_REPLICATIONS}")
    sizes = block_sizes(R)

    def run(b):
        return fn(sizes[b], functools.partial(stream.child, "block", b))

    return map_blocks(run, len(sizes), workers)


def mean_and_se(parts) -> tuple:
    """``(mean, std(ddof=1) / sqrt(R))`` of the blocks' value arrays ``parts``, joined in block order."""
    values = np.concatenate(parts)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))
