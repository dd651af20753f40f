import functools
import math
from pathlib import Path

import numpy as np
import pytest

from gpextremes import (
    DomainError,
    DriftSpec,
    RngStream,
    SampleGrid,
    Stationary,
    VectorProcessSpec,
    audit_borell,
    audit_piterbarg_decay,
    audit_slepian,
    estimate_discrete_zero,
    estimate_double_event,
    estimate_pickands,
    estimate_piterbarg,
)
from gpextremes import parallel, sampling
from gpextremes.parallel import BLOCK_SIZE, MIN_REPLICATIONS, map_blocks, replicate, require_ladder

STREAM = RngStream(2718)


def record(Rb, block):
    return Rb, block(), block("coord", 1), block("tilt", 0)


class TestReplicate:
    def test_blocks_and_streams_in_block_order(self):
        out = replicate(5000, STREAM, 1, record)
        assert [Rb for Rb, *_ in out] == [BLOCK_SIZE, BLOCK_SIZE, 904]
        for b, (_, whole, coord, tilt) in enumerate(out):
            assert whole == STREAM.child("block", b)
            assert coord == STREAM.child("block", b, "coord", 1)
            assert tilt == STREAM.child("block", b, "tilt", 0)

    def test_worker_count_invariance(self):
        assert replicate(5000, STREAM, 3, record) == replicate(5000, STREAM, 1, record)

    @pytest.mark.parametrize("R", [MIN_REPLICATIONS - 1, 0, 2000.5, 2000.0, "2000", None])
    def test_r_precondition(self, R):
        with pytest.raises(DomainError):
            replicate(R, STREAM, 1, record)

    def test_integer_types_are_counts(self):
        assert replicate(np.int64(5000), STREAM, 1, record) == replicate(5000, STREAM, 1, record)

    def test_stream_required(self):
        with pytest.raises(DomainError):
            replicate(5000, None, 1, record)


@pytest.mark.skipif(parallel._openblas_threads() is None, reason="numpy has no bundled OpenBLAS")
def test_worker_pool_holds_blas_to_one_thread():
    get, set_ = parallel._openblas_threads()
    prior = get()
    factor, _ = sampling._dense_factor(lambda lags: np.exp(-np.abs(lags / 256.0) ** 1.5), 257)
    dense = functools.partial(sampling._dense_draw, factor)

    def draw(b):
        return get(), sampling._Draw(dense, 257)(512, np.random.default_rng(b))

    set_(2)
    try:
        pooled = map_blocks(draw, 4, workers=2)
        after = get()
        serial = map_blocks(draw, 4, workers=1)
    finally:
        set_(prior)
    assert after == 2
    assert [threads for threads, _ in pooled + serial] == [1] * 8
    # a product rounds by the BLAS thread count, so one count for every worker count
    for (_, a), (_, b) in zip(pooled, serial):
        np.testing.assert_array_equal(a, b)


def test_nested_hold_leaves_the_thread_count_alone(monkeypatch):
    # a full draw inside a worker's block must not call the setter while
    # another worker's product runs
    count, calls = [2], []

    def set_(n):
        calls.append(n)
        count[0] = n

    monkeypatch.setattr(parallel, "_openblas_threads", lambda: (lambda: count[0], set_))
    with parallel._one_blas_thread():
        with parallel._one_blas_thread():
            assert count[0] == 1
    assert calls == [1, 2]


def test_bundled_openblas_exports_what_the_package_calls():
    # a numpy upgrade that renames a symbol must fail here, not silently fall back
    bundled = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    if not bundled:
        pytest.skip("numpy has no bundled OpenBLAS")
    assert parallel._openblas_threads() is not None
    product = parallel._openblas_trmm()
    assert product is not None
    L = np.tril(np.arange(1.0, 10.0).reshape(3, 3))
    z = np.arange(8.0).reshape(2, 4)[:, 1:].copy()
    expected = z @ L.T
    assert product(L, z) is z
    np.testing.assert_array_equal(z, expected)


@pytest.mark.skipif(parallel._openblas_trmm() is None, reason="numpy has no bundled OpenBLAS")
@pytest.mark.parametrize(
    "L, z",
    [
        (np.eye(3), np.ones((2, 4))),
        (np.eye(3), np.ones((2, 6))[:, ::2]),
        (np.tril(np.ones((3, 3))).T, np.ones((2, 3))),
        (np.eye(3, dtype=np.float32), np.ones((2, 3), dtype=np.float32)),
    ],
    ids=["shape", "strided-rows", "transposed-factor", "float32"],
)
def test_triangular_product_rejects_arrays_it_cannot_pass(L, z):
    with pytest.raises(ValueError):
        parallel._openblas_trmm()(L, z)


def ou_spec():
    return VectorProcessSpec((Stationary(1.0, 1.0),), 1.0)


# Entry points that derive child streams before any replication runs.
CHILD_STREAM_ENTRY_POINTS = {
    "pickands": lambda stream: estimate_pickands([1.0], 1.0, (1.0, 2.0, 4.0), R=2000, stream=stream),
    "discrete_zero": lambda stream: estimate_discrete_zero([1.0], 1.0, (0.5, 0.25), 40.0, R=2000, stream=stream),
    "slepian": lambda stream: audit_slepian(ou_spec(), ou_spec(), [1.5], SampleGrid(0.0, 0.25, 5), 2000, stream),
}


@pytest.mark.parametrize("entry", CHILD_STREAM_ENTRY_POINTS.values(), ids=CHILD_STREAM_ENTRY_POINTS.keys())
def test_missing_stream_is_domain_error(entry):
    with pytest.raises(DomainError, match="an RngStream is required"):
        entry(None)


def two_coord_ou_spec():
    return VectorProcessSpec((Stationary(1.0, 1.0), Stationary(2.0, 1.0)), 6.0)


# Every ladder entry point: (call on a ladder, a valid ladder, fewest rungs, decreasing).
LADDER_ENTRY_POINTS = {
    "pickands": (lambda ladder: estimate_pickands([1.0], 1.0, ladder, R=2000, stream=STREAM), (1.0, 2.0, 4.0), 3, False),
    "piterbarg": (
        lambda ladder: estimate_piterbarg(
            [1.0], 1.0, DriftSpec(1.0, (0.0,), (1.0,)), "right", ladder, R=2000, stream=STREAM
        ),
        (1.0, 2.0),
        1,
        False,
    ),
    "discrete_zero": (
        lambda ladder: estimate_discrete_zero([1.0], 1.0, ladder, 40.0, R=2000, stream=STREAM),
        (0.5, 0.25),
        2,
        True,
    ),
    "borell": (
        lambda ladder: audit_borell(two_coord_ou_spec(), ladder, SampleGrid(0.0, 0.25, 5), 2000, STREAM),
        (1.0, 2.0),
        1,
        False,
    ),
    "piterbarg_decay": (
        lambda ladder: audit_piterbarg_decay(two_coord_ou_spec(), ladder, SampleGrid(0.0, 0.25, 5), 2000, STREAM),
        (1.0, 1.5, 2.0),
        3,
        False,
    ),
    "double_event": (
        lambda ladder: estimate_double_event(two_coord_ou_spec(), 2.0, 2.0, ladder, 2000, STREAM),
        (4.0, 8.0),
        1,
        False,
    ),
}


def bad_ladders(valid, min_rungs, decreasing):
    """Ladders that break one rule each, in the entry point's rung order."""
    up = sorted(valid)

    def ordered(rungs):
        return tuple(rungs[::-1]) if decreasing else tuple(rungs)

    return {
        "too_short": ordered(up[: min_rungs - 1]),
        "nan": ordered(up[:-1] + [math.nan]),
        "inf": ordered(up[:-1] + [math.inf]),
        "zero": ordered([0.0] + up[1:]),
        "negative": ordered([-1.0] + up[1:]),
        "out_of_order": ordered(up[::-1]),
    }


LADDER_CASES = [
    pytest.param(entry, ladder, id=f"{name}-{case}")
    for name, (entry, valid, min_rungs, decreasing) in LADDER_ENTRY_POINTS.items()
    for case, ladder in bad_ladders(valid, min_rungs, decreasing).items()
]


@pytest.mark.parametrize("entry, ladder", LADDER_CASES)
def test_bad_ladder_is_domain_error(entry, ladder):
    with pytest.raises(DomainError, match="rungs"):
        entry(ladder)


def test_require_ladder_returns_floats():
    assert require_ladder((3, 2.5, 1), "u_ladder", min_rungs=3, decreasing=True) == [3.0, 2.5, 1.0]
