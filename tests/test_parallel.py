import dataclasses
import functools
import math
from pathlib import Path

import numpy as np
import pytest

import gpextremes as gx
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
from gpextremes.parallel import BLOCK_SIZE, MIN_REPLICATIONS, map_blocks, replicate, require_ladder, require_real

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

    @pytest.mark.parametrize("R", [MIN_REPLICATIONS - 1, 0, 2000.5, 2000.0, "2000", None, True])
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
def test_triangular_product_takes_the_last_columns_of_rows():
    # a path draw multiplies all but the first column of each row in place
    L = np.tril(np.arange(1.0, 10.0).reshape(3, 3))
    rows = np.arange(12.0).reshape(3, 4)
    expected = rows[:, 1:] @ L.T
    z = rows[:, 1:]
    assert parallel._openblas_trmm()(L, z) is z
    np.testing.assert_array_equal(rows[:, 1:], expected)
    np.testing.assert_array_equal(rows[:, 0], [0.0, 4.0, 8.0])


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


# Entry points that derive child streams from a stream they are given, before
# any replication runs: a missing stream must be rejected up front.
CHILD_STREAM_ENTRY_POINTS = {
    "pickands": lambda stream: estimate_pickands([1.0], 1.0, (1.0, 2.0, 4.0), R=2000, stream=stream),
    "discrete_zero": lambda stream: estimate_discrete_zero([1.0], 1.0, (0.5, 0.25), 40.0, R=2000, stream=stream),
    "slepian": lambda stream: audit_slepian(ou_spec(), ou_spec(), [1.5], SampleGrid(0.0, 0.25, 5), 2000, stream),
    "monte_carlo_provider": lambda stream: gx.MonteCarloProvider(1.0, stream),
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


@pytest.mark.parametrize("value", [True, np.bool_(False), "1.5", None, math.nan, math.inf, -math.inf, 10**400, [1.0]])
def test_require_real_rejects_what_is_not_a_finite_number(value):
    with pytest.raises(DomainError, match=r"^step must be"):
        require_real(value, "step")


@pytest.mark.parametrize("value", [3, -2.5, np.int64(3), np.uint8(3), np.float32(0.5), np.float64(-2.5)])
def test_require_real_returns_a_float(value):
    x = require_real(value, "step")
    assert type(x) is float and x == float(value)


@pytest.mark.parametrize(
    "value, bounds, message",
    [
        (0.0, {"above": 0}, "u must be positive, got 0.0"),
        (1.0, {"above": 1}, "u must be > 1, got 1.0"),
        (-0.5, {"at_least": 0}, "u must be non-negative, got -0.5"),
        (0.5, {"at_least": 1}, "u must be >= 1, got 0.5"),
        (2.5, {"at_most": 2}, "u must be <= 2, got 2.5"),
        (2.5, {"above": 0, "at_most": 2}, "u must be positive and <= 2, got 2.5"),
        (-1, {"above": 0, "at_most": 2}, "u must be positive and <= 2, got -1.0"),
    ],
)
def test_require_real_applies_each_bound(value, bounds, message):
    with pytest.raises(DomainError) as exc:
        require_real(value, "u", **bounds)
    assert str(exc.value) == message


def test_require_real_bounds_are_inclusive_where_named():
    assert require_real(0, "u", at_least=0) == 0.0
    assert require_real(2, "kappa", above=0, at_most=2) == 2.0
    assert require_real(1e-300, "u", above=0) == 1e-300


def nonstationary_spec():
    sigma = gx.ProfileTable.from_function(lambda t: 1.0 / (1.0 + t), 1.0, count=65)
    # alpha = 1 > beta = 0.5: the tail formula is the bare product of tails
    return VectorProcessSpec((gx.NonStationary(sigma, 1.0, 1.0, 0.5, 0.0, 1.0, 4.0, 1.0, 0.5),), 1.0)


def nonstationary_with(**fields):
    (coord,) = nonstationary_spec().coords
    return (dataclasses.replace(coord, **fields),)


LEFT_PROFILE = gx.VarianceProfileReport(1.0, 0.0, "left", 0.0, 1.0)
UNIT_ESTIMATE = gx.ConstantEstimate(1.0, 0.0, (0.0, 1.0), 0.0, 0, "closed_form")
GRID = SampleGrid(0.0, 0.25, 5)
RIGHT_DRIFT = DriftSpec(1.0, (0.0,), (1.0,))


def window_constant(C=(1.0,), kappa=1.0, window=(0.0, 2.0), grid_step=None):
    return gx.estimate_window_constant(C, kappa, DriftSpec.zero(1), window, grid_step, R=2000, stream=STREAM)


def local_window(kappa=1.0, window=(0.0, 1.0), u=2.0, thresholds=(2.0,)):
    return gx.local_window_approx([1.0], kappa, DriftSpec.zero(1), window, thresholds, u, gx.ClosedFormProvider(1.0))


def locally_stationary_spec(kappa=1.0, block_count=32):
    return VectorProcessSpec((gx.LocallyStationary(gx.ProfileTable.constant(1.0, 1.0), kappa, block_count),), 1.0)


# Every numeric argument of the public entry points, as "entry-argument": a call
# with that one argument replaced.  A string, None or a bool there must be a
# GpxError.  An array argument is filled with it, so numpy reads it with a
# string, object or bool dtype.
NUMERIC_ENTRY_POINTS = {
    "SampleGrid-origin": lambda x: SampleGrid(x, 0.25, 5),
    "SampleGrid-step": lambda x: SampleGrid(0.0, x, 5),
    "FgnSampler-kappa": lambda x: sampling.FgnSampler(x, 0.25, 4),
    "FgnSampler-step": lambda x: sampling.FgnSampler(1.5, x, 4),
    "StationarySampler-a": lambda x: sampling.StationarySampler(x, 1.5, 0.25, 4),
    "StationarySampler-kappa": lambda x: sampling.StationarySampler(1.0, x, 0.25, 4),
    "StationarySampler-step": lambda x: sampling.StationarySampler(1.0, 1.5, x, 4),
    "sample_fbm-kappa": lambda x: gx.sample_fbm(x, GRID, 8, STREAM),
    "DriftSpec-exponent": lambda x: DriftSpec(x, (0.0,), (1.0,)),
    "DriftSpec-d_lower": lambda x: DriftSpec(1.0, (x,), (1.0,)),
    "DriftSpec-d_upper": lambda x: DriftSpec(1.0, (0.0,), (x,)),
    "default_window_step-kappa": lambda x: gx.default_window_step(x, 1.0),
    "default_window_step-S": lambda x: gx.default_window_step(1.0, x),
    "estimate_window_constant-C": lambda x: window_constant(C=[x]),
    "estimate_window_constant-kappa": lambda x: window_constant(kappa=x),
    "estimate_window_constant-S1": lambda x: window_constant(window=(x, 2.0)),
    "estimate_window_constant-S2": lambda x: window_constant(window=(0.0, x)),
    "estimate_window_constant-grid_step": lambda x: window_constant(grid_step=x),
    "estimate_pickands-C": lambda x: estimate_pickands([x], 1.0, (1.0, 2.0, 4.0), R=2000, stream=STREAM),
    "estimate_pickands-kappa": lambda x: estimate_pickands([1.0], x, (1.0, 2.0, 4.0), R=2000, stream=STREAM),
    "estimate_piterbarg-kappa": lambda x: estimate_piterbarg([1.0], x, RIGHT_DRIFT, "right", (1.0, 2.0), R=2000, stream=STREAM),
    "estimate_discrete_zero-kappa": lambda x: estimate_discrete_zero([1.0], x, (0.5, 0.25), 40.0, R=2000, stream=STREAM),
    "estimate_discrete_zero-horizon": lambda x: estimate_discrete_zero([5.0], 1.0, (0.5, 0.25), x, R=2000, stream=STREAM),
    "closed_forms_n1-C1": lambda x: gx.closed_forms_n1(x, 1.0),
    "closed_forms_n1-window_T": lambda x: gx.closed_forms_n1(1.0, 1.0, window_T=x),
    "pickands_bounds-n": lambda x: gx.pickands_bounds(x, [1.0, 1.0], 1.0),
    "pickands_bounds-C": lambda x: gx.pickands_bounds(1, [x], 1.0),
    "pickands_bounds-kappa": lambda x: gx.pickands_bounds(1, [1.0], x),
    "piterbarg_lower_bound-kappa": lambda x: gx.piterbarg_lower_bound([1.0], x, RIGHT_DRIFT, "right", 1.0),
    "piterbarg_lower_bound-pickands_value": lambda x: gx.piterbarg_lower_bound([1.0], 1.0, RIGHT_DRIFT, "right", x),
    "default_grid_step-horizon_T": lambda x: gx.default_grid_step(x, 2.0, 1.0),
    "default_grid_step-u": lambda x: gx.default_grid_step(1.0, x, 1.0),
    "default_grid_step-kappa_min": lambda x: gx.default_grid_step(1.0, 2.0, x),
    "estimate_conjunction_prob-thresholds": lambda x: gx.estimate_conjunction_prob(ou_spec(), [x], GRID, 2000, STREAM),
    "estimate_conjunction_prob-workers": lambda x: gx.estimate_conjunction_prob(ou_spec(), [1.5], GRID, 2000, STREAM, x),
    "conjunction_prob_nested-strides": lambda x: gx.conjunction_prob_nested(ou_spec(), [1.5], GRID, (x, 1), 2000, STREAM),
    "estimate_double_event-u": lambda x: estimate_double_event(two_coord_ou_spec(), x, 2.0, (4.0, 8.0), 2000, STREAM),
    "estimate_double_event-S": lambda x: estimate_double_event(two_coord_ou_spec(), 2.0, x, (4.0, 8.0), 2000, STREAM),
    "audit_slepian-thresholds": lambda x: audit_slepian(ou_spec(), ou_spec(), [x], GRID, 2000, STREAM),
    "MonteCarloProvider-kappa": lambda x: gx.MonteCarloProvider(x, STREAM),
    "MonteCarloProvider-R": lambda x: gx.MonteCarloProvider(1.0, STREAM, R=x),
    "MonteCarloProvider-workers": lambda x: gx.MonteCarloProvider(1.0, STREAM, workers=x),
    "ScalingProvider-kappa": lambda x: gx.ScalingProvider([1.0], UNIT_ESTIMATE, x),
    "ScalingProvider-base_C": lambda x: gx.ScalingProvider([x], UNIT_ESTIMATE, 1.0),
    "ClosedFormProvider-kappa": lambda x: gx.ClosedFormProvider(x),
    "ClosedFormProvider.pickands-C": lambda x: gx.ClosedFormProvider(1.0).pickands([x]),
    "ClosedFormProvider.window-C": lambda x: gx.ClosedFormProvider(1.0).window([x], DriftSpec.zero(1), (0.0, 1.0)),
    "ClosedFormProvider.window-window": lambda x: gx.ClosedFormProvider(1.0).window([1.0], DriftSpec.zero(1), (0.0, x)),
    "AsymptoticApproximation.assemble-tail_args": lambda x: gx.AsymptoticApproximation.assemble(
        "local_window", 1.0, 0.0, [x], 3.0
    ),
    "AsymptoticApproximation.assemble-u": lambda x: gx.AsymptoticApproximation.assemble(
        "local_window", 1.0, 0.0, [3.0], x
    ),
    "approx_locally_stationary-u": lambda x: gx.approx_locally_stationary(
        ou_spec(), gx.ThresholdFamily((1.0,)), x, gx.ClosedFormProvider(1.0)
    ),
    "approx_nonstationary-u": lambda x: gx.approx_nonstationary(
        nonstationary_spec(), x, LEFT_PROFILE, gx.ClosedFormProvider(1.0)
    ),
    "local_window_approx-kappa": lambda x: local_window(kappa=x),
    "local_window_approx-u": lambda x: local_window(u=x),
    "local_window_approx-window": lambda x: local_window(window=(0.0, x)),
    "local_window_approx-thresholds_at_u": lambda x: local_window(thresholds=[x]),
    "order_stats_approx-n": lambda x: gx.order_stats_approx(x, 1, 0.1),
    "order_stats_approx-r": lambda x: gx.order_stats_approx(3, x, 0.1),
    "order_stats_approx-base": lambda x: gx.order_stats_approx(3, 1, x),
    "theta_combination-beta": lambda x: gx.theta_combination(LEFT_PROFILE, x),
    "ThresholdFamily-limits_c": lambda x: gx.ThresholdFamily((x,)),
    "ThresholdFamily-offsets": lambda x: gx.ThresholdFamily((1.0,), (x,)),
    "ThresholdFamily.realize-u": lambda x: gx.ThresholdFamily((1.0,)).realize(x),
    "gaussian_tail-x": lambda x: gx.gaussian_tail(x),
    "gaussian_tail-entries": lambda x: gx.gaussian_tail([x, x]),
    "PointCloud-points": lambda x: gx.PointCloud(2, [[x, x]]),
    "sample_cholesky_oracle-cov": lambda x: gx.sample_cholesky_oracle([[x, x], [x, x]], 10, STREAM),
    "ProfileTable-nodes": lambda x: gx.ProfileTable((0.0, x), (1.0, 1.0)),
    "ProfileTable-values": lambda x: gx.ProfileTable((0.0, 1.0), (1.0, x)),
    "VectorProcessSpec-horizon": lambda x: VectorProcessSpec((Stationary(1.0, 1.0),), x),
    "VectorProcessSpec-Stationary.a": lambda x: VectorProcessSpec((Stationary(x, 1.5),), 1.0),
    "VectorProcessSpec-Stationary.kappa": lambda x: VectorProcessSpec((Stationary(1.0, x),), 1.0),
    "VectorProcessSpec-LocallyStationary.kappa": lambda x: locally_stationary_spec(kappa=x),
    "VectorProcessSpec-LocallyStationary.block_count": lambda x: locally_stationary_spec(block_count=x),
    "VectorProcessSpec-NonStationary.alpha": lambda x: VectorProcessSpec(nonstationary_with(alpha=x), 1.0),
    "VectorProcessSpec-NonStationary.b_lower": lambda x: VectorProcessSpec(nonstationary_with(b_lower=x), 1.0),
    "VectorProcessSpec-NonStationary.holder_rho": lambda x: VectorProcessSpec(nonstationary_with(holder_rho=x), 1.0),
    "VectorProcessSpec-FractionalBrownian.kappa": lambda x: VectorProcessSpec((gx.FractionalBrownian(x),), 1.0),
    "variance_profile-scan_step": lambda x: gx.variance_profile(nonstationary_spec(), x),
    "eval_correlation-s": lambda x: gx.eval_correlation(Stationary(1.0, 1.0), x, 0.5, 4.0),
    "eval_correlation-horizon_T": lambda x: gx.eval_correlation(Stationary(1.0, 1.0), 0.5, 0.5, x),
    "RngStream-master_seed": lambda x: RngStream(x),
    "RngStream-stream_id": lambda x: RngStream(1, x),
    "derive_stream-master_seed": lambda x: gx.derive_stream(x, "paths", 0),
    "derive_stream-index": lambda x: gx.derive_stream(1, "paths", x),
}

# Arguments that take only the string: None is the default of the first two,
# and None in an amplitude or threshold vector reads as nan, which was rejected
# already.
STRING_ONLY = {
    "estimate_window_constant-grid_step",
    "closed_forms_n1-window_T",
    "estimate_window_constant-C",
    "estimate_pickands-C",
    "pickands_bounds-C",
    "estimate_conjunction_prob-thresholds",
    "audit_slepian-thresholds",
}

NUMERIC_CASES = [
    pytest.param(entry, bad, id=f"{name}-{type(bad).__name__}")
    for name, entry in NUMERIC_ENTRY_POINTS.items()
    for bad in ("2", None, True)
    if not (bad is None and name in STRING_ONLY)
]


@pytest.mark.parametrize("entry, bad", NUMERIC_CASES)
def test_non_numeric_argument_is_a_package_error(entry, bad):
    with pytest.raises(gx.GpxError):
        entry(bad)


# Fractional counts: int() used to truncate them without a word.
FRACTIONAL_COUNTS = {
    "strides": lambda: gx.conjunction_prob_nested(ou_spec(), [1.5], SampleGrid(0.0, 0.125, 9), (4.7, 2, 1), 2000, STREAM),
    "block_count": lambda: locally_stationary_spec(block_count=2.5),
    "provider_R": lambda: gx.MonteCarloProvider(1.0, STREAM, R=2.5),
    "pickands_bounds_n": lambda: gx.pickands_bounds(1.5, [1.0], 1.0),
    "order_stats_r": lambda: gx.order_stats_approx(3, 1.5, 0.1),
    "workers": lambda: replicate(2000, STREAM, 1.5, record),
}


@pytest.mark.parametrize("entry", FRACTIONAL_COUNTS.values(), ids=FRACTIONAL_COUNTS.keys())
def test_fractional_count_is_a_package_error(entry):
    with pytest.raises(gx.GpxError, match="must be an integer"):
        entry()
