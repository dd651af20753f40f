import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from gpextremes import (
    ConvergenceError,
    DomainError,
    DriftSpec,
    RngStream,
    TruncationError,
    UnsupportedModelError,
    closed_forms_n1,
    estimate_discrete_zero,
    estimate_pickands,
    estimate_piterbarg,
    estimate_window_constant,
    pickands_bounds,
    piterbarg_lower_bound,
)
from gpextremes.constants import _window_node_count, default_window_step
from gpextremes.orthants import ewv_batch
from gpextremes.parallel import mean_and_se, replicate
from gpextremes.sampling import FgnSampler, _chunk_rows

STREAM = RngStream(31_337)
SQRT_PI = math.sqrt(math.pi)


def zero_drift(n, kappa=1.0):
    return DriftSpec.zero(n, exponent=kappa)


# Entry points that run estimate_window_constant with the given grid step.
GRID_STEP_ENTRY_POINTS = {
    "window": lambda step: estimate_window_constant(
        [1.0], 1.0, zero_drift(1), (0.0, 1.0), grid_step=step, R=2000, stream=STREAM
    ),
    "pickands": lambda step: estimate_pickands([1.0], 1.0, (1.0, 2.0, 4.0), grid_step=step, R=2000, stream=STREAM),
    "piterbarg": lambda step: estimate_piterbarg(
        [1.0], 1.0, DriftSpec(1.0, (0.0,), (1.0,)), "right", (1.0, 2.0), grid_step=step, R=2000, stream=STREAM
    ),
}


class TestClosedForms:
    def test_limit_constants(self):
        assert closed_forms_n1(1.0, 1) == 1.0
        assert closed_forms_n1(1.0, 2) == pytest.approx(1.0 / SQRT_PI, rel=1e-15)
        assert closed_forms_n1(2.0, 2) == pytest.approx(2.0 / SQRT_PI, rel=1e-15)
        assert closed_forms_n1(2.0, 1) == pytest.approx(4.0, rel=1e-15)

    def test_window_values(self):
        assert closed_forms_n1(1.0, 2, window_T=2.0) == pytest.approx(1.0 + 2.0 / SQRT_PI, rel=1e-15)
        assert closed_forms_n1(1.0, 1, window_T=0.0) == pytest.approx(1.0, rel=1e-15)
        # hand evaluation of the smooth-window formula at T=1
        expected = 3.0 * stats.norm.cdf(math.sqrt(0.5)) + math.exp(-0.25) / SQRT_PI
        assert closed_forms_n1(1.0, 1, window_T=1.0) == pytest.approx(expected, rel=1e-14)
        assert closed_forms_n1(1.0, 1, window_T=1.0) == pytest.approx(2.7201, abs=5e-5)

    def test_unsupported_kappa(self):
        with pytest.raises(UnsupportedModelError):
            closed_forms_n1(1.0, 1.5)

    def test_window_requires_unit_amplitude(self):
        with pytest.raises(DomainError):
            closed_forms_n1(2.0, 1, window_T=1.0)


class TestPickandsBounds:
    def test_lower_n2_kappa1(self):
        lower, upper = pickands_bounds(2, [1.0, 1.0], 1.0)
        assert lower == pytest.approx(2.0 / 16.0, rel=1e-15)
        assert upper == pytest.approx(2.0 * 2.0 * (2.0 + math.sqrt(2.0 / (math.pi * math.e))), rel=1e-12)
        assert upper == pytest.approx(9.936, abs=5e-4)

    def test_upper_n1_kappa2_is_exact_constant(self):
        lower, upper = pickands_bounds(1, [1.0], 2.0)
        assert upper == pytest.approx(1.0 / SQRT_PI, rel=1e-15)
        assert lower == pytest.approx(1.0 / (4.0 * SQRT_PI), rel=1e-12)

    def test_upper_n2_kappa2(self):
        _, upper = pickands_bounds(2, [1.0, 1.0], 2.0)
        assert upper == pytest.approx(4.0 / SQRT_PI, rel=1e-15)

    def test_general_kappa_lower_only(self):
        lower, upper = pickands_bounds(2, [1.0, 2.0], 0.8)
        expected = 5.0 ** (1.0 / 0.8) / (4.0 ** (1.0 + 1.0 / 0.8) * math.gamma(1.0 / 0.8 + 1.0))
        assert lower == pytest.approx(expected, rel=1e-12)
        assert upper is None

    def test_non_unit_amplitude_has_no_upper(self):
        _, upper = pickands_bounds(1, [2.0], 2.0)
        assert upper is None


class TestPiterbargLowerBound:
    def test_right_variant_example(self):
        d = DriftSpec(1.0, (0.0,), (1.0,))
        assert piterbarg_lower_bound([1.0], 1.0, d, "right", 1.0) == pytest.approx(1.0 / math.e, rel=1e-15)

    def test_negative_components_clamp(self):
        d = DriftSpec(1.0, (0.0, 0.0), (-1.0, 2.0))
        val = piterbarg_lower_bound([1.0, 1.0], 1.0, d, "right", 1.0)
        assert val == pytest.approx(1.0 / (math.e * 2.0), rel=1e-15)

    def test_two_sided_example(self):
        d = DriftSpec(1.0, (1.0,), (1.0,))
        assert piterbarg_lower_bound([1.0], 1.0, d, "two_sided", 1.0) == pytest.approx(1.0 / math.e, rel=1e-15)

    def test_all_zero_drift_rejected(self):
        d = DriftSpec(1.0, (-1.0,), (0.0,))
        with pytest.raises(DomainError):
            piterbarg_lower_bound([1.0], 1.0, d, "right", 1.0)


class TestWindowConstant:
    def test_degenerate_window_is_one(self):
        est = estimate_window_constant([1.0], 1.0, zero_drift(1), (0.0, 0.0), R=0, stream=None)
        assert est.value == 1.0 and est.se == 0.0

    def test_kappa2_window_matches_closed_form(self):
        # linear-path case is evaluated by quadrature: exact up to grid bias
        est = estimate_window_constant(
            [1.0], 2.0, zero_drift(1, 2.0), (0.0, 1.0), R=8000, stream=STREAM.child("k2")
        )
        assert abs(est.value - (1.0 + 1.0 / SQRT_PI)) < max(3.0 * est.se, 1e-6)

    @pytest.mark.parametrize(
        "C, drift, window, value, se",
        [
            ([1.0, 1.0], zero_drift(2, 2.0), (1.0, 1.0), "0x1.a0b4d0d01bcacp+1", "0x1.5ea226dbe42dcp-22"),
            (
                [1.0, 0.5],
                DriftSpec(2.0, (0.3, 0.1), (0.3, 0.1)),
                (2.0, 2.0),
                "0x1.442ec458b17e3p+1",
                "0x1.2e67d1c9d2f70p-23",
            ),
            (
                [1.0, 1.0],
                DriftSpec(1.0, (0.5, 0.5), (0.5, 0.5)),
                (0.5, 0.5),
                "0x1.8c9b43b1ddd32p+0",
                "0x1.21c75d1000fc9p-17",
            ),
        ],
        ids=["zero-drift", "quadratic-drift", "linear-drift"],
    )
    def test_kappa2_n2_symmetric_window_bits(self, C, drift, window, value, se):
        # On a symmetric window the quadrature row of a zero normal has tied
        # x at t and -t.  The values are those of a stable sort: the order in
        # which the sweep meets tied points leaves these results bit for bit.
        est = estimate_window_constant(C, 2.0, drift, window, R=0, stream=None)
        assert (est.value, est.se) == (float.fromhex(value), float.fromhex(se))

    # the quadrature path used to return before the count was checked
    @pytest.mark.parametrize("R", [-1, 2000.5, "2000", None])
    def test_kappa2_quadrature_checks_r(self, R):
        with pytest.raises(DomainError, match="R must be"):
            estimate_window_constant([1.0], 2.0, zero_drift(1, 2.0), (0.0, 1.0), R=R, stream=STREAM)

    def test_kappa1_window_matches_closed_form(self):
        est = estimate_window_constant(
            [1.0], 1.0, zero_drift(1), (0.0, 1.0), R=20_000, stream=STREAM.child("k1")
        )
        assert abs(est.value - 2.72014) < 3.0 * est.se

    def test_deterministic(self):
        kwargs = dict(grid_step=1.0 / 64, R=2000, stream=RngStream(11, 8))
        a = estimate_window_constant([1.0, 1.0], 1.0, zero_drift(2), (0.0, 1.0), **kwargs)
        b = estimate_window_constant([1.0, 1.0], 1.0, zero_drift(2), (0.0, 1.0), **kwargs)
        assert a.value == b.value and a.se == b.se

    def test_worker_count_invariance(self):
        common = dict(grid_step=1.0 / 64, R=5000, stream=RngStream(11, 9))
        a = estimate_window_constant([1.0], 1.5, zero_drift(1, 1.5), (0.0, 1.0), workers=1, **common)
        b = estimate_window_constant([1.0], 1.5, zero_drift(1, 1.5), (0.0, 1.0), workers=8, **common)
        assert a.value == b.value and a.se == b.se

    @pytest.mark.parametrize("n", [3, 4])
    def test_worker_count_invariance_n3(self, n):
        common = dict(grid_step=1.0 / 32, R=5000, stream=RngStream(11, 10))
        a = estimate_window_constant([1.0] * n, 1.0, zero_drift(n), (0.0, 1.0), workers=1, **common)
        b = estimate_window_constant([1.0] * n, 1.0, zero_drift(n), (0.0, 1.0), workers=2, **common)
        assert a.value == b.value and a.se == b.se

    # the last coordinate is identically 0, so every EWV_n equals the EWV_(n-1) of the others;
    # n = 4 compares the slice of the last coordinate with the n = 3 kernel
    @pytest.mark.parametrize("n", [3, 4])
    def test_zero_amplitude_coordinate_drops_out(self, n):
        common = dict(grid_step=1.0 / 32, R=2048, stream=STREAM.child("c0"))
        full = estimate_window_constant([1.0] * (n - 1) + [0.0], 1.0, zero_drift(n), (0.0, 1.0), **common)
        less = estimate_window_constant([1.0] * (n - 1), 1.0, zero_drift(n - 1), (0.0, 1.0), **common)
        assert full.value == pytest.approx(less.value, rel=1e-12)
        assert full.se == pytest.approx(less.se, rel=1e-9)

    def test_subadditivity_small(self):
        h1 = estimate_window_constant([1.0], 1.0, zero_drift(1), (0.0, 1.0), R=10_000, stream=STREAM.child("s1"))
        h2 = estimate_window_constant([1.0], 1.0, zero_drift(1), (0.0, 2.0), R=10_000, stream=STREAM.child("s2"))
        pooled = math.hypot(h2.se, 2.0 * h1.se)
        assert h2.value <= 2.0 * h1.value + 3.0 * pooled

    def test_single_increment_window(self):
        # nodes {0, 1/2}: H = E max(1, e^X) with X ~ N(-v/2, v), v = 2 (1/2)^kappa,
        # which is 2 Phi(sqrt(v) / 2)
        kappa = 1.5
        est = estimate_window_constant(
            [1.0], kappa, zero_drift(1, kappa), (0.0, 0.5), grid_step=0.5, R=4000, stream=STREAM.child("w1")
        )
        exact = 2.0 * stats.norm.cdf(math.sqrt(2.0 * 0.5**kappa) / 2.0)
        assert abs(est.value - exact) < 4.0 * est.se

    def test_amplitude_and_r_preconditions(self):
        with pytest.raises(DomainError):
            estimate_window_constant([0.0], 1.0, zero_drift(1), (0.0, 1.0), R=2000, stream=STREAM)
        with pytest.raises(DomainError):
            estimate_window_constant([1.0], 1.0, zero_drift(1), (0.0, 1.0), R=500, stream=STREAM)
        with pytest.raises(DomainError):
            estimate_discrete_zero([1.0], 1.0, (0.5, 0.25), 40.0, R=999, stream=STREAM)

    @pytest.mark.parametrize("grid_step", [0.0, -0.25, math.nan])
    @pytest.mark.parametrize("entry", GRID_STEP_ENTRY_POINTS.values(), ids=GRID_STEP_ENTRY_POINTS.keys())
    def test_grid_step_precondition(self, entry, grid_step):
        with pytest.raises(DomainError, match="grid_step"):
            entry(grid_step)

    @pytest.mark.parametrize("window", [1.0, None, (0.0, 1.0, 5.0), (1.0,)])
    def test_window_must_be_a_pair(self, window):
        with pytest.raises(DomainError, match="pair"):
            estimate_window_constant([1.0], 1.0, zero_drift(1), window, R=2000, stream=STREAM)

    @pytest.mark.parametrize("window", [(math.nan, 1.0), (0.0, math.inf), (math.inf, 0.0)])
    def test_window_bounds_must_be_finite(self, window):
        with pytest.raises(DomainError, match="window bounds"):
            estimate_window_constant([1.0], 1.0, zero_drift(1), window, R=2000, stream=STREAM)


def path_rows(sampler, Rb, gen, chunk):
    """The ``(Rb, count + 1)`` paths of ``sampler`` in a new array, drawn in
    chunks of ``chunk`` rows as an estimator draws them: a dense path is one
    triangular product per chunk, which rounds by the chunk's row count."""
    take = sampler.path.chunks(gen)
    return np.concatenate([take(min(chunk, Rb - r0)) for r0 in range(0, Rb, chunk)])


def stacked_window_constant(C, kappa, drift, window, step, R, stream):
    """(value, se) of the window constant built the way it was before the
    in-place blocks: a separate array per coordinate path, anchored and
    drifted out of place, then ``np.stack`` of the paths handed to
    ``ewv_batch`` as one contiguous cloud (or the exact bridge maxima)."""
    C = np.asarray(C, dtype=float)
    j1 = _window_node_count(window[0], step, "S1")
    m = j1 + _window_node_count(window[1], step, "S2") + 1
    t = (np.arange(m) - j1) * step
    trend = np.abs(t)[:, None] ** kappa * (C**2)[None, :] + drift.evaluate(t)
    sampler = FgnSampler(kappa, step, m - 1)
    sqrt2C = math.sqrt(2.0) * C
    chunk = _chunk_rows(C.size * m)

    def run_block(Rb, block):
        parts = []
        for i in range(C.size):
            path = path_rows(sampler, Rb, block("coord", i).generator(), chunk)
            path -= path[:, j1][:, None]
            parts.append(sqrt2C[i] * path - trend[None, :, i])
        if C.size == 1 and kappa == 1.0:
            xi = parts[0]
            log_u = np.log1p(-block("bridge").generator().random(size=(Rb, m - 1)))
            a, b = xi[:, :-1], xi[:, 1:]
            seg_max = 0.5 * (a + b + np.sqrt((b - a) ** 2 - 4.0 * C[0] ** 2 * step * log_u))
            return np.exp(seg_max.max(axis=1))
        return ewv_batch(np.stack(parts, axis=2))

    return mean_and_se(replicate(R, stream, 1, run_block))


# (C, kappa, drift, window, grid_step, R) of window constants whose in-place
# blocks must reproduce the stacked ones bit for bit
STACKED_WINDOWS = {
    "n1-fgn": ([1.0], 1.5, DriftSpec.zero(1, 1.5), (0.0, 1.0), 1.0 / 64, 2048),
    "n2-two-sided": ([1.0, 0.7], 1.5, DriftSpec(1.5, (0.2, 0.1), (0.3, 0.0)), (0.5, 1.0), 1.0 / 64, 2048),
    "n2-kappa1": ([1.0, 1.0], 1.0, zero_drift(2), (0.25, 1.0), 1.0 / 128, 2048),
    "n3": ([1.0, 1.0, 0.5], 1.2, zero_drift(3, 1.2), (0.25, 0.5), 1.0 / 32, 1000),
    "bridge": ([1.0], 1.0, DriftSpec(1.0, (0.0,), (1.0,)), (0.0, 1.0), default_window_step(1.0, 1.0), 2048),
}


class TestInPlaceBlocks:
    @pytest.mark.parametrize("case", STACKED_WINDOWS.values(), ids=STACKED_WINDOWS.keys())
    def test_in_place_blocks_equal_stacked_blocks(self, case):
        C, kappa, drift, window, step, R = case
        stream = RngStream(2024, 8)
        est = estimate_window_constant(C, kappa, drift, window, grid_step=step, R=R, stream=stream)
        assert (est.value, est.se) == stacked_window_constant(C, kappa, drift, window, step, R, stream)

    def test_block_peak_is_a_few_planes(self):
        # one n = 2 block of R = 2048 paths on m = 513 nodes: the two coordinate
        # planes, the circulant draw's row chunks and the staircase's row chunks
        R, m = 2048, 513
        plane = R * m * 8
        tracemalloc.start()
        try:
            estimate_window_constant(
                [1.0, 1.0], 1.5, zero_drift(2, 1.5), (0.0, 4.0), grid_step=4.0 / 512, R=R, stream=STREAM.child("mem")
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * plane

    def test_streamed_block_holds_a_chunk(self):
        # the same block streams 511-row chunks: the two coordinate planes of a
        # chunk, the circulant draw's sub-chunks and the staircase's row chunks
        tracemalloc.start()
        try:
            estimate_window_constant(
                [1.0, 1.0], 1.5, zero_drift(2, 1.5), (0.0, 4.0), grid_step=4.0 / 512, R=2048, stream=STREAM.child("mem")
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * (511 * 2 * 513 * 8)

    def test_window_diagnostics_report_the_draw(self):
        common = dict(grid_step=1.0 / 128, R=4096, stream=STREAM.child("diag"))
        est = estimate_window_constant([1.0], 1.5, zero_drift(1, 1.5), (0.0, 1.0), **common)
        assert est.diagnostics == {
            "sampler_methods": ["dense"],
            "sampler_sizes": [129],
            "sampler_clamped": [0],
            "sampler_factors": ["cholesky"],
            "blocks": 2,
            "rows_drawn": [4096],
        }
        est = estimate_window_constant([1.0], 1.0, zero_drift(1), (0.0, 1.0), **common)
        assert est.diagnostics == {
            "sampler_methods": ["direct"],
            "sampler_sizes": [128],
            "sampler_clamped": [0],
            "sampler_factors": [None],
            "blocks": 2,
            "rows_drawn": [4096],
        }


def cumsum_discrete_zero(C, kappa, u_ladder, horizon, R, stream):
    """(value, se, rungs) of the discrete-zero estimate built the way it was
    before the in-place blocks: a separate path array per coordinate, and the
    out-of-place ``sqrt2C * path - trend + tilt`` of its K lattice nodes
    folded into the running minimum, from the same ``replicate`` streams."""
    C = np.asarray(C, dtype=float)
    sqrt2C = math.sqrt(2.0) * C
    rungs = []
    for r, u in enumerate(u_ladder):
        K = int(math.floor(horizon / u + 1e-9))
        trend = (u * np.arange(1, K + 1))[:, None] ** kappa * (C**2)[None, :]
        sampler = FgnSampler(kappa, u, K)
        chunk = _chunk_rows(2 * K + 1)

        def run_block(Rb, block):
            mins = np.full((Rb, K), np.inf)
            for i in range(C.size):
                path = path_rows(sampler, Rb, block("coord", i).generator(), chunk)[:, 1:]
                tilt = block("tilt", i).generator().exponential(size=Rb)
                np.minimum(mins, sqrt2C[i] * path - trend[None, :, i] + tilt[:, None], out=mins)
            return int((mins.max(axis=1) <= 0.0).sum())

        p = sum(replicate(R, stream.child("rung", r), 1, run_block)) / R
        rungs.append((u, p / u, math.sqrt(p * (1.0 - p) / R) / u))
    (u1, h1, se1), (u2, h2, se2) = rungs[-2], rungs[-1]
    w = u2 / (u1 - u2)
    return h2 + (h2 - h1) * w, math.hypot((1.0 + w) * se2, w * se1), rungs


# (C, kappa, u_ladder, horizon, R) of discrete-zero estimates whose in-place
# blocks must reproduce the cumsum blocks bit for bit
CUMSUM_DISCRETE_ZERO = {
    "n1-kappa1": ([1.0], 1.0, (0.4, 0.2), 41.0, 2048),
    "n2-kappa15": ([1.0, 0.8], 1.5, (0.25, 0.125), 12.0, 2048),
    "n3-kappa12": ([1.0, 1.0, 0.5], 1.2, (0.5, 0.25), 22.0, 1000),
    "n3-kappa2": ([1.0, 1.0, 0.5], 2.0, (0.4, 0.2), 6.5, 1000),
}


class TestInPlaceDiscreteZero:
    @pytest.mark.parametrize("case", CUMSUM_DISCRETE_ZERO.values(), ids=CUMSUM_DISCRETE_ZERO.keys())
    def test_in_place_blocks_equal_cumsum_blocks(self, case):
        C, kappa, ladder, horizon, R = case
        stream = RngStream(2024, 9)
        est = estimate_discrete_zero(C, kappa, ladder, horizon, R=R, stream=stream)
        value, se, rungs = cumsum_discrete_zero(C, kappa, ladder, horizon, R, stream)
        assert (est.value, est.se, est.diagnostics["rungs"]) == (value, se, rungs)

    @pytest.mark.parametrize("n", [2, 3])
    def test_block_peak_is_a_few_planes(self, n):
        # one block of R = 2048 paths on K = 512 lattice nodes: the running
        # minimum, the one reused path plane and the circulant draw's row chunks
        R, K, kappa = 2048, 512, 1.5
        horizon = 1.01 * 40.0 ** (1.0 / kappa)
        u = horizon / K
        plane = R * K * 8
        tracemalloc.start()
        try:
            estimate_discrete_zero([1.0] * n, kappa, (2.0 * u, u), horizon, R=R, stream=STREAM.child("dzmem"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.5 * plane


class TestDriftSpec:
    @pytest.mark.parametrize("exponent", [math.nan, math.inf, 0.0])
    def test_exponent_must_be_finite_and_positive(self, exponent):
        with pytest.raises(DomainError, match="exponent"):
            DriftSpec(exponent, (0.0,), (1.0,))

    @pytest.mark.parametrize("d_lower, d_upper", [((math.nan,), (0.0,)), ((0.0, 0.0), (1.0, -math.inf))])
    def test_coefficients_must_be_finite(self, d_lower, d_upper):
        with pytest.raises(DomainError, match="finite"):
            DriftSpec(1.0, d_lower, d_upper)

    @pytest.mark.parametrize("d_lower, d_upper", [(1.0, 1.0), ((0.0,), None)])
    def test_coefficients_must_be_sequences(self, d_lower, d_upper):
        with pytest.raises(DomainError, match="sequence of numbers"):
            DriftSpec(1.0, d_lower, d_upper)


# Entry points that take a drift, called with the given drift.
DRIFT_ENTRY_POINTS = {
    "window": lambda drift: estimate_window_constant([1.0], 1.0, drift, (0.0, 1.0), R=2000, stream=STREAM),
    "piterbarg": lambda drift: estimate_piterbarg([1.0], 1.0, drift, "right", (1.0, 2.0), R=2000, stream=STREAM),
    "lower_bound": lambda drift: piterbarg_lower_bound([1.0], 1.0, drift, "right", 1.0),
}


class TestDriftArgument:
    @pytest.mark.parametrize("entry", DRIFT_ENTRY_POINTS.values(), ids=DRIFT_ENTRY_POINTS.keys())
    def test_none_is_a_domain_error(self, entry):
        with pytest.raises(DomainError, match="DriftSpec"):
            entry(None)

    @pytest.mark.parametrize("entry", DRIFT_ENTRY_POINTS.values(), ids=DRIFT_ENTRY_POINTS.keys())
    def test_dimension_must_match_C(self, entry):
        with pytest.raises(DomainError, match="dimension"):
            entry(DriftSpec(1.0, (0.0, 0.0), (1.0, 1.0)))


class TestPickandsEstimator:
    def test_kappa2_slope(self):
        est = estimate_pickands([1.0], 2.0, (1.0, 2.0, 4.0, 8.0), R=5000, stream=STREAM.child("p2"))
        assert est.estimator_tag == "slope"
        assert abs(est.value - 1.0 / SQRT_PI) < 1e-3

    def test_kappa1_slope(self):
        est = estimate_pickands([1.0], 1.0, (1.0, 2.0, 4.0, 8.0), R=20_000, stream=STREAM.child("p1"))
        assert abs(est.value - 1.0) < 0.10

    def test_ratio_sequence_reported(self):
        est = estimate_pickands([1.0], 2.0, (1.0, 2.0, 4.0), R=2000, stream=STREAM.child("pr"))
        diag = est.diagnostics
        assert len(diag["ratios"]) == 3
        assert [S for S, _, _ in diag["rungs"]] == [1.0, 2.0, 4.0]

    def test_rung_draws_reported(self):
        est = estimate_pickands([1.0], 1.5, (0.5, 1.0, 2.0), R=2048, stream=STREAM.child("pd"))
        draws = est.diagnostics["rung_draws"]
        # default step S/512 puts 512 increments in every rung, a dense path of 513 nodes
        assert draws == [
            {
                "sampler_methods": ["dense"],
                "sampler_sizes": [513],
                "sampler_clamped": [0],
                "sampler_factors": ["cholesky"],
                "blocks": 1,
                "rows_drawn": [2048],
            }
        ] * 3

    def test_ladder_preconditions(self):
        with pytest.raises(DomainError):
            estimate_pickands([1.0], 1.0, (1.0, 2.0), R=2000, stream=STREAM)
        with pytest.raises(DomainError):
            estimate_pickands([1.0], 1.0, (2.0, 1.0, 4.0), R=2000, stream=STREAM)


class TestPiterbargEstimator:
    def test_strong_drift_boundary_layer(self):
        # sup of sqrt(2)B(t) - (1 + d)t is exponential(rate 1 + d - 1 ... ) in the
        # S -> infinity limit: E exp(sup) = mu/(mu-1) with mu = 1 + d
        d = 1000.0
        est = estimate_piterbarg(
            [1.0], 1.0, DriftSpec(1.0, (0.0,), (d,)), "right", (1.0, 2.0), R=20_000, stream=STREAM.child("sd")
        )
        mu = 1.0 + d
        assert abs(est.value - mu / (mu - 1.0)) < max(3.0 * est.se, 1e-4)
        assert abs(est.value - 1.0) < 2e-3

    def test_respects_lower_bound(self):
        drift = DriftSpec(1.0, (0.0,), (1.0,))
        est = estimate_piterbarg([1.0], 1.0, drift, "right", (2.0, 4.0, 8.0), R=20_000, stream=STREAM.child("lb"))
        bound = piterbarg_lower_bound([1.0], 1.0, drift, "right", 1.0)
        assert est.value + 3.0 * est.se >= bound

    def test_left_right_symmetry(self):
        drift_r = DriftSpec(1.0, (0.0,), (1.0,))
        drift_l = DriftSpec(1.0, (1.0,), (0.0,))
        er = estimate_piterbarg([1.0], 1.0, drift_r, "right", (2.0, 4.0, 8.0), R=20_000, stream=STREAM.child("sr"))
        el = estimate_piterbarg([1.0], 1.0, drift_l, "left", (2.0, 4.0, 8.0), R=20_000, stream=STREAM.child("sl"))
        assert abs(er.value - el.value) < 3.0 * math.hypot(er.se, el.se)

    def test_two_sided_reflection_symmetry(self):
        drift = DriftSpec(1.0, (1.0,), (1.0,))
        a = estimate_piterbarg([1.0], 1.0, drift, "two_sided", (2.0, 4.0, 8.0), R=20_000, stream=STREAM.child("ts"))
        b = estimate_piterbarg([1.0], 1.0, drift, "two_sided", (2.0, 4.0, 8.0), R=20_000, stream=STREAM.child("ts2"))
        assert abs(a.value - b.value) < 3.0 * math.hypot(a.se, b.se)

    def test_zero_drift_rung_equals_window(self):
        stream = STREAM.child("zdr2")
        drift = DriftSpec(1.0, (0.0,), (0.5,))
        ladder = (2.0, 4.0)
        pit = estimate_piterbarg([1.0], 1.0, drift, "right", ladder, R=4000, stream=stream, grid_step=1.0 / 64)
        S_conv = pit.diagnostics["converged_at_S"]
        rung = stream.child("rung", ladder.index(S_conv))
        win = estimate_window_constant(
            [1.0], 1.0, drift, (0.0, S_conv), R=4000, stream=rung, grid_step=1.0 / 64
        )
        assert pit.value == win.value and pit.se == win.se

    def test_drift_sum_preconditions(self):
        with pytest.raises(DomainError):
            estimate_piterbarg([1.0], 1.0, DriftSpec(1.0, (1.0,), (0.0,)), "right", (2.0, 4.0), R=2000, stream=STREAM)
        with pytest.raises(DomainError):
            estimate_piterbarg([1.0], 1.0, DriftSpec(1.0, (0.0,), (1.0,)), "two_sided", (2.0, 4.0), R=2000, stream=STREAM)

    def test_no_convergence_raises_with_sequence(self):
        with pytest.raises(ConvergenceError) as err:
            estimate_piterbarg(
                [1.0], 1.0, DriftSpec(1.0, (0.0,), (1.0,)), "right", (1.0,), R=2000, stream=STREAM.child("nc")
            )
        assert len(err.value.sequence) == 1


def discrete_zero_oracle_kappa2(u, horizon):
    """P(all lattice nodes stay non-positive) for linear paths t*xi with an
    exponential tilt, by quadrature over (xi, tilt)."""
    ks = np.arange(1, int(math.floor(horizon / u + 1e-9)) + 1) * u

    def integrand(x):
        margin = np.min(ks**2 - math.sqrt(2.0) * ks * x)
        if margin <= 0:
            return 0.0
        return stats.norm.pdf(x) * (1.0 - math.exp(-margin))

    val, _ = integrate.quad(np.vectorize(integrand), -12.0, 12.0, limit=200)
    return val


class TestDiscreteZero:
    def test_kappa2_rung_matches_quadrature(self):
        horizon = math.sqrt(40.0)
        est = estimate_discrete_zero([1.0], 2.0, (0.5, 0.25), horizon, R=40_000, stream=STREAM.child("dz"))
        u, value, se = est.diagnostics["rungs"][-1]
        oracle = discrete_zero_oracle_kappa2(0.25, horizon) / 0.25
        assert abs(value - oracle) < 3.0 * se

    def test_extrapolation_agrees_with_pickands_kappa2(self):
        horizon = math.sqrt(40.0)
        est = estimate_discrete_zero([1.0], 2.0, (0.4, 0.2, 0.1), horizon, R=60_000, stream=STREAM.child("dzx"))
        assert abs(est.value - 1.0 / SQRT_PI) < 4.0 * math.hypot(est.se, 0.002)

    def test_single_node_rungs(self):
        # horizon / u < 2: each rung sees the one node u, where the path is
        # sqrt(2) C u^(kappa/2) Z - C^2 u^kappa plus a unit exponential tilt
        C, kappa, horizon = math.sqrt(40.0), 1.9, 1.0
        est = estimate_discrete_zero([C], kappa, (0.9, 0.51), horizon, R=20_000, stream=STREAM.child("dz1"))
        for u, value, se in est.diagnostics["rungs"]:
            c, s = C * C * u**kappa, math.sqrt(2.0) * C * u ** (kappa / 2)
            p, _ = integrate.quad(lambda z: stats.norm.pdf(z) * -math.expm1(-(c - s * z)), -12.0, c / s)
            assert se > 0
            assert abs(value - p / u) < 4.0 * se

    def test_all_hit_rung_reports_the_rule_of_three_se(self):
        # the call of test_single_node_rungs on a stream where every replication
        # of the u = 0.9 rung hits: its se is 3 / (R u), not a binomial 0
        C, kappa, horizon, R = math.sqrt(40.0), 1.9, 1.0, 20_000
        est = estimate_discrete_zero([C], kappa, (0.9, 0.51), horizon, R=R, stream=STREAM.child("dz1-1"))
        u, value, se = est.diagnostics["rungs"][0]
        assert (u, value) == (0.9, 1.0 / 0.9)
        assert se == 3.0 / (R * u)

    def test_rung_draws_reported(self):
        est = estimate_discrete_zero([1.0, 0.8], 1.5, (0.25, 0.125), 12.0, R=4096, stream=STREAM.child("dzd"))
        # K = 48 and 96 lattice steps, each a dense path of K + 1 nodes
        assert est.diagnostics["rung_draws"] == [
            {
                "sampler_methods": ["dense"] * 2,
                "sampler_sizes": [size] * 2,
                "sampler_clamped": [0] * 2,
                "sampler_factors": ["cholesky"] * 2,
                "blocks": 2,
                "rows_drawn": [4096] * 2,
            }
            for size in (49, 97)
        ]
        assert [u for u, _, _ in est.diagnostics["rungs"]] == [0.25, 0.125]

    def test_horizon_precondition(self):
        with pytest.raises(TruncationError):
            estimate_discrete_zero([1.0], 1.0, (0.5, 0.25), 10.0, R=2000, stream=STREAM)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_horizon_must_be_finite(self, horizon):
        with pytest.raises(DomainError, match="horizon"):
            estimate_discrete_zero([1.0], 1.0, (0.5, 0.25), horizon, R=2000, stream=STREAM)

    def test_empty_node_set(self):
        with pytest.raises(TruncationError):
            estimate_discrete_zero([1.0], 1.0, (50.0, 45.0), 40.0, R=2000, stream=STREAM)

    def test_ladder_must_decrease(self):
        with pytest.raises(DomainError):
            estimate_discrete_zero([1.0], 1.0, (0.25, 0.5), 40.0, R=2000, stream=STREAM)
