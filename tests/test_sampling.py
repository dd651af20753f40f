import functools
import itertools
import logging
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest
from scipy import signal, stats

import gpextremes
import gpextremes.parallel as parallel
import gpextremes.sampling as sampling
from gpextremes import (
    DomainError,
    EmbeddingError,
    FactorizationError,
    FractionalBrownian,
    NonStationary,
    ProfileTable,
    RngStream,
    SampleGrid,
    Stationary,
    LocallyStationary,
    VectorProcessSpec,
    coord_covariance,
    read_path_dump,
    sample_cholesky_oracle,
    sample_fbm,
    sample_vector,
    write_path_dump,
)

STREAM = RngStream(77)


def full_fft_circulant_draw(eigs, size, count, R, gen):
    """The circulant draw as a full Hermitian spectrum and a complex FFT.

    Kept as the reference for the half-spectrum ``irfft`` draw: it consumes
    the same normals in the same order, each row's ``size`` normals after
    the row before: mode 0, the real and imaginary parts of each paired mode
    in turn, then mode size/2.
    """
    half = size // 2
    z = gen.standard_normal((R, size))
    w = np.zeros((R, size), dtype=complex)
    w[:, 0] = np.sqrt(eigs[0] / size) * z[:, 0]
    w[:, half] = np.sqrt(eigs[half] / size) * z[:, -1]
    if half > 1:
        modes = np.sqrt(eigs[1:half] / (2.0 * size)) * (z[:, 1:-1:2] + 1j * z[:, 2:-1:2])
        w[:, 1:half] = modes
        w[:, half + 1 :] = np.conj(modes[:, ::-1])
    return np.fft.fft(w, axis=1).real[:, :count]


def circulant(scale, size, count, R, gen):
    """The full circulant draw: every chunk of the circulant kernel's cursor."""
    return sampling._Draw(functools.partial(sampling._circulant_draw, scale, size, count), count)(R, gen)


def dense(factor, R, gen):
    """The full dense draw: every chunk of the dense kernel's cursor."""
    return sampling._Draw(functools.partial(sampling._dense_draw, factor), factor.shape[0])(R, gen)


def cov_matrix(coord, nodes):
    return np.asarray(coord_covariance(coord, nodes[:, None], nodes[None, :]))


def max_cov_z(values, target):
    """Largest |empirical - target| covariance deviation in units of its se."""
    R = values.shape[0]
    emp = values.T @ values / R
    var = np.diag(target)
    se = np.sqrt((np.outer(var, var) + target**2) / R)
    se = np.where(se == 0, np.inf, se)
    z = np.abs(emp - target) / se
    exact = se == np.inf
    assert np.all(np.abs(emp - target)[exact] < 1e-12)
    return float(z.max())


class TestSampleGrid:
    @pytest.mark.parametrize(
        "origin, step", [(math.nan, 0.1), (-math.inf, 0.1), (0.0, math.inf), (0.0, math.nan), (0.0, 0.0)]
    )
    def test_origin_and_step_must_be_finite(self, origin, step):
        with pytest.raises(DomainError, match="grid"):
            SampleGrid(origin, step, 5)

    # 2.5 used to pass and give 3 nodes, and "3" raised a bare TypeError
    @pytest.mark.parametrize("count", [0, 2.5, "3", None])
    def test_count_must_be_a_positive_integer(self, count):
        with pytest.raises(DomainError, match="grid count must be"):
            SampleGrid(0.0, 0.1, count)

    def test_count_is_stored_as_an_int(self):
        count = SampleGrid(0.0, 0.1, np.int64(3)).count
        assert type(count) is int and count == 3


class TestSampleFbm:
    def test_deterministic(self):
        grid = SampleGrid(0.0, 0.25, 9)
        a = sample_fbm(1.5, grid, 16, RngStream(5, 2))
        b = sample_fbm(1.5, grid, 16, RngStream(5, 2))
        assert np.array_equal(a.values, b.values)

    def test_starts_at_zero(self):
        batch = sample_fbm(0.8, SampleGrid(0.0, 0.1, 11), 50, STREAM.child("z"))
        assert np.all(batch.values[:, 0, 0] == 0.0)

    def test_kappa2_paths_are_linear(self):
        grid = SampleGrid(0.0, 0.125, 9)
        batch = sample_fbm(2.0, grid, 4000, STREAM.child("lin"))
        vals = batch.values[:, 0, :]
        t = grid.nodes()
        # every path is exactly t * xi
        xi = vals[:, -1] / t[-1]
        np.testing.assert_allclose(vals, np.outer(xi, t), atol=1e-12)
        assert vals[:, -1].var() == pytest.approx(1.0, abs=3 * math.sqrt(2.0 / 4000))

    def test_kappa1_increments_uncorrelated(self):
        R = 40_000
        batch = sample_fbm(1.0, SampleGrid(0.0, 1.0 / 16, 17), R, STREAM.child("bm"))
        inc = np.diff(batch.values[:, 0, :], axis=1) * 4.0  # unit variance
        lag1 = np.mean(inc[:, :-1] * inc[:, 1:], axis=0)
        assert np.abs(lag1).max() < 3.0 / math.sqrt(R) * 1.5

    def test_variance_grows_as_t_kappa(self):
        R = 50_000
        kappa = 1.5
        batch = sample_fbm(kappa, SampleGrid(0.0, 1.0 / 8, 9), R, STREAM.child("var"))
        v_end = batch.values[:, 0, -1].var()
        assert v_end == pytest.approx(1.0, abs=3 * math.sqrt(2.0 / R))

    def test_self_similarity(self):
        # law of B(2t) / 2^(kappa/2) matches that of B(t): compare variances
        R = 60_000
        kappa = 1.2
        batch = sample_fbm(kappa, SampleGrid(0.0, 0.125, 17), R, STREAM.child("ss"))
        vals = batch.values[:, 0, :]
        for j in (2, 4, 8):
            ratio = vals[:, 2 * j].var() / (2.0**kappa * vals[:, j].var())
            assert ratio == pytest.approx(1.0, abs=4 * math.sqrt(2.0 / R) * 2)

    def test_requires_zero_origin(self):
        with pytest.raises(DomainError):
            sample_fbm(1.0, SampleGrid(0.5, 0.1, 4), 10, STREAM)

    # R = 2.5 and R = "3" used to raise a bare TypeError
    @pytest.mark.parametrize("R", [0, 2.5, "3", None])
    @pytest.mark.parametrize(
        "entry",
        [
            lambda R: sample_fbm(1.5, SampleGrid(0.0, 0.1, 4), R, STREAM),
            lambda R: sample_vector(
                VectorProcessSpec((Stationary(1.0, 1.5),), 1.0), SampleGrid(0.0, 0.1, 4), R, STREAM
            ),
        ],
        ids=["fbm", "vector"],
    )
    def test_r_must_be_a_positive_integer(self, entry, R):
        with pytest.raises(DomainError, match="R must be"):
            entry(R)

    def test_covariance_against_model(self):
        R = 60_000
        grid = SampleGrid(0.0, 0.2, 8)
        batch = sample_fbm(0.9, grid, R, STREAM.child("cov"))
        target = cov_matrix(FractionalBrownian(0.9), grid.nodes())
        assert max_cov_z(batch.values[:, 0, :], target) < 5.0

    @pytest.mark.parametrize("kappa", [0.5, 1.5, 1.99])
    def test_dense_path_covariance(self, kappa):
        # one triangular product by the prefix-summed factor: B(0) is an exact
        # zero and the rest has the fractional Brownian covariance
        R = 40_000
        grid = SampleGrid(0.0, 1.0 / 16, 17)
        assert sampling._fbm_draw(kappa, grid).method == "dense"
        values = sample_fbm(kappa, grid, R, STREAM.child("dense-cov", int(100 * kappa))).values[:, 0, :]
        assert not np.signbit(values[:, 0]).any() and not values[:, 0].any()
        s, t = np.meshgrid(grid.nodes(), grid.nodes(), indexing="ij")
        target = 0.5 * (s**kappa + t**kappa - np.abs(s - t) ** kappa)
        assert max_cov_z(values, target) < 5.0


class TestCirculantDraw:
    @pytest.mark.parametrize("size", [2, 4, 1024])
    def test_matches_full_fft_draw(self, size):
        raw = np.random.default_rng(size).random(size)
        eigs = 0.5 * (raw + raw[-np.arange(size) % size])  # symmetric like an embedding's
        gen_new, gen_old = np.random.default_rng(11), np.random.default_rng(11)
        new = circulant(sampling._mode_scale(eigs, size), size, size, 16, gen_new)
        old = full_fft_circulant_draw(eigs, size, size, 16, gen_old)
        np.testing.assert_allclose(new, old, rtol=0, atol=1e-12)
        assert gen_new.bit_generator.state == gen_old.bit_generator.state

    def test_matches_full_fft_draw_on_wide_embedding(self):
        a, kappa, step, count = 1.0, 1.5, 1.0 / 1024, 1025
        eigs, size, _ = sampling._embedding_eigenvalues(
            lambda lags: np.exp(-a * (np.abs(lags).astype(float) * step) ** kappa), count
        )
        assert size == 8192
        R = 300  # 38 chunks of rows
        assert R > sampling._SPECTRUM_ELEMENTS // size * 2
        scale = sampling._mode_scale(eigs, size)
        new = circulant(scale, size, count, R, np.random.default_rng(5))
        old = full_fft_circulant_draw(eigs, size, count, R, np.random.default_rng(5))
        np.testing.assert_allclose(new, old, rtol=0, atol=1e-12)

    def test_single_increment_fgn(self):
        batch = sample_fbm(1.5, SampleGrid(0, 0.1, 2), 5, RngStream(1))
        assert batch.values.shape == (5, 1, 2)
        assert np.all(batch.values[:, 0, 0] == 0.0)
        R = 40_000
        end = sample_fbm(1.5, SampleGrid(0, 0.1, 2), R, STREAM.child("one")).values[:, 0, 1]
        assert end.var() == pytest.approx(0.1**1.5, rel=4 * math.sqrt(2.0 / R))

    def test_clamp_warning(self, caplog):
        # 1100 nodes: the least embedding (size 4096) is feasible after clamping, and is drawn
        with caplog.at_level(logging.WARNING, logger="gpextremes.sampling"):
            sampler = sampling.StationarySampler(5.0, 2.0, 1.0 / 16, 1100)
        assert (sampler.method, sampler.size) == ("circulant", 4096)
        (record,) = caplog.records
        assert record.getMessage().startswith("clamped")
        assert record.args[0] > 0
        # 2049 nodes: the least embedding is infeasible, so the draw is dense and
        # no padded embedding is computed whose clamps would touch no draw
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="gpextremes.sampling"):
            assert sampling.StationarySampler(1.0, 1.5, 0.1 / 2048, 2049).method == "dense"
            # 33 nodes: dense with no embedding, so nothing is clamped
            assert sampling.StationarySampler(5.0, 2.0, 1.0 / 16, 33).method == "dense"
        assert not caplog.records


def exp_correlation(a, kappa, step):
    return lambda lags: np.exp(-a * (np.abs(lags).astype(float) * step) ** kappa)


@pytest.mark.parametrize("kappa", [1.0, 1.5, 2.0])
def test_stationary_sampler_of_no_node_is_the_empty_draw(kappa):
    # kappa != 1 used to factor an empty matrix and raise numpy's LinAlgError
    draw = sampling.StationarySampler(1.0, kappa, 0.1, 0)
    assert (draw.method, draw.count) == ("direct", 0)
    assert draw(5, np.random.default_rng(1)).shape == (5, 0)


class TestDrawPlan:
    # a = 1, kappa = 1.5 on 64 nodes at step 0.1: the embedding is feasible,
    # so the circulant and the dense draw can both run
    A, KAPPA, STEP, COUNT = 1.0, 1.5, 0.1, 64

    def draws(self, R):
        cov = exp_correlation(self.A, self.KAPPA, self.STEP)
        eigs, size, _ = sampling._embedding_eigenvalues(cov, self.COUNT)
        scale = sampling._mode_scale(eigs, size)
        circ = circulant(scale, size, self.COUNT, R, STREAM.child("pc").generator())
        factor, _ = sampling._dense_factor(cov, self.COUNT)
        return circ, dense(factor, R, STREAM.child("pd").generator())

    def target(self):
        grid = SampleGrid(0.0, self.STEP, self.COUNT)
        return grid, cov_matrix(Stationary(self.A, self.KAPPA), grid.nodes())

    def test_both_methods_match_the_covariance(self):
        circ, dense = self.draws(20_000)
        _, target = self.target()
        assert max_cov_z(circ, target) < 5.0
        assert max_cov_z(dense, target) < 5.0

    def test_both_methods_against_oracle(self):
        R = 20_000
        circ, dense = self.draws(R)
        grid, target = self.target()
        orac = sample_cholesky_oracle(target, R, STREAM.child("po"), grid=grid).values[:, 0, :]
        # two-sample KS per node, 1% family level via Bonferroni over both methods
        alpha = 0.01 / (2 * grid.count)
        for draw in (circ, dense):
            for j in range(grid.count):
                assert stats.ks_2samp(draw[:, j], orac[:, j]).pvalue > alpha

    def test_dense_chunks_continue_one_stream(self):
        factor, _ = sampling._dense_factor(exp_correlation(1.0, 1.5, 1.0 / 256), 257)
        R = 3 * (sampling._CHUNK_ELEMENTS // 257) + 5  # four chunks of rows
        gen = np.random.default_rng(3)
        new = dense(factor, R, gen)
        ref_gen = np.random.default_rng(3)
        ref = ref_gen.standard_normal((R, 257)) @ factor.T
        np.testing.assert_allclose(new, ref, rtol=0, atol=1e-12)
        assert gen.bit_generator.state == ref_gen.bit_generator.state

    def test_cost_rule_choices(self):
        # the conj-n2 coordinate: dense at 1025 nodes
        conj = sampling.StationarySampler(1.0, 1.5, 1.0 / 1024, 1025)
        assert (conj.method, conj.size) == ("dense", 1025)
        # FGN never pads its embedding: circulant above 1025 increments, dense up to them
        for count, size in [(2049, 4096), (1026, 4096)]:
            fgn = sampling.FgnSampler(1.5, 1.0 / count, count)
            assert (fgn.increments.method, fgn.increments.size) == ("circulant", size)
        for count in (1025, 512, 9):
            fgn = sampling.FgnSampler(1.5, 1.0 / count, count)
            assert (fgn.path.method, fgn.path.size, fgn.path.count) == ("dense", count + 1, count + 1)
            assert (fgn.increments.method, fgn.increments.count) == ("dense", count)
        # the feasible spec of this class (and of the circulant oracle test) is dense at 64 nodes
        plain = sampling.StationarySampler(self.A, self.KAPPA, self.STEP, self.COUNT)
        assert (plain.method, plain.size) == ("dense", 64)
        assert sampling.StationarySampler(5.0, 2.0, 1.0 / 16, 17).method == "dense"
        assert sampling.FgnSampler(1.0, 0.1, 9).increments.method == "direct"
        assert sampling.FgnSampler(1.5, 0.1, 1).increments.method == "direct"
        assert sampling.StationarySampler(1.0, 1.0, 0.1, 9).method == "direct"

    # (draw builder, method, size, embeddings computed): dense without an
    # embedding up to 1025 nodes, the least embedding above when it is
    # feasible, dense where it is not up to 2049 nodes
    METHOD_RULE = {
        "64-nodes": (lambda: sampling.StationarySampler(1.0, 1.5, 0.1, 64), "dense", 64, 0),
        "conj-n2": (lambda: sampling.StationarySampler(1.0, 1.5, 1.0 / 1024, 1025), "dense", 1025, 0),
        "clamping-33": (lambda: sampling.StationarySampler(5.0, 2.0, 1.0 / 16, 33), "dense", 33, 0),
        "fgn-512": (lambda: sampling.FgnSampler(1.5, 1.0 / 512, 512).path, "dense", 513, 0),
        "fgn-1025": (lambda: sampling.FgnSampler(1.5, 1.0 / 1025, 1025).path, "dense", 1026, 0),
        "fgn-1026": (lambda: sampling.FgnSampler(1.5, 1.0 / 1026, 1026).increments, "circulant", 4096, 1),
        "clamping-1100": (lambda: sampling.StationarySampler(5.0, 2.0, 1.0 / 16, 1100), "circulant", 4096, 1),
        "feasible-1100": (lambda: sampling.StationarySampler(1.0, 1.5, 0.1, 1100), "circulant", 4096, 1),
        "infeasible-2049": (lambda: sampling.StationarySampler(1.0, 1.5, 0.1 / 2048, 2049), "dense", 2049, 1),
        "fgn-2049": (lambda: sampling.FgnSampler(1.5, 1.0 / 2049, 2049).increments, "circulant", 4096, 1),
    }

    @pytest.mark.parametrize("case", METHOD_RULE.values(), ids=METHOD_RULE.keys())
    def test_method_rule(self, monkeypatch, case):
        build, method, size, embeddings = case
        calls = []
        embed = sampling._embedding_eigenvalues
        monkeypatch.setattr(sampling, "_embedding_eigenvalues", lambda *args: calls.append(args) or embed(*args))
        draw = build()
        assert (draw.method, draw.size, len(calls)) == (method, size, embeddings)

    def test_infeasible_embedding_goes_dense_up_to_the_cap(self):
        # a span of 1/4 at kappa = 1.5 fails three padding doublings
        short = sampling.StationarySampler(1.0, 1.5, 1.0 / 1024, 257)
        assert (short.method, short.size) == ("dense", 257)
        assert sampling.StationarySampler(1.0, 1.5, 0.1 / 2048, 2049).method == "dense"
        with pytest.raises(EmbeddingError):
            sampling.StationarySampler(1.0, 1.5, 0.1 / 2049, 2050)

    @pytest.mark.skipif(parallel._openblas_threads() is None, reason="numpy has no bundled OpenBLAS")
    def test_dense_factor_is_independent_of_blas_threads(self):
        get, set_ = parallel._openblas_threads()
        prior = get()
        factors = []
        try:
            for threads in (1, 2):
                set_(threads)
                # the factor that the dense draw's cursor kernel multiplies by
                factors.append(sampling.StationarySampler(2.0, 1.5, 1.0 / 1024, 1025).chunks.args[0])
                assert get() == threads
        finally:
            set_(prior)
        np.testing.assert_array_equal(factors[0], factors[1])

    def test_samplers_record_their_fallbacks(self, caplog):
        # 1100 nodes: the drawn embedding clamps 874 eigenvalues, as the log says
        with caplog.at_level(logging.WARNING, logger="gpextremes.sampling"):
            clamping = sampling.StationarySampler(5.0, 2.0, 1.0 / 16, 1100)
        assert (clamping.method, clamping.clamped, clamping.factor) == ("circulant", 874, None)
        assert [record.args[0] for record in caplog.records] == [874]
        # 17 nodes: dense, and the Toeplitz matrix is numerically indefinite, so eigh
        indefinite = sampling.StationarySampler(5.0, 2.0, 1.0 / 16, 17)
        assert (indefinite.method, indefinite.clamped, indefinite.factor) == ("dense", 0, "eigh")
        conj = sampling.StationarySampler(1.0, 1.5, 1.0 / 1024, 1025)
        assert (conj.method, conj.clamped, conj.factor) == ("dense", 0, "cholesky")
        direct = sampling.FgnSampler(1.0, 0.1, 9).increments
        assert (direct.clamped, direct.factor) == (0, None)
        # a coordinate draw joins its samplers' kinds: frozen blocks of 16 and 9 nodes
        coord = LocallyStationary(ProfileTable.from_function(lambda t: 5.0, 1.0, count=5), 2.0, block_count=2)
        draw = one_coordinate_draw(coord, SampleGrid(0.0, 1.0 / 32, 25))
        assert (draw.method, draw.clamped, draw.factor) == ("dense", 0, "eigh+cholesky")

    def test_in_place_factor(self):
        cov = exp_correlation(1.0, 1.5, 1.0 / 1024)
        L, kind = sampling._dense_factor(cov, 1025)
        T = sampling._toeplitz(cov, 1025)
        nodes = np.arange(1025)
        np.testing.assert_array_equal(T, cov(np.abs(nodes[:, None] - nodes[None, :])))
        assert kind == "cholesky"
        assert not np.triu(L, 1).any()
        assert np.abs(L @ L.T - T).max() <= 1e-13 * T.max()
        # the eigh fallback fires where LAPACK's Cholesky fails too, and still factors the matrix
        cov = exp_correlation(5.0, 2.0, 1.0 / 16)
        T = sampling._toeplitz(cov, 17)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(T)
        root, kind = sampling._dense_factor(cov, 17)
        assert kind == "eigh"
        assert not np.triu(root, 1).any() and root.flags.c_contiguous
        assert np.abs(root @ root.T - T).max() <= 1e-8

    @pytest.mark.parametrize(
        "build",
        [
            lambda: sampling.FgnSampler(1.5, -0.1, 10),
            lambda: sampling.FgnSampler(1.5, math.nan, 10),
            lambda: sampling.FgnSampler(1.5, math.inf, 10),
            lambda: sampling.FgnSampler(1.5, 0.1, -1),
            lambda: sampling.StationarySampler(math.inf, 1.5, 0.1, 10),
            lambda: sampling.StationarySampler(math.nan, 1.5, 0.1, 10),
            lambda: sampling.StationarySampler(1.0, 1.5, 0.0, 10),
            lambda: sampling.StationarySampler(1.0, 1.5, 0.1, -2),
            # a fractional count used to draw its integer part of nodes
            lambda: sampling.FgnSampler(1.5, 0.1, 2.5),
            lambda: sampling.StationarySampler(1.0, 1.5, 0.1, 2.5),
        ],
        ids=[
            "fgn-negative-step",
            "fgn-nan-step",
            "fgn-inf-step",
            "fgn-negative-count",
            "inf-a",
            "nan-a",
            "zero-step",
            "negative-count",
            "fgn-fractional-count",
            "fractional-count",
        ],
    )
    def test_impossible_grid_is_domain_error(self, build):
        with pytest.raises(DomainError):
            build()

    def test_short_span_covariance(self):
        spec = VectorProcessSpec((Stationary(1.0, 1.5),), 1.0)
        grid = SampleGrid(0.0, 1.0 / 128, 17)
        with pytest.raises(EmbeddingError):
            sampling._embedding_eigenvalues(exp_correlation(1.0, 1.5, 1.0 / 128), 17)
        batch = sample_vector(spec, grid, 40_000, STREAM.child("short"))
        assert max_cov_z(batch.values[:, 0, :], cov_matrix(spec.coords[0], grid.nodes())) < 5.0

    def test_samplers_built_once_draw_the_same_batches(self):
        spec = VectorProcessSpec((Stationary(1.0, 1.5), Stationary(1.0, 1.5), FractionalBrownian(1.2)), 1.0)
        grid = SampleGrid(0.25, 1.0 / 64, 33)
        samplers = sampling.coordinate_samplers(spec, grid)
        for salt in ("b0", "b1"):
            batch = sample_vector(spec, grid, 50, STREAM.child(salt))
            for i, draw in enumerate(samplers):
                built = draw(50, STREAM.child(salt).child("coord", i).generator())
                np.testing.assert_array_equal(batch.values[:, i, :], built)
        # equal coordinates share one sampler
        assert samplers[0] == samplers[1]


def one_coordinate_draw(coord, grid):
    return sampling.coordinate_samplers(VectorProcessSpec((coord,), 1.0), grid)[0]


# name -> (draw builder, node count, R); every draw takes ``out=``
OUT_DRAWS = {
    "circulant": (lambda: sampling.StationarySampler(1.0, 1.5, 0.1, 1100), 1100, 300),
    "dense": (lambda: sampling.StationarySampler(1.0, 1.5, 1.0 / 1024, 257), 257, 300),
    "dense-eigh": (lambda: sampling.StationarySampler(5.0, 2.0, 1.0 / 16, 17), 17, 300),
    # three chunks of rows of the direct normals
    "fgn-kappa1": (
        lambda: sampling.FgnSampler(1.0, 1.0 / 256, 257).increments,
        257,
        2 * (sampling._CHUNK_ELEMENTS // 257) + 5,
    ),
    "fgn-kappa2": (lambda: sampling.FgnSampler(2.0, 0.1, 16).increments, 16, 300),
    "fgn-kappa15": (lambda: sampling.FgnSampler(1.5, 1.0 / 512, 512).increments, 512, 300),
    "fgn-kappa15-circulant": (lambda: sampling.FgnSampler(1.5, 1.0 / 1100, 1100).increments, 1100, 300),
    "fgn-single-increment": (lambda: sampling.FgnSampler(1.5, 0.1, 1).increments, 1, 300),
    "ar1": (lambda: sampling.StationarySampler(1.0, 1.0, 0.01, 50), 50, 300),
    "single-node": (lambda: sampling.StationarySampler(1.0, 1.5, 0.1, 1), 1, 300),
    "fbm": (lambda: sampling._fbm_draw(1.2, SampleGrid(0.0, 1.0 / 64, 33)), 33, 300),
    "fbm-origin-offset": (lambda: sampling._fbm_draw(1.5, SampleGrid(0.25, 1.0 / 64, 33)), 33, 300),
    "fbm-one-node": (lambda: sampling._fbm_draw(1.5, SampleGrid(0.0, 1.0 / 64, 1)), 1, 300),
    "fgn-path": (lambda: sampling.FgnSampler(1.5, 1.0 / 512, 512).path, 513, 300),
    "fgn-path-circulant": (lambda: sampling.FgnSampler(1.5, 1.0 / 1100, 1100).path, 1101, 300),
    "locally-stationary": (
        lambda: one_coordinate_draw(
            LocallyStationary(ProfileTable.from_function(lambda t: 1.0 + t, 1.0, count=17), 1.5, block_count=4),
            SampleGrid(0.0, 1.0 / 64, 65),
        ),
        65,
        300,
    ),
    "profiled": (
        lambda: one_coordinate_draw(
            NonStationary(
                sigma_profile=ProfileTable.from_function(lambda t: 1.0 / (1.0 + t), 1.0, count=65),
                alpha=1.5,
                a=1.0,
                beta=1.0,
                b_lower=0.0,
                b_upper=1.0,
                holder_G=4.0,
                holder_gamma=1.0,
                holder_rho=0.5,
            ),
            SampleGrid(0.0, 1.0 / 64, 65),
        ),
        65,
        300,
    ),
}


def streamed(draw, total, gen, size):
    """The first ``total`` rows of ``draw``'s cursor, taken ``size(c)`` rows at the c-th take."""
    take = draw.chunks(gen)
    parts, done = [], 0
    # on one BLAS thread, as the replication blocks and the full draw run
    with parallel._one_blas_thread():
        for c in itertools.count():
            if done == total:
                break
            k = min(size(c), total - done)
            parts.append(take(k))
            assert parts[-1].shape[0] == k
            done += k
    return np.concatenate(parts)


class TestOutContract:
    @pytest.mark.parametrize("case", OUT_DRAWS.values(), ids=OUT_DRAWS.keys())
    def test_out_equals_a_fresh_draw(self, case):
        build, count, R = case
        draw = build()
        gen, ref_gen = np.random.default_rng(8), np.random.default_rng(8)
        ref = draw(R, ref_gen)
        # a strided destination: the middle plane of a (R, 3, count) block
        block = np.full((R, 3, count), np.nan)
        got = draw(R, gen, out=block[:, 1, :])
        assert np.shares_memory(got, block)
        np.testing.assert_array_equal(block[:, 1, :], ref)
        assert np.isnan(block[:, [0, 2], :]).all()
        assert gen.bit_generator.state == ref_gen.bit_generator.state

    @pytest.mark.parametrize("case", OUT_DRAWS.values(), ids=OUT_DRAWS.keys())
    def test_random_takes_are_the_rows_of_a_full_draw(self, case):
        build, count, R = case
        draw = build()
        gen, ref_gen = np.random.default_rng(8), np.random.default_rng(8)
        full = draw(R, ref_gen)
        sizes = np.random.default_rng(1).integers(0, 40, size=R)
        got = streamed(draw, R, gen, lambda c: sizes[c])
        assert got.shape == (R, count)
        # a dense product of another row count may round its last bits differently; every other draw is exact
        atol = 1e-12 if "dense" in draw.method else 0.0
        np.testing.assert_allclose(got, full, rtol=0, atol=atol)
        assert gen.bit_generator.state == ref_gen.bit_generator.state

    @pytest.mark.parametrize("case", OUT_DRAWS.values(), ids=OUT_DRAWS.keys())
    def test_takes_of_the_full_draws_chunks_are_the_full_draw(self, case):
        build, count, R = case
        draw = build()
        full = draw(R, np.random.default_rng(8))
        # the full draw's chunk sizes, into a strided destination: the same bits, dense too
        chunk = sampling._chunk_rows(count)
        take = draw.chunks(np.random.default_rng(8))
        block = np.full((R, 3, count), np.nan)
        with parallel._one_blas_thread():
            for r0 in range(0, R, chunk):
                take(min(chunk, R - r0), out=block[r0 : r0 + chunk, 1, :])
        np.testing.assert_array_equal(block[:, 1, :], full)

    @pytest.mark.parametrize("case", OUT_DRAWS.values(), ids=OUT_DRAWS.keys())
    def test_a_prefix_of_takes_is_the_prefix_of_the_full_draw(self, case):
        # the lazy conjunction scan takes fewer rows than its cursor's R
        build, count, R = case
        draw = build()
        full = draw(R, np.random.default_rng(8))
        got = streamed(draw, R // 3, np.random.default_rng(8), lambda c: 7)
        atol = 1e-12 if "dense" in draw.method else 0.0
        np.testing.assert_allclose(got, full[: R // 3], rtol=0, atol=atol)

    @pytest.mark.parametrize("chunk", [1, 7, 64, None])
    @pytest.mark.parametrize("case", OUT_DRAWS.values(), ids=OUT_DRAWS.keys())
    def test_streamed_chunks_equal_the_full_draw(self, case, chunk):
        build, count, R = case
        draw = build()
        gen, ref_gen = np.random.default_rng(8), np.random.default_rng(8)
        full = draw(R, ref_gen)
        if chunk is None:
            # the full draw's own chunks: the same bits for every method, dense too
            got = streamed(draw, R, gen, lambda c: sampling._chunk_rows(count))
            np.testing.assert_array_equal(got, full)
        else:
            # take by take in turn: a chunk, half a chunk, no row
            sizes = (chunk, chunk // 2, 0)
            got = streamed(draw, R, gen, lambda c: sizes[c % 3])
            atol = 1e-12 if "dense" in draw.method else 0.0
            np.testing.assert_allclose(got, full, rtol=0, atol=atol)
        assert gen.bit_generator.state == ref_gen.bit_generator.state

    @pytest.mark.parametrize("blas", ["openblas", "matmul"])
    @pytest.mark.parametrize("takes", ["chunks", "uneven", "prefix"])
    @pytest.mark.parametrize(
        "cov, m, kind",
        [(exp_correlation(1.0, 1.5, 1.0 / 1024), 257, "cholesky"), (exp_correlation(5.0, 2.0, 1.0 / 16), 17, "eigh")],
        ids=["cholesky", "eigh"],
    )
    def test_dense_rows_are_the_normals_times_the_factor(self, monkeypatch, cov, m, kind, takes, blas):
        # the triangular product, and the matrix product where numpy bundles no OpenBLAS
        if blas == "matmul":
            monkeypatch.setattr(sampling, "_openblas_trmm", lambda: None)
        factor, got_kind = sampling._dense_factor(cov, m)
        assert got_kind == kind
        R = 300
        size, total = {
            "chunks": (lambda c: 64, R),
            "uneven": (lambda c: c % 5, R),
            "prefix": (lambda c: 64, 150),
        }[takes]
        gen, ref_gen = np.random.default_rng(8), np.random.default_rng(8)
        draw = types.SimpleNamespace(chunks=functools.partial(sampling._dense_draw, factor))
        got = streamed(draw, total, gen, size)
        # a take draws the normals of its rows only
        ref = ref_gen.standard_normal((total, m)) @ factor.T
        assert got.shape == ref.shape
        assert np.abs(got - ref).max(initial=0.0) <= 1e-12 * np.abs(ref).max(initial=1.0)
        assert gen.bit_generator.state == ref_gen.bit_generator.state

    @pytest.mark.parametrize(
        "build",
        [
            lambda m: sampling.StationarySampler(1.0, 1.0, 1.0 / 512, m),
            lambda m: sampling._fbm_draw(1.0, SampleGrid(0.0, 1.0 / 512, m)),
            lambda m: sampling._fbm_draw(1.5, SampleGrid(0.0, 1.0 / 512, m)),
        ],
        ids=["ar1", "fbm-from-origin", "fbm-k15"],
    )
    def test_draw_into_out_holds_only_row_chunks(self, build):
        R, m = 8192, 513
        draw, out = build(m), np.empty((R, m))
        tracemalloc.start()
        try:
            draw(R, np.random.default_rng(3), out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * sampling._CHUNK_ELEMENTS * 8


    @pytest.mark.parametrize(
        "build, R, m",
        [
            (lambda: sampling.StationarySampler(1.0, 1.5, 1.0 / 1024, 1025), 2048, 1025),
            (lambda: sampling.StationarySampler(1.0, 1.0, 1.0 / 512, 513), 8192, 513),
            (lambda: sampling.FgnSampler(1.0, 1.0 / 512, 513).increments, 8192, 513),
        ],
        ids=["dense", "ar1", "fgn-kappa1"],
    )
    def test_normal_row_draws_hold_one_chunk(self, build, R, m):
        # a chunk of normals is freed before the next one is drawn
        draw, out = build(), np.empty((R, m))
        tracemalloc.start()
        try:
            draw(R, np.random.default_rng(3), out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * sampling._CHUNK_ELEMENTS * 8

    @pytest.mark.parametrize(
        "build, m",
        [
            (lambda: sampling.StationarySampler(1.0, 1.5, 1.0 / 1024, 1025), 1025),
            (lambda: sampling.FgnSampler(1.5, 1.0 / 512, 512).path, 513),
        ],
        ids=["dense", "fgn-path"],
    )
    def test_dense_draw_into_a_contiguous_block_draws_in_place(self, build, m):
        # the normals of every chunk are drawn straight into out and multiplied there
        R, draw = 2048, build()
        out = np.empty((R, m))
        tracemalloc.start()
        try:
            draw(R, np.random.default_rng(3), out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.01 * sampling._CHUNK_ELEMENTS * 8

    def test_circulant_draw_holds_a_small_spectrum_chunk(self):
        # the spectrum, its normals and its transform are built 16 rows at a time
        R, m = 1024, 2049
        sampler = sampling.FgnSampler(1.5, 1.0 / 2048, m - 1)
        assert (sampler.increments.method, sampler.increments.size) == ("circulant", 4096)
        out = np.empty((R, m))
        tracemalloc.start()
        try:
            sampler.path(R, np.random.default_rng(3), out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * out.nbytes


class TestSampleVector:
    def test_single_node_two_coords(self):
        spec = VectorProcessSpec((Stationary(1.0, 1.0), Stationary(2.0, 0.5)), 1.0)
        R = 50_000
        batch = sample_vector(spec, SampleGrid(0.0, 1.0, 1), R, STREAM.child("sn"))
        x = batch.values[:, :, 0]
        assert np.abs(x.mean(axis=0)).max() < 3.0 / math.sqrt(R)
        assert np.abs(x.var(axis=0) - 1.0).max() < 3.0 * math.sqrt(2.0 / R)
        assert abs(np.corrcoef(x.T)[0, 1]) < 3.0 / math.sqrt(R)

    def test_stationary_lag_correlation(self):
        spec = VectorProcessSpec((Stationary(1.0, 1.0),), 1.0)
        R = 50_000
        delta = 1.0 / 32
        batch = sample_vector(spec, SampleGrid(0.0, delta, 33), R, STREAM.child("lag"))
        x = batch.values[:, 0, :]
        emp = np.mean(x[:, 0] * x[:, 1])
        assert emp == pytest.approx(math.exp(-delta), abs=3.0 / math.sqrt(R))

    def test_ar1_recursion_matches_lfilter(self):
        # the kappa = 1 recursion against the IIR filter that computed it before
        R, count, a, step = 300, 257, 1.3, 1.0 / 64
        new = sampling.StationarySampler(a, 1.0, step, count)(R, np.random.default_rng(4))
        rho = np.exp(-a * step)
        xi = np.random.default_rng(4).standard_normal((R, count))
        xi[:, 1:] *= np.sqrt(1.0 - rho * rho)
        np.testing.assert_array_equal(new, signal.lfilter([1.0], [1.0, -rho], xi, axis=1))

    def test_stationary_kappa15_covariance(self):
        spec = VectorProcessSpec((Stationary(0.7, 1.5),), 2.0)
        grid = SampleGrid(0.0, 0.125, 16)
        batch = sample_vector(spec, grid, 60_000, STREAM.child("k15"))
        target = cov_matrix(spec.coords[0], grid.nodes())
        assert max_cov_z(batch.values[:, 0, :], target) < 5.0

    def test_nonstationary_variance_profile(self):
        coord = NonStationary(
            sigma_profile=ProfileTable.from_function(lambda t: 1.0 / (1.0 + t), 1.0, count=65),
            alpha=1.0,
            a=1.0,
            beta=1.0,
            b_lower=0.0,
            b_upper=1.0,
            holder_G=4.0,
            holder_gamma=1.0,
            holder_rho=0.5,
        )
        spec = VectorProcessSpec((coord,), 1.0)
        R = 50_000
        grid = SampleGrid(0.0, 0.2, 6)
        batch = sample_vector(spec, grid, R, STREAM.child("ns"))
        t = grid.nodes()
        target = (1.0 / (1.0 + t)) ** 2
        emp = batch.values[:, 0, :].var(axis=0)
        assert np.all(np.abs(emp - target) < 3.0 * target * math.sqrt(2.0 / R) + 1e-6)

    def test_locally_stationary_blocks(self):
        coord = LocallyStationary(
            a_profile=ProfileTable.from_function(lambda t: 1.0 + t, 1.0, count=17),
            kappa=1.0,
            block_count=4,
        )
        spec = VectorProcessSpec((coord,), 1.0)
        R = 60_000
        grid = SampleGrid(0.0, 1.0 / 32, 33)
        batch = sample_vector(spec, grid, R, STREAM.child("ls"))
        x = batch.values[:, 0, :]
        # unit variance everywhere, within-block lag correlation uses frozen a(mid)
        assert np.abs(x.var(axis=0) - 1.0).max() < 4 * math.sqrt(2.0 / R)
        emp01 = np.mean(x[:, 0] * x[:, 1])  # block 0, frozen a = a(0.125) = 1.125
        assert emp01 == pytest.approx(math.exp(-1.125 / 32), abs=3.0 / math.sqrt(R))

    def test_fbm_coordinate_on_shifted_grid(self):
        spec = VectorProcessSpec((FractionalBrownian(1.0),), 2.0)
        grid = SampleGrid(0.5, 0.25, 4)
        batch = sample_vector(spec, grid, 40_000, STREAM.child("fsh"))
        v = batch.values[:, 0, :].var(axis=0)
        np.testing.assert_allclose(v, grid.nodes(), rtol=0.05)

    @pytest.mark.skipif(parallel._openblas_threads() is None, reason="numpy has no bundled OpenBLAS")
    def test_full_draw_is_independent_of_blas_threads(self):
        # a dense draw outside the replication blocks used to round its
        # product by the process's BLAS thread count
        get, set_ = parallel._openblas_threads()
        prior = get()
        spec = VectorProcessSpec((Stationary(1.0, 1.5),), 1.0)
        grid = SampleGrid(0.0, 1.0 / 1024, 1025)
        assert sampling.coordinate_samplers(spec, grid)[0].method == "dense"
        draws = []
        try:
            for threads in (1, 2):
                set_(threads)
                draws.append(sample_vector(spec, grid, 64, STREAM.child("threads")).values)
                assert get() == threads
        finally:
            set_(prior)
        np.testing.assert_array_equal(draws[0], draws[1])

    def test_determinism_full_vector(self):
        spec = VectorProcessSpec((Stationary(1.0, 1.0), FractionalBrownian(1.5)), 1.0)
        grid = SampleGrid(0.0, 0.125, 9)
        a = sample_vector(spec, grid, 32, RngStream(9, 4))
        b = sample_vector(spec, grid, 32, RngStream(9, 4))
        assert np.array_equal(a.values, b.values)


class TestCholeskyOracle:
    def test_identity_gives_independent_normals(self):
        R = 50_000
        batch = sample_cholesky_oracle(np.eye(2), R, STREAM.child("id"))
        x = batch.values[:, 0, :]
        assert np.abs(x.var(axis=0) - 1.0).max() < 3 * math.sqrt(2.0 / R)
        assert abs(np.mean(x[:, 0] * x[:, 1])) < 3.0 / math.sqrt(R)

    def test_rank_one_all_ones(self):
        batch = sample_cholesky_oracle(np.ones((2, 2)), 1000, STREAM.child("r1"))
        x = batch.values[:, 0, :]
        np.testing.assert_allclose(x[:, 0], x[:, 1], atol=1e-10)

    def test_indefinite_rejected(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(FactorizationError):
            sample_cholesky_oracle(cov, 100, STREAM)

    # 2.5 and "3" used to raise a bare TypeError, and -1 numpy's ValueError
    @pytest.mark.parametrize("R", [0, -1, 2.5, "3"])
    def test_r_must_be_a_positive_integer(self, R):
        with pytest.raises(DomainError, match="R must be"):
            sample_cholesky_oracle(np.eye(2), R, STREAM)

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            sample_cholesky_oracle(np.array([[1.0, 0.5], [0.1, 1.0]]), 100, STREAM)

    def test_empty_matrix_rejected(self):
        # used to raise numpy's ValueError from the symmetry test's max
        with pytest.raises(DomainError, match="non-empty square matrix"):
            sample_cholesky_oracle(np.zeros((0, 0)), 100, STREAM)

    # a non-finite entry used to pass the symmetry test and draw nan paths
    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_non_finite_entry_rejected(self, entry):
        with pytest.raises(DomainError, match="cov must be finite"):
            sample_cholesky_oracle(np.array([[entry, 0.0], [0.0, 1.0]]), 100, STREAM)

    def test_cross_validates_circulant_sampler(self):
        # same law from two independent code paths: KS per node + covariance
        R = 20_000
        coord = Stationary(1.0, 1.5)
        grid = SampleGrid(0.0, 0.1, 64)
        spec = VectorProcessSpec((coord,), 10.0)
        circ = sample_vector(spec, grid, R, STREAM.child("xc"))
        target = cov_matrix(coord, grid.nodes())
        orac = sample_cholesky_oracle(target, R, STREAM.child("xo"), grid=grid)
        a = circ.values[:, 0, :]
        b = orac.values[:, 0, :]
        assert max_cov_z(a, target) < 5.0
        assert max_cov_z(b, target) < 5.0
        # two-sample KS per node, 1% family level via Bonferroni
        alpha = 0.01 / grid.count
        for j in range(grid.count):
            assert stats.ks_2samp(a[:, j], b[:, j]).pvalue > alpha


class TestPathDump:
    def test_round_trip(self, tmp_path):
        spec = VectorProcessSpec((Stationary(1.0, 1.0), Stationary(0.5, 2.0)), 1.0)
        grid = SampleGrid(0.0, 0.25, 5)
        batch = sample_vector(spec, grid, 7, STREAM.child("dmp"))
        path = tmp_path / "paths.gpb"
        write_path_dump(batch, path)
        back = read_path_dump(path)
        assert back.n_coords == 2 and back.replications == 7
        assert back.grid == grid
        np.testing.assert_array_equal(back.values, batch.values)

    def test_header_layout(self, tmp_path):
        batch = sample_fbm(1.0, SampleGrid(0.0, 0.5, 3), 2, STREAM.child("hdr"))
        path = tmp_path / "h.gpb"
        write_path_dump(batch, path)
        raw = path.read_bytes()
        assert raw[:4] == b"GPB1"
        import struct

        n, m, R, step, origin = struct.unpack("<III d d", raw[4 : 4 + 28])
        assert (n, m, R) == (1, 3, 2)
        assert step == 0.5 and origin == 0.0
        assert len(raw) == 4 + 28 + 8 * n * m * R

    @pytest.mark.parametrize(
        "damage",
        [lambda raw: raw[: 4 + 20], lambda raw: raw[:-8], lambda raw: raw + b"\0"],
        ids=["short_header", "truncated_body", "trailing_bytes"],
    )
    def test_damaged_dump_is_domain_error(self, tmp_path, damage):
        batch = sample_fbm(1.0, SampleGrid(0.0, 0.5, 3), 2, STREAM.child("dmg"))
        path = tmp_path / "d.gpb"
        write_path_dump(batch, path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(DomainError):
            read_path_dump(path)


def test_import_leaves_scipy_signal_unloaded():
    # nor the subpackages that only profile splines, the variance minimizer
    # and the quadratures use, which are imported where they are used, nor
    # scipy.special, which the package does without
    src = str(pathlib.Path(gpextremes.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    heavy = ("scipy.signal", "scipy.interpolate", "scipy.optimize", "scipy.integrate", "scipy.special")
    code = f"import sys, gpextremes; print(*sorted(set({heavy!r}) & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
