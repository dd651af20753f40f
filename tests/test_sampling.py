import math

import numpy as np
import pytest
from scipy import stats

from gpextremes import (
    DomainError,
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

    def test_covariance_against_model(self):
        R = 60_000
        grid = SampleGrid(0.0, 0.2, 8)
        batch = sample_fbm(0.9, grid, R, STREAM.child("cov"))
        target = cov_matrix(FractionalBrownian(0.9), grid.nodes())
        assert max_cov_z(batch.values[:, 0, :], target) < 5.0


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

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            sample_cholesky_oracle(np.array([[1.0, 0.5], [0.1, 1.0]]), 100, STREAM)

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
