import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpextremes import DomainError, PointCloud, RngStream, ewv_exact, ewv_mc, pareto_prune
from gpextremes.orthants import _pareto_mask, ewv_batch

STREAM = RngStream(2024_06)


def brute_force_ewv(points, budget=400_000, seed=0):
    """Independent oracle: exponential importance draws below the componentwise max."""
    pts = np.asarray(points, dtype=float)
    gen = np.random.default_rng(seed)
    M = pts.max(axis=0)
    w = M - gen.exponential(size=(budget, pts.shape[1]))
    covered = np.zeros(budget, dtype=bool)
    for p in pts:
        covered |= (w < p).all(axis=1)
    frac = covered.mean()
    se = math.exp(M.sum()) * math.sqrt(frac * (1 - frac) / budget)
    return math.exp(M.sum()) * frac, se


def inclusion_exclusion_ewv(points):
    """Exact oracle: signed sum of exp(sum_i min_J p_i) over nonempty subsets J
    of the Pareto set, max-shifted.  Exponential in the Pareto-set size, so
    only for small clouds."""
    pts = np.asarray(points, dtype=float)
    pts = pts[_pareto_mask(pts)]
    shift = pts.max(axis=0)
    q = pts - shift
    total = 0.0
    for card in range(1, q.shape[0] + 1):
        subsets = np.array(list(combinations(range(q.shape[0]), card)))
        total += (-1) ** (card + 1) * np.exp(q[subsets].min(axis=1).sum(axis=1)).sum()
    return math.exp(shift.sum()) * total


def oracle_clouds(n, ties, count=20, seed=0):
    """Small random clouds; with ``ties`` the coordinates are rounded to halves
    so that equal coordinates and duplicate points occur."""
    gen = np.random.default_rng([n, ties, seed])
    clouds = gen.normal(size=(count, 8, n))
    return np.round(2.0 * clouds) / 2.0 if ties else clouds


class TestParetoPrune:
    def test_strict_domination(self):
        cloud = PointCloud(2, [[0.0, 0.0], [-1.0, -1.0]])
        np.testing.assert_array_equal(pareto_prune(cloud).points, [[0.0, 0.0]])

    def test_incomparable_retained(self):
        cloud = PointCloud(2, [[0.0, -1.0], [-1.0, 0.0]])
        assert pareto_prune(cloud).size == 2

    def test_weak_domination_prunes(self):
        cloud = PointCloud(2, [[0.0, 0.0], [0.0, -1.0]])
        assert pareto_prune(cloud).size == 1

    def test_duplicates_deduplicated(self):
        cloud = PointCloud(2, [[1.0, 2.0], [1.0, 2.0]])
        assert pareto_prune(cloud).size == 1

    def test_prune_preserves_ewv_exactly(self):
        gen = np.random.default_rng(5)
        cloud = PointCloud(2, gen.normal(size=(100, 2)))
        assert ewv_exact(pareto_prune(cloud)) == ewv_exact(cloud)

    def test_prune_preserves_ewv_3d(self):
        gen = np.random.default_rng(6)
        cloud = PointCloud(3, gen.normal(size=(25, 3)))
        assert ewv_exact(pareto_prune(cloud)) == pytest.approx(ewv_exact(cloud), rel=1e-12)


class TestEwvExact:
    def test_single_origin_point(self):
        assert ewv_exact(PointCloud(2, [[0.0, 0.0]])) == pytest.approx(1.0, rel=1e-15)

    def test_two_point_staircase(self):
        cloud = PointCloud(2, [[0.0, -1.0], [-1.0, 0.0]])
        assert ewv_exact(cloud) == pytest.approx(2 * math.exp(-1) - math.exp(-2), rel=1e-14)

    def test_one_dimensional_reduction(self):
        cloud = PointCloud(1, [[-2.0], [0.0], [-1.0]])
        assert ewv_exact(cloud) == pytest.approx(1.0, rel=1e-15)

    def test_monotone_under_added_point(self):
        gen = np.random.default_rng(7)
        pts = gen.normal(size=(12, 2))
        base = ewv_exact(PointCloud(2, pts))
        grown = ewv_exact(PointCloud(2, np.vstack([pts, [[0.5, 0.5]]])))
        assert grown >= base

    def test_translation_covariance(self):
        gen = np.random.default_rng(8)
        pts = gen.normal(size=(20, 3))
        shift = np.array([0.3, -1.2, 2.0])
        v0 = ewv_exact(PointCloud(3, pts))
        v1 = ewv_exact(PointCloud(3, pts + shift))
        assert v1 == pytest.approx(v0 * math.exp(shift.sum()), rel=1e-12)

    def test_matches_brute_force_3d(self):
        gen = np.random.default_rng(9)
        pts = gen.normal(size=(30, 3))
        exact = ewv_exact(PointCloud(3, pts))
        mc, se = brute_force_ewv(pts, seed=1)
        assert abs(exact - mc) < 4 * se

    def test_matches_brute_force_4d(self):
        gen = np.random.default_rng(10)
        pts = gen.normal(size=(40, 4))
        exact = ewv_exact(PointCloud(4, pts))
        mc, se = brute_force_ewv(pts, seed=2)
        assert abs(exact - mc) < 4 * se

    def test_large_antichain(self):
        # points (i, -i, 0): a staircase of m Pareto points with EWV (m - 1)(1 - 1/e) + 1
        m = 40
        pts = np.stack([np.arange(m, dtype=float), -np.arange(m, dtype=float), np.zeros(m)], axis=1)
        assert ewv_exact(PointCloud(3, pts)) == pytest.approx((m - 1) * (1.0 - math.exp(-1.0)) + 1.0, rel=1e-12)

    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_inclusion_exclusion(self, n, ties):
        for pts in oracle_clouds(n, ties):
            assert ewv_exact(PointCloud(n, pts)) == pytest.approx(inclusion_exclusion_ewv(pts), rel=1e-12)

    def test_antipodal_large_coordinates_3d(self):
        # the coordinatewise maxima sum to 1600, the point sums to 0: EWV = 2 - exp(-1600)
        cloud = PointCloud(3, [[800.0, -800.0, 0.0], [-800.0, 800.0, 0.0]])
        assert ewv_exact(cloud) == pytest.approx(2.0, rel=1e-15)

    def test_large_coordinates_3d_match_inclusion_exclusion(self):
        gen = np.random.default_rng(16)
        for offset in ([800.0, -900.0, 100.0], [-750.0, 720.0, 40.0]):
            pts = gen.normal(size=(8, 3)) + np.array(offset)
            val = ewv_exact(PointCloud(3, pts))
            assert math.isfinite(val) and val == pytest.approx(inclusion_exclusion_ewv(pts), rel=1e-12)

    def test_large_coordinates_do_not_overflow(self):
        cloud = PointCloud(2, [[800.0, -900.0], [700.0, -800.0]])
        val = ewv_exact(cloud)
        assert math.isfinite(val) and val > 0

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_staircase_agrees_with_inclusion_exclusion(self, seed):
        gen = np.random.default_rng(seed)
        pts = gen.normal(size=(gen.integers(1, 12), 2))
        assert ewv_exact(PointCloud(2, pts)) == pytest.approx(inclusion_exclusion_ewv(pts), rel=1e-10)


class TestEwvMc:
    def test_single_point_is_exact(self):
        cloud = PointCloud(3, [[0.1, -0.4, 0.2]])
        val, se = ewv_mc(cloud, 1000, STREAM.child("single"))
        assert val == pytest.approx(math.exp(0.1 - 0.4 + 0.2), rel=1e-14)
        assert se == 0.0

    def test_two_point_example(self):
        cloud = PointCloud(2, [[0.0, -1.0], [-1.0, 0.0]])
        val, se = ewv_mc(cloud, 100_000, STREAM.child("pair"))
        assert abs(val - 0.60042359910) < 3 * se

    def test_matches_exact_on_random_cloud(self):
        gen = np.random.default_rng(11)
        pts = gen.normal(size=(30, 4))
        exact = ewv_exact(PointCloud(4, pts))
        val, se = ewv_mc(PointCloud(4, pts), 200_000, STREAM.child("rand4"))
        assert abs(val - exact) < 3 * se

    def test_unbiasedness_pooled(self):
        cloud = PointCloud(2, [[0.0, -1.0], [-1.0, 0.0], [-0.2, -0.2]])
        exact = ewv_exact(cloud)
        vals, ses = [], []
        for k in range(100):
            v, s = ewv_mc(cloud, 2000, STREAM.child("rep", k))
            vals.append(v)
            ses.append(s)
        pooled_se = math.sqrt(sum(s * s for s in ses)) / len(ses)
        assert abs(np.mean(vals) - exact) < 4 * pooled_se

    def test_budget_precondition(self):
        with pytest.raises(DomainError):
            ewv_mc(PointCloud(1, [[0.0]]), 50, STREAM)

    def test_pruning_invariance(self):
        gen = np.random.default_rng(12)
        pts = gen.normal(size=(60, 3))
        cloud = PointCloud(3, pts)
        v_full, _ = ewv_mc(cloud, 50_000, STREAM.child("full"))
        v_pruned, _ = ewv_mc(pareto_prune(cloud), 50_000, STREAM.child("full"))
        assert v_full == pytest.approx(v_pruned, rel=1e-12)


class TestEwvBatch:
    def test_batch_matches_percloud_exact(self):
        gen = np.random.default_rng(13)
        pts = gen.normal(size=(50, 9, 2))
        batch = ewv_batch(pts)
        for r in range(50):
            assert batch[r] == pytest.approx(ewv_exact(PointCloud(2, pts[r])), rel=1e-12)

    def test_batch_n1(self):
        gen = np.random.default_rng(14)
        pts = gen.normal(size=(20, 7, 1))
        np.testing.assert_allclose(ewv_batch(pts), np.exp(pts[:, :, 0].max(axis=1)))

    def test_batch_n3_matches_percloud_exact(self):
        gen = np.random.default_rng(15)
        pts = gen.normal(size=(200, 6, 3))
        exact = np.array([ewv_exact(PointCloud(3, p)) for p in pts])
        np.testing.assert_allclose(ewv_batch(pts), exact, rtol=1e-12)

    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_batch_matches_inclusion_exclusion(self, n, ties):
        clouds = oracle_clouds(n, ties, seed=1)
        oracle = [inclusion_exclusion_ewv(pts) for pts in clouds]
        np.testing.assert_allclose(ewv_batch(clouds), oracle, rtol=1e-12)

    def test_batch_n3_spans_several_chunks(self):
        # 300 clouds of 33 points exceed one chunk of the n=3 sweep
        gen = np.random.default_rng(17)
        pts = gen.normal(size=(300, 33, 3))
        batch = ewv_batch(pts)
        for r in (0, 59, 60, 61, 299):
            assert batch[r] == pytest.approx(ewv_exact(PointCloud(3, pts[r])), rel=1e-14)

    def test_generator_is_ignored(self):
        gen = np.random.default_rng(18)
        pts = gen.normal(size=(10, 5, 3))
        np.testing.assert_array_equal(ewv_batch(pts, gen=np.random.default_rng(0)), ewv_batch(pts))
