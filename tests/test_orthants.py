import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpextremes import DomainError, PointCloud, RngStream, ewv_exact, ewv_mc, pareto_prune
import gpextremes.orthants as orthants
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


def brute_force_pareto_mask(pts):
    """Reference mask, point by point: a row is pruned when another row weakly
    dominates it or an earlier row equals it."""
    keep = np.ones(pts.shape[0], dtype=bool)
    for i, p in enumerate(pts):
        ge = (pts >= p).all(axis=1)
        gt = (pts > p).any(axis=1)
        keep[i] = not (ge & gt).any() and not (ge & ~gt)[:i].any()
    return keep


def drifted_clouds(R, m, T, seed, n=3):
    """R clouds of n sqrt(2) B(t) - t coordinates on m nodes of [0, T], as
    the window estimators see them: a moveaxis view of coordinate planes."""
    gen = np.random.default_rng(seed)
    step = T / (m - 1)
    inc = math.sqrt(step) * gen.standard_normal((n, R, m - 1))
    planes = math.sqrt(2.0) * np.concatenate([np.zeros((n, R, 1)), np.cumsum(inc, axis=2)], axis=2)
    return np.moveaxis(planes - step * np.arange(m), 0, 2)


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_mask_matches_brute_force(self, n):
        # halves make tied coordinates and exact duplicates common
        gen = np.random.default_rng([31, n])
        for _ in range(40):
            pts = np.round(2.0 * gen.normal(size=(gen.integers(1, 40), n))) / 2.0
            np.testing.assert_array_equal(_pareto_mask(pts), brute_force_pareto_mask(pts))

    def test_mask_matches_brute_force_on_distinct_clouds(self):
        gen = np.random.default_rng(32)
        for n in (2, 3, 5):
            pts = gen.normal(size=(300, n))
            np.testing.assert_array_equal(_pareto_mask(pts), brute_force_pareto_mask(pts))

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

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_antipodal_large_coordinates(self, n):
        # the coordinatewise maxima sum to 1600, the point sums to 0: EWV = 2 - exp(-1600)
        pts = np.zeros((2, n))
        pts[:, :2] = [[800.0, -800.0], [-800.0, 800.0]]
        assert ewv_exact(PointCloud(n, pts)) == pytest.approx(2.0, rel=1e-15)

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
        # a non-integer budget used to raise numpy's TypeError
        for budget in (50, 100.5, "200"):
            with pytest.raises(DomainError, match="budget"):
                ewv_mc(PointCloud(1, [[0.0]]), budget, STREAM)

    def test_pruning_invariance(self):
        gen = np.random.default_rng(12)
        pts = gen.normal(size=(60, 3))
        cloud = PointCloud(3, pts)
        v_full, _ = ewv_mc(cloud, 50_000, STREAM.child("full"))
        v_pruned, _ = ewv_mc(pareto_prune(cloud), 50_000, STREAM.child("full"))
        assert v_full == pytest.approx(v_pruned, rel=1e-12)


class TestEwvBatch:
    # (R, 0, n) used to raise ZeroDivisionError (n >= 2) or ValueError (n = 1),
    # (R, m, 0) a TypeError and a 2-D input an IndexError
    @pytest.mark.parametrize("shape", [(3, 0, 2), (3, 0, 1), (3, 5, 0), (3, 4), (3,)])
    def test_malformed_shape_rejected(self, shape):
        with pytest.raises(DomainError, match="points must have shape"):
            ewv_batch(np.zeros(shape))

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

    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_point_order_invariance(self, n, ties):
        # distinct keys sort into one permutation, so any point order gives the
        # same bits; tied keys and duplicate points may move only the rounding
        clouds = oracle_clouds(n, ties, count=200, seed=2)
        gen = np.random.default_rng([23, n, ties])
        batch = ewv_batch(clouds)
        for _ in range(3):
            perm = gen.permuted(np.broadcast_to(np.arange(clouds.shape[1]), clouds.shape[:2]), axis=1)
            shuffled = ewv_batch(np.take_along_axis(clouds, perm[:, :, None], axis=1))
            np.testing.assert_allclose(shuffled, batch, rtol=1e-12 if ties else 0.0, atol=0.0)

    def test_batch_n3_spans_several_chunks(self):
        # 300 clouds of 33 points exceed one chunk of the n=3 sweep
        gen = np.random.default_rng(17)
        pts = gen.normal(size=(300, 33, 3))
        batch = ewv_batch(pts)
        for r in (0, 59, 60, 61, 299):
            assert batch[r] == pytest.approx(ewv_exact(PointCloud(3, pts[r])), rel=1e-14)

    # (n, R, m): R spans several row chunks for n <= 3 and n = 5
    @pytest.mark.parametrize("n, R, m", [(1, 140_000, 3), (2, 5000, 33), (3, 200, 33), (4, 12, 10), (5, 400, 33)])
    def test_moveaxis_view_in_chunks_equals_single_pass(self, n, R, m, monkeypatch):
        gen = np.random.default_rng(19)
        planes = np.cumsum(gen.normal(size=(n, R, m)), axis=2) - np.linspace(0.0, 3.0, m)
        view = np.moveaxis(planes, 0, 2)
        chunked = ewv_batch(view)
        stacked = np.ascontiguousarray(view)
        monkeypatch.setattr(orthants, "_CHUNK_ELEMENTS", 1 << 62)
        np.testing.assert_array_equal(chunked, ewv_batch(stacked))

    @pytest.mark.parametrize("n", [3, 4])
    def test_n3_survivor_count_grouping_and_padding_leave_bits(self, n):
        # a cloud's value does not depend on the clouds it is swept with: alone,
        # among clouds with larger Pareto sets (which pad it) and shuffled
        clouds = np.ascontiguousarray(drifted_clouds(300, 33, 1.0, seed=33, n=n))
        counts = np.array([_pareto_mask(c).sum() for c in clouds])
        batch = ewv_batch(clouds)
        buckets = np.array([orthants._sweep_bucket(int(c)) for c in counts])
        # clouds that a batch-mate of the same sweep group pads
        padded = [r for r in range(len(clouds)) if (counts[buckets == buckets[r]] > counts[r]).any()]
        assert len(padded) >= 5
        for r in [*padded[:: len(padded) // 5], int(np.argmin(counts)), int(np.argmax(counts))]:
            np.testing.assert_array_equal(ewv_batch(clouds[r : r + 1]), batch[r : r + 1])
            mixed = ewv_batch(np.concatenate([clouds[counts > counts[r]], clouds[r : r + 1]]))
            np.testing.assert_array_equal(mixed[-1:], batch[r : r + 1])
        perm = np.random.default_rng(34).permutation(len(clouds))
        np.testing.assert_array_equal(ewv_batch(clouds[perm]), batch[perm])

    def test_n3_many_dominated_points_ties_and_duplicates(self):
        # a few maxima among many dominated points, exact copies and x ties,
        # some with a later point of the same x dominating an earlier one
        gen = np.random.default_rng(35)
        for _ in range(20):
            front = gen.normal(size=(6, 3))
            below = front[gen.integers(0, 6, size=30)] - gen.exponential(size=(30, 3)) * (gen.random((30, 3)) < 0.7)
            tied = front[gen.integers(0, 6, size=4)]
            tied[:, 1:] -= 0.5  # same x as a maximum, dominated by it
            pts = np.concatenate([tied, front, front[:2], below])
            gen.shuffle(pts)
            assert ewv_batch(pts[None])[0] == pytest.approx(inclusion_exclusion_ewv(pts), rel=1e-12)
        # the later of two points with equal x dominates the earlier one
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [-1.0, 2.0, -1.0], [0.0, 0.5, 1.0]])
        assert ewv_batch(pts[None])[0] == pytest.approx(inclusion_exclusion_ewv(pts), rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4])
    def test_n3_peak_is_a_few_chunks(self, n):
        # the maxima filter and the padded sweeps keep their temporaries within
        # a few _CHUNK_ELEMENTS floats, at the m = 513 of a fine window grid,
        # unless one cloud's n >= 4 slice needs its (n - 1) c**2 prefix array
        clouds = drifted_clouds(64, 513, 4.0, seed=36, n=n)
        largest = int(orthants._maxima(clouds)[1].max())
        ewv_batch(clouds)
        tracemalloc.start()
        try:
            ewv_batch(clouds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * max(orthants._CHUNK_ELEMENTS, (n - 1) * largest**2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_non_finite_points_rejected(self, n, bad):
        pts = np.random.default_rng(37).normal(size=(5, 4, n))
        for c in range(n):
            for j in (0, 3):
                bent = pts.copy()
                bent[2, j, c] = bad
                with pytest.raises(DomainError, match="finite"):
                    ewv_batch(bent)

    @pytest.mark.parametrize("n", [4, 5])
    def test_no_ewv_path_runs_the_pareto_mask(self, n, monkeypatch):
        # the maxima filter is the one prune of every n >= 3
        clouds = oracle_clouds(n, False, seed=3)
        oracle = [inclusion_exclusion_ewv(pts) for pts in clouds]

        def fail(pts):
            raise AssertionError("_pareto_mask called")

        monkeypatch.setattr(orthants, "_pareto_mask", fail)
        np.testing.assert_allclose(ewv_batch(clouds), oracle, rtol=1e-12)

    def test_non_real_points_rejected(self):
        with pytest.raises(DomainError, match="real numbers"):
            ewv_batch([[["a"]]])

    def test_generator_is_ignored(self):
        gen = np.random.default_rng(18)
        pts = gen.normal(size=(10, 5, 3))
        np.testing.assert_array_equal(ewv_batch(pts, gen=np.random.default_rng(0)), ewv_batch(pts))
