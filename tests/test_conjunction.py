import math
import tracemalloc

import numpy as np
import pytest

import gpextremes.conjunction as conjunction
import gpextremes.sampling as sampling
from gpextremes import (
    AsymptoticApproximation,
    DomainError,
    FractionalBrownian,
    LocallyStationary,
    NonStationary,
    PreconditionError,
    ProfileTable,
    RngStream,
    SampleGrid,
    Stationary,
    VectorProcessSpec,
    audit_borell,
    audit_piterbarg_decay,
    audit_slepian,
    compare_with_asymptotic,
    conjunction_prob_nested,
    default_grid_step,
    estimate_conjunction_prob,
    estimate_double_event,
    gaussian_tail,
    sample_vector,
)
from gpextremes.conjunction import ProbEstimate
from gpextremes.parallel import block_sizes, replicate
from gpextremes.sampling import coordinate_samplers

STREAM = RngStream(90210)


def unit_grid(m=257, T=1.0):
    return SampleGrid(0.0, T / (m - 1), m)


def ou_spec(a=1.0, n=1, kappa=1.0, T=1.0):
    return VectorProcessSpec(tuple(Stationary(a, kappa) for _ in range(n)), T)


# Every Monte Carlo entry point, with arguments that are valid for R >= 1000.
R_ENTRY_POINTS = {
    "prob": lambda R: estimate_conjunction_prob(ou_spec(), [1.0], unit_grid(65), R, STREAM),
    "nested": lambda R: conjunction_prob_nested(ou_spec(), [1.0], unit_grid(65), (2, 1), R, STREAM),
    "double_event": lambda R: estimate_double_event(ou_spec(T=6.0), 2.0, 2.0, (4.0,), R, STREAM),
    "slepian": lambda R: audit_slepian(ou_spec(), ou_spec(), [1.5], unit_grid(65), R, STREAM),
    "borell": lambda R: audit_borell(ou_spec(), (4.0,), unit_grid(65), R, STREAM),
    "piterbarg_decay": lambda R: audit_piterbarg_decay(
        nonstat_pair_spec(), (1.2, 1.6, 2.0), unit_grid(65), R, STREAM
    ),
}


class TestConjunctionProb:
    def test_single_node_product_of_tails(self):
        spec = ou_spec(n=2)
        R = 50_000
        est = estimate_conjunction_prob(spec, [1.0, 1.0], SampleGrid(0.0, 1.0, 1), R, STREAM.child("sn"))
        target = gaussian_tail(1.0) ** 2
        assert abs(est.value - target) < 3.0 * max(est.se, math.sqrt(target / R))

    def test_brownian_reflection_principle(self):
        spec = VectorProcessSpec((FractionalBrownian(1.0),), 1.0)
        R = 100_000
        est = estimate_conjunction_prob(spec, [1.0], unit_grid(513), R, STREAM.child("bm"))
        target = 2.0 * gaussian_tail(1.0)
        # discretization only loses crossings: allow a small one-sided gap
        assert est.value <= target + 3.0 * est.se
        assert est.value >= target * 0.93 - 3.0 * est.se

    def test_monotone_in_threshold_shared_paths(self):
        spec = ou_spec()
        thresholds = [[1.0], [1.5], [2.0], [2.5]]
        ests = estimate_conjunction_prob(spec, thresholds, unit_grid(129), 20_000, STREAM.child("mono"))
        hits = [e.hits for e in ests]
        assert all(a >= b for a, b in zip(hits, hits[1:]))

    def test_nested_refinement_monotone(self):
        spec = ou_spec()
        ests = conjunction_prob_nested(spec, [1.5], unit_grid(257), (4, 2, 1), 20_000, STREAM.child("nest"))
        hits = [e.hits for e in ests]
        assert hits[0] <= hits[1] <= hits[2]

    def test_conjunction_below_single_coordinate(self):
        spec = ou_spec(n=2)
        rows = [[1.5, 1.5], [1.5, -1e18], [-1e18, 1.5]]
        both, only0, only1 = estimate_conjunction_prob(spec, rows, unit_grid(129), 30_000, STREAM.child("sub"))
        pooled0 = 3.0 * math.hypot(both.se, only0.se)
        pooled1 = 3.0 * math.hypot(both.se, only1.se)
        assert both.value <= only0.value + pooled0
        assert both.value <= only1.value + pooled1

    def test_every_replication_hitting_reports_the_rule_of_three_se(self):
        spec = VectorProcessSpec((Stationary(1.0, 1.5),) * 2, 1.0)
        est = estimate_conjunction_prob(spec, [-3.0, -3.0], SampleGrid(0.0, 1.0 / 64, 65), 2000, RngStream(5))
        assert (est.value, est.hits, est.replications) == (1.0, 2000, 2000)
        assert est.se == pytest.approx(3.0 / 2000, rel=1e-15)
        assert "rule-of-three" in est.notes
        rep = compare_with_asymptotic(est, AsymptoticApproximation("local_window", 1.0, 0.0, (0.0,), 1.0))
        assert rep.ci[0] < 1.0 < rep.ci[1]

    def test_zero_hits_rule_of_three(self):
        spec = ou_spec()
        est = estimate_conjunction_prob(spec, [20.0], unit_grid(65), 2000, STREAM.child("rare"))
        assert est.value == 0.0 and est.hits == 0
        assert est.se == pytest.approx(3.0 / 2000)
        assert "rule-of-three" in est.notes

    # a non-integer R used to draw int(R) rows and divide by R
    @pytest.mark.parametrize("R", [0, 999, 2000.5, "2000"])
    @pytest.mark.parametrize("entry", list(R_ENTRY_POINTS))
    def test_r_precondition(self, entry, R):
        with pytest.raises(DomainError):
            R_ENTRY_POINTS[entry](R)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda thr: estimate_conjunction_prob(ou_spec(n=2), thr, unit_grid(65), 2000, STREAM),
            lambda thr: conjunction_prob_nested(ou_spec(n=2), thr, unit_grid(65), (2, 1), 2000, STREAM),
            lambda thr: audit_slepian(ou_spec(n=2), ou_spec(n=2), thr, unit_grid(65), 2000, STREAM),
        ],
        ids=["prob", "nested", "slepian"],
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_thresholds_are_domain_errors(self, entry, bad):
        with pytest.raises(DomainError, match="finite"):
            entry([bad, 0.5])

    @pytest.mark.parametrize("strides", [(2, 3, 1), (4, 4, 1), ()])
    def test_nested_strides_must_nest(self, strides):
        with pytest.raises(DomainError, match="strides"):
            conjunction_prob_nested(ou_spec(), [1.0], unit_grid(65), strides, 2000, STREAM)

    @pytest.mark.parametrize(
        "thresholds, match",
        [([[1.0, 1.0], [1.0]], "equally long"), (np.zeros((0, 2)), "at least one")],
        ids=["ragged", "empty"],
    )
    def test_threshold_stack_is_checked_before_drawing(self, monkeypatch, thresholds, match):
        monkeypatch.setattr(conjunction, "coordinate_samplers", lambda spec, grid: pytest.fail("drew"))
        with pytest.raises(DomainError, match=match):
            estimate_conjunction_prob(ou_spec(n=2), thresholds, unit_grid(65), 2000, STREAM)
        with pytest.raises(DomainError, match=match):
            conjunction_prob_nested(ou_spec(n=2), thresholds, unit_grid(65), (2, 1), 2000, STREAM)

    def test_nested_strides_must_be_a_sequence(self, monkeypatch):
        monkeypatch.setattr(conjunction, "coordinate_samplers", lambda spec, grid: pytest.fail("drew"))
        with pytest.raises(DomainError, match="sequence"):
            conjunction_prob_nested(ou_spec(), [1.0], unit_grid(65), 2, 2000, STREAM)

    def test_order_statistics_consistency(self):
        # exchangeable pair: P(sup max > u) / P(sup X1 > u) -> 2
        spec = ou_spec(n=2)
        R = 100_000
        u = 2.5
        grid = unit_grid(257)
        batch_hits = np.zeros(2)
        from gpextremes.parallel import block_sizes

        sizes = block_sizes(R)
        for b, Rb in enumerate(sizes):
            batch = sample_vector(spec, grid, Rb, STREAM.child("ord", b))
            exceed = batch.values > u
            batch_hits[0] += exceed.any(axis=(1, 2)).sum()  # max order statistic
            batch_hits[1] += exceed[:, 0, :].any(axis=1).sum()  # single coordinate
        p_max, p_one = batch_hits / R
        ratio = p_max / p_one
        rel_se = math.sqrt((1 - p_max) / (R * p_max)) + math.sqrt((1 - p_one) / (R * p_one))
        assert ratio == pytest.approx(2.0, abs=4 * 2.0 * rel_se + 0.06)

    def test_default_grid_step_policy(self):
        assert default_grid_step(1.0, 3.0, 1.0) == pytest.approx(1.0 / 1024.0)
        assert default_grid_step(100.0, 10.0, 2.0) == pytest.approx(0.01)

    @pytest.mark.parametrize("u", [0.0, -1.0])
    def test_default_grid_step_needs_positive_u(self, u):
        with pytest.raises(DomainError, match="u must be positive"):
            default_grid_step(1.0, u, 1.5)


class TestDoubleEvent:
    def test_containment_and_decay(self):
        spec = ou_spec(T=6.0)
        res = estimate_double_event(spec, 2.0, 2.0, (4.0, 8.0, 16.0), 60_000, STREAM.child("dbl"))
        single = res.single_window
        for joint in res.joint:
            assert joint.value <= single.value + 3.0 * math.hypot(joint.se, single.se)
        vals = [j.value for j in res.joint]
        pooled = [3.0 * math.hypot(a.se, b.se) for a, b in zip(res.joint, res.joint[1:])]
        assert all(b <= a + tol for a, b, tol in zip(vals, vals[1:], pooled))

    def test_superlinear_log_decay(self):
        spec = ou_spec(T=6.0)
        res = estimate_double_event(spec, 2.0, 2.0, (4.0, 8.0, 16.0), 120_000, STREAM.child("dbl2"))
        p = [max(j.value, j.se / 3) for j in res.joint]
        drop_near = math.log(p[0]) - math.log(p[1])
        drop_far = math.log(p[0]) - math.log(p[2])
        assert drop_far > drop_near

    def test_window_bounds_checked(self):
        spec = ou_spec(T=1.0)
        with pytest.raises(DomainError):
            estimate_double_event(spec, 2.0, 2.0, (4.0, 64.0), 2000, STREAM)
        with pytest.raises(DomainError):
            estimate_double_event(spec, 2.0, 0.5, (4.0,), 2000, STREAM)

    @pytest.mark.parametrize("u", [0.0, -1.0])
    def test_u_must_be_positive(self, u):
        with pytest.raises(DomainError, match="u must be positive"):
            estimate_double_event(ou_spec(T=6.0), u, 2.0, (4.0,), 2000, STREAM)

    def test_offset_window_sharing_a_node_with_the_first_rejected(self):
        # 2.005 > S, but it snaps to node 64, the first window's last node
        spec = VectorProcessSpec((Stationary(1.0, 1.5),), 10.0)
        with pytest.raises(DomainError, match="must exceed S"):
            estimate_double_event(spec, 1.0, 2.0, [2.005, 2.5], 2000, STREAM)

    def test_offsets_snapping_to_one_node_rejected(self):
        # 4.0 and 4.01 both snap to node 128; offsets that snap apart are reported snapped
        spec = VectorProcessSpec((Stationary(1.0, 1.5),), 10.0)
        with pytest.raises(DomainError, match="stay distinct"):
            estimate_double_event(spec, 1.0, 2.0, [4.0, 4.01], 2000, STREAM)
        res = estimate_double_event(spec, 1.0, 2.0, [4.01, 4.05], 2000, STREAM)
        assert res.offsets == (4.0, 4.0625)


class TestSlepianAudit:
    def test_same_spec_passes(self):
        spec = ou_spec()
        rep = audit_slepian(spec, spec, [1.5], unit_grid(129), 20_000, STREAM.child("sl0"))
        assert rep.verdict == "pass"

    def test_dominance_orders_probabilities(self):
        rep = audit_slepian(ou_spec(a=1.0), ou_spec(a=2.0), [1.5], unit_grid(257), 50_000, STREAM.child("sl1"))
        assert rep.verdict == "pass"

    def test_vector_case(self):
        rep = audit_slepian(
            ou_spec(a=1.0, n=2), ou_spec(a=2.0, n=2), [1.5, 1.5], unit_grid(257), 50_000, STREAM.child("sl2")
        )
        assert rep.verdict == "pass"

    def test_dominance_precondition(self):
        with pytest.raises(PreconditionError):
            audit_slepian(ou_spec(a=2.0), ou_spec(a=1.0), [1.5], unit_grid(65), 2000, STREAM)

    def test_variance_match_precondition(self):
        spec_fbm = VectorProcessSpec((FractionalBrownian(1.0),), 1.0)
        with pytest.raises(PreconditionError):
            audit_slepian(ou_spec(), spec_fbm, [1.5], unit_grid(65), 2000, STREAM)

    def test_threshold_stack_is_domain_error(self):
        with pytest.raises(DomainError, match="single threshold vector"):
            audit_slepian(ou_spec(), ou_spec(), [[1.5], [2.0]], unit_grid(65), 2000, STREAM)


class TestBorellAudit:
    def test_brownian_motion_case(self):
        spec = VectorProcessSpec((FractionalBrownian(1.0),), 1.0)
        reports = audit_borell(spec, (0.5, 4.0), unit_grid(513), 100_000, STREAM.child("bor"))
        low, high = reports
        assert low.verdict == "inconclusive"  # u below the mean of the supremum
        assert high.verdict == "pass"
        assert high.tau_sq == pytest.approx(1.0, rel=1e-9)
        assert high.mu_hat == pytest.approx(math.sqrt(2.0 / math.pi), abs=0.05)

    def test_two_coordinate_stationary(self):
        spec = ou_spec(n=2)
        reports = audit_borell(spec, (4.0,), unit_grid(257), 50_000, STREAM.child("bor2"))
        rep = reports[0]
        assert rep.tau_sq == pytest.approx(2.0, rel=1e-9)
        assert rep.verdict == "pass"

    @pytest.mark.parametrize("kappa", [1.0, 1.5])
    def test_hits_are_row_aligned_on_the_block_streams(self, kappa):
        # the empirical tail counts row k of every coordinate of block b's streams together
        spec, grid, us, R = ou_spec(n=2, kappa=kappa), unit_grid(257), (1.0, 2.0), 5000
        stream = STREAM.child("bor-scan", int(2 * kappa))
        reports = audit_borell(spec, us, grid, R, stream)
        ref = aligned_hits(spec, grid, us, R, stream)
        assert [r.empirical_at_u.hits for r in reports] == list(ref)
        assert ref[0] > ref[1] > 0
        assert reports[0].empirical_at_u.diagnostics["rows_drawn"] == [R, R]

    def test_draws_each_path_once(self, monkeypatch):
        # the mixture supremum and the hits come from one pass: each coordinate's
        # stream of rows is opened once per block
        spec, grid, R = ou_spec(n=2, kappa=1.5), unit_grid(257), 5000
        opened = [0] * spec.n

        def recorded(i, draw):
            def chunks(gen):
                opened[i] += 1
                return draw.chunks(gen)

            return sampling._Draw(chunks, draw.count, draw.method, draw.size, draw.clamped, draw.factor)

        recording = tuple(recorded(i, draw) for i, draw in enumerate(coordinate_samplers(spec, grid)))
        monkeypatch.setattr(conjunction, "coordinate_samplers", lambda spec, grid: recording)
        (report,) = audit_borell(spec, (1.5,), grid, R, STREAM.child("bor-once"))
        assert opened == [len(block_sizes(R))] * spec.n == [report.empirical_at_u.diagnostics["blocks"]] * spec.n


def aligned_hits(spec, grid, us, R, stream):
    """Hits per u of the rows with a node where every coordinate is above u, row k of each coordinate together.

    The reference for the Borell audit's empirical tail: the same ``replicate``
    streams, coordinate i of a block drawn by its sampler from
    ``blk("coord", i)`` in takes of ``_chunk_rows(n * count)`` rows, the block
    engine's chunks (a dense row rounds by its take size).
    """
    samplers = coordinate_samplers(spec, grid)
    chunk = sampling._chunk_rows(spec.n * grid.count)
    thr = np.asarray(us, dtype=float)[:, None, None]

    def block(Rb, blk):
        exceed = np.ones((thr.shape[0], Rb, grid.count), dtype=bool)
        for i, draw in enumerate(samplers):
            take = draw.chunks(blk("coord", i).generator())
            exceed &= np.concatenate([take(min(chunk, Rb - r0)) for r0 in range(0, Rb, chunk)]) > thr
        return exceed.any(axis=2).sum(axis=1)

    return sum(replicate(R, stream, 1, block))


def nonstat_pair_spec(T=1.0):
    c1 = NonStationary(
        sigma_profile=ProfileTable.constant(1.0, T),
        alpha=1.0,
        a=1.0,
        beta=1.0,
        b_lower=0.0,
        b_upper=0.0,
        holder_G=4.0,
        holder_gamma=1.0,
        holder_rho=0.5,
    )
    c2 = NonStationary(
        sigma_profile=ProfileTable.from_function(lambda t: 1.0 / (1.0 + t), T, count=65),
        alpha=1.0,
        a=1.0,
        beta=1.0,
        b_lower=0.0,
        b_upper=1.0,
        holder_G=4.0,
        holder_gamma=1.0,
        holder_rho=0.5,
    )
    return VectorProcessSpec((c1, c2), T)


class TestPiterbargDecayAudit:
    def test_bounded_ratio_on_nonstationary_example(self):
        spec = nonstat_pair_spec()
        rep = audit_piterbarg_decay(spec, (1.2, 1.6, 2.0), unit_grid(257), 100_000, STREAM.child("pd"))
        assert rep.verdict == "pass"
        assert rep.nu == 1.0
        assert rep.tau_sq == pytest.approx(2.0, rel=1e-6)
        assert all(r is None or r > 0 for r in rep.ratios)

    def test_measure_doubling_bounds_numerator(self):
        spec_1 = ou_spec(T=1.0)
        spec_2 = ou_spec(T=2.0)
        u = 2.0
        a = estimate_conjunction_prob(spec_1, [u], unit_grid(257, 1.0), 50_000, STREAM.child("m1"))
        b = estimate_conjunction_prob(spec_2, [u], SampleGrid(0.0, 1.0 / 256, 513), 50_000, STREAM.child("m2"))
        assert b.value <= 2.0 * a.value + 3.0 * math.hypot(b.se, 2 * a.se)

    def test_zero_hits_inconclusive(self):
        spec = nonstat_pair_spec()
        rep = audit_piterbarg_decay(spec, (8.0, 9.0, 10.0), unit_grid(65), 2000, STREAM.child("pd0"))
        assert rep.verdict == "inconclusive"
        assert all(r is None for r in rep.ratios)
        assert all(b is not None and b > 0 for b in rep.ratio_bounds)

    def test_ladder_precondition(self):
        with pytest.raises(DomainError):
            audit_piterbarg_decay(nonstat_pair_spec(), (2.0, 1.0, 3.0), unit_grid(65), 2000, STREAM)

    def test_one_node_grid(self):
        # mes(T) is the grid span, zero on one node, and divides the tail
        with pytest.raises(DomainError, match="two nodes"):
            audit_piterbarg_decay(ou_spec(), (1.2, 1.6, 2.0), SampleGrid(0.0, 0.25, 1), 2000, STREAM)


def mixed_pair_spec():
    # a dense kappa = 1.5 stationary coordinate and a circulant fBm one
    return VectorProcessSpec((Stationary(1.0, 1.5), FractionalBrownian(1.2)), 1.0)


def mixed_triple_spec():
    # AR(1), locally stationary (dense frozen blocks) and non-stationary (dense) coordinates
    return VectorProcessSpec(
        (
            Stationary(2.0, 1.0),
            LocallyStationary(ProfileTable.from_function(lambda t: 1.0 + t, 1.0, count=17), 1.5, block_count=4),
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
        ),
        1.0,
    )


MIXED_SPECS = {"n2": mixed_pair_spec, "n3": mixed_triple_spec}


def eager_counts(spec, grid, thr, R, stream, reduce, workers=1):
    """``reduce`` summed over whole blocks, every coordinate drawn in full and paired compactly.

    The reference for the lazy scan: the same ``replicate`` streams, coordinate
    i of a block drawn in full by its sampler from ``blk("coord", i)``.  The
    k-th row of the block alive before coordinate i (one with a node where
    every earlier coordinate exceeds, for some threshold row) is paired with
    row k of that draw; ``reduce`` gets the node masks "every coordinate
    exceeds" of each threshold row of ``thr``.
    """
    samplers = coordinate_samplers(spec, grid)
    thr = np.atleast_2d(np.asarray(thr, dtype=float))

    def block(Rb, blk):
        exceed = np.ones((len(thr), Rb, grid.count), dtype=bool)
        for i, draw in enumerate(samplers):
            alive = np.flatnonzero(exceed.any(axis=(0, 2)))
            values = np.full((Rb, grid.count), -np.inf)
            values[alive] = draw(Rb, blk("coord", i).generator())[: alive.size]
            exceed &= values > thr[:, i, None, None]
        return reduce(exceed)

    return sum(replicate(R, stream, workers, block))


def stride_counts(strides=(1,)):
    return lambda exceed: np.array([[mask[:, ::s].any(axis=1).sum() for s in strides] for mask in exceed])


class TestLazyScan:
    """The lazy scan draws later coordinates only for rows that can still hit; counts are the eager ones."""

    @pytest.mark.parametrize(
        "spec, grid, u, R, method",
        [
            # conj-n2's coordinates on 257 nodes
            (ou_spec(n=2, kappa=1.5), unit_grid(257), 1.5, 5000, "dense"),
            # fractional Brownian coordinates on 1101 nodes, embedded in 4096 entries
            (VectorProcessSpec((FractionalBrownian(1.5),) * 2, 1.0), unit_grid(1101), 1.0, 5000, "circulant"),
        ],
        ids=["dense", "circulant"],
    )
    def test_no_normal_is_drawn_for_a_dead_row(self, monkeypatch, spec, grid, u, R, method):
        # coordinate 1 of each block draws exactly the rows where coordinate 0
        # exceeds, and no normal beyond them
        samplers = coordinate_samplers(spec, grid)
        assert [draw.method for draw in samplers] == [method] * 2
        seen = [[] for _ in samplers]

        def recorded(i, draw):
            def chunks(gen):
                seen[i].append((gen, gen.bit_generator.state))
                return draw.chunks(gen)

            return sampling._Draw(chunks, draw.count, draw.method, draw.size, draw.clamped, draw.factor)

        recording = tuple(recorded(i, draw) for i, draw in enumerate(samplers))
        monkeypatch.setattr(conjunction, "coordinate_samplers", lambda spec, grid: recording)
        est = estimate_conjunction_prob(spec, [u, u], grid, R, STREAM.child("dead-rows"))
        sizes = block_sizes(R)
        assert len(seen[0]) == len(seen[1]) == len(sizes) == est.diagnostics["blocks"] > 1
        live_total = 0
        for Rb, (_, start0), (gen1, start1) in zip(sizes, *seen):
            first = np.random.Generator(np.random.PCG64())
            first.bit_generator.state = start0
            live = int((samplers[0](Rb, first) > u).any(axis=1).sum())
            ref = np.random.Generator(np.random.PCG64())
            ref.bit_generator.state = start1
            samplers[1](live, ref)
            assert gen1.bit_generator.state == ref.bit_generator.state
            live_total += live
        assert est.diagnostics["rows_drawn"] == [R, live_total]
        assert 0 < live_total < R // 2

    @pytest.mark.parametrize("name", MIXED_SPECS)
    def test_threshold_stack_equals_eager(self, name):
        spec = MIXED_SPECS[name]()
        thr = [[0.3] * spec.n, [1.0] + [1.5] * (spec.n - 1), [2.5] * spec.n]
        grid, R, stream = unit_grid(257), 5000, STREAM.child("lazy-stack", name)
        ests = estimate_conjunction_prob(spec, thr, grid, R, stream)
        ref = eager_counts(spec, grid, thr, R, stream, stride_counts())
        assert [e.hits for e in ests] == list(ref[:, 0])
        assert ref[0, 0] > ref[1, 0] > 0

    @pytest.mark.parametrize("name", MIXED_SPECS)
    def test_nested_strides_equal_eager(self, name):
        spec = MIXED_SPECS[name]()
        strides = (8, 4, 2, 1)
        grid, R, stream = unit_grid(513), 5000, STREAM.child("lazy-nest", name)
        ests = conjunction_prob_nested(spec, [0.8] * spec.n, grid, strides, R, stream)
        ref = eager_counts(spec, grid, [0.8] * spec.n, R, stream, stride_counts(strides))
        assert [e.hits for e in ests] == list(ref[0])
        assert ref[0, 0] < ref[0, -1]

    def test_double_event_equals_eager(self):
        spec = VectorProcessSpec((Stationary(1.0, 1.5), Stationary(2.0, 1.0)), 6.0)
        u, S, offsets, R, stream = 1.5, 2.0, (4.0, 8.0), 5000, STREAM.child("lazy-dbl")
        res = estimate_double_event(spec, u, S, offsets, R, stream)
        nodes = conjunction._DOUBLE_EVENT_NODES
        grid = SampleGrid(0.0, S * u ** -2.0 / nodes, int(round((offsets[-1] + S) / S * nodes)) + 1)
        starts = [int(round(off / S * nodes)) for off in offsets]

        def reduce(exceed):
            hit0 = exceed[0, :, : nodes + 1].any(axis=1)
            joint = [(hit0 & exceed[0, :, s : s + nodes + 1].any(axis=1)).sum() for s in starts]
            return np.array([hit0.sum()] + joint)

        ref = eager_counts(spec, grid, [u, u], R, stream, reduce)
        assert [res.single_window.hits] + [j.hits for j in res.joint] == list(ref)
        assert ref[0] > ref[1] > 0

    def test_piterbarg_decay_equals_eager(self):
        spec = mixed_triple_spec()
        us, grid, R, stream = (0.6, 1.0, 1.4), unit_grid(257), 5000, STREAM.child("lazy-pd")
        rep = audit_piterbarg_decay(spec, us, grid, R, stream)
        ref = eager_counts(spec, grid, [[u] * spec.n for u in us], R, stream, stride_counts())
        assert [e.hits for e in rep.estimates] == list(ref[:, 0])
        assert ref[-1, 0] > 0

    @pytest.mark.parametrize("name", MIXED_SPECS)
    def test_worker_count_invariance(self, name):
        spec = MIXED_SPECS[name]()
        grid, stream = unit_grid(257), STREAM.child("lazy-workers", name)
        thr = [[0.5] * spec.n, [1.5] * spec.n]
        one, two = (estimate_conjunction_prob(spec, thr, grid, 5000, stream, workers=w) for w in (1, 2))
        assert one == two
        one, two = (conjunction_prob_nested(spec, thr[0], grid, (4, 1), 5000, stream, workers=w) for w in (1, 2))
        assert one == two

    def test_diagnostics_report_the_draw(self):
        spec = ou_spec(n=2, kappa=1.5)
        grid, R = unit_grid(1025), 4096
        est = estimate_conjunction_prob(spec, [1.5, 1.5], grid, R, STREAM.child("lazy-diag"))
        diag = est.diagnostics
        assert diag["sampler_methods"] == ["dense", "dense"]
        assert diag["sampler_sizes"] == [1025, 1025]
        assert diag["blocks"] == 2
        assert diag["rows_drawn"][0] == R
        # coordinate 1 is drawn only where coordinate 0 exceeds, about a fifth of the rows
        assert est.hits <= diag["rows_drawn"][1] < R // 2
        rare = estimate_conjunction_prob(spec, [20.0, 20.0], grid, 2048, STREAM.child("lazy-rare"))
        assert rare.hits == 0 and rare.diagnostics["rows_drawn"] == [2048, 0]
        triple = conjunction_prob_nested(mixed_triple_spec(), [1.0] * 3, unit_grid(257), (2, 1), 2048, STREAM)
        rows = triple[0].diagnostics["rows_drawn"]
        assert rows[0] == 2048 and rows[0] > rows[1] > rows[2] > 0
        assert triple[0].diagnostics["sampler_methods"] == ["direct", "dense", "dense"]

    def test_diagnostics_report_the_fallbacks(self):
        # 1105 nodes at step 1/16: the stationary a = 5 clamps its embedding, and
        # the frozen blocks of 17 nodes of the constant a = 5 go dense by eigh
        T = 1105 / 16
        frozen = LocallyStationary(ProfileTable.constant(5.0, T), 2.0, block_count=65)
        spec, grid = VectorProcessSpec((Stationary(5.0, 2.0), frozen), T), unit_grid(1105, 69.0)
        est = estimate_conjunction_prob(spec, [1.0, 1.0], grid, 1000, STREAM.child("fallbacks"))
        assert est.diagnostics["sampler_methods"] == ["circulant", "dense"]
        assert est.diagnostics["sampler_clamped"] == [874, 0]
        assert est.diagnostics["sampler_factors"] == [None, "eigh"]
        (report,) = audit_borell(spec, (4.0,), grid, 1000, STREAM.child("fallbacks"))
        assert report.empirical_at_u.diagnostics["sampler_clamped"] == [874, 0]

    def test_streamed_scan_holds_a_chunk(self, monkeypatch):
        # the conj-n2 coordinates in chunks of 255 rows of 2 planes: the block's
        # reused buffer of both planes, into which each coordinate's normals
        # are drawn and multiplied, and the masks, beside the factor L built
        # before tracing
        spec, grid = ou_spec(n=2, kappa=1.5), unit_grid(1025)
        samplers = coordinate_samplers(spec, grid)
        monkeypatch.setattr(conjunction, "coordinate_samplers", lambda spec, grid: samplers)
        tracemalloc.start()
        try:
            estimate_conjunction_prob(spec, [1.5, 1.5], grid, 2048, STREAM.child("lazy-mem"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (511 * 1025 * 8)

    def test_block_peak_is_below_two_and_a_half_planes(self, monkeypatch):
        # one conj-n2-shaped block: two dense kappa = 1.5 coordinates, 2048 rows of 1025 nodes
        spec, grid, R = ou_spec(n=2, kappa=1.5), unit_grid(1025), 2048
        samplers = coordinate_samplers(spec, grid)
        monkeypatch.setattr(conjunction, "coordinate_samplers", lambda spec, grid: samplers)
        tracemalloc.start()
        try:
            estimate_conjunction_prob(spec, [1.5, 1.5], grid, R, STREAM.child("lazy-mem"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * R * grid.count * 8


class TestCompareWithAsymptotic:
    def test_exact_match_is_ratio_one(self):
        emp = ProbEstimate(0.5, 0.0, 500, 1000, 0.1)
        appr = AsymptoticApproximation("local_window", 1.0, 0.0, (0.0,), 0.5)
        rep = compare_with_asymptotic(emp, appr)
        assert rep.ratio == pytest.approx(1.0)

    def test_zero_hits_gives_rule_of_three_bound(self):
        emp = ProbEstimate(0.0, 3.0 / 1000, 0, 1000, 0.1)
        appr = AsymptoticApproximation("local_window", 1.0, 0.0, (0.0,), 0.01)
        rep = compare_with_asymptotic(emp, appr)
        assert rep.ratio is None
        assert rep.rule_of_three_bound == pytest.approx(0.3)

    def test_ci_contains_ratio(self):
        emp = ProbEstimate(0.012, 0.001, 1200, 100_000, 0.01)
        appr = AsymptoticApproximation("locally_stationary", 1.0, 2.0, (3.0,), 0.0121)
        rep = compare_with_asymptotic(emp, appr)
        assert rep.ci[0] <= rep.ratio <= rep.ci[1]
