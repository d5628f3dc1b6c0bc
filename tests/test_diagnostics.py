import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from conftest import random_graph
from graphpop.diagnostics import (
    Chi2Config,
    DegreeQuantile,
    EdgeCount,
    MeanDegree,
    _CHI2_95,
    _statistic_rows,
    bayes_chi2,
    chi2_quantile,
    gamma_profile,
    posterior_predictive_check,
    randomized_pit,
    rb_statistic,
    statistic_values,
    suggest_gamma_steps,
    trace_health,
)
from graphpop.errors import DomainError, EmptyTraceError, TooFewObservationsError
from graphpop.graphs import GraphPopulation, LabelledGraph
from graphpop.inference import CerCerHyper, McmcConfig, Trace, fit_cer_cer, spawn_rng
from graphpop.metrics import MetricSpec
from graphpop.models import CerParams, cer_sample

HAMMING = MetricSpec(kind="hamming")


def make_trace(graphs, params):
    return Trace(
        graphs=list(graphs),
        params=np.asarray(params, dtype=float),
        log_kernels=np.zeros(len(params)),
        param_name="alpha",
        n_vertices=graphs[0].n_vertices,
        accept_counts={"flip": (3, 10)},
    )


class TestStatistics:
    def test_edge_count(self):
        g = LabelledGraph.from_edges(4, [(0, 1), (2, 3), (1, 2)])
        vals = statistic_values(EdgeCount(), g.to_vector()[None, :], 4)
        assert vals[0] == 3.0

    def test_mean_degree(self):
        g = LabelledGraph.from_edges(4, [(0, 1), (2, 3)])
        vals = statistic_values(MeanDegree(), g.to_vector()[None, :], 4)
        assert vals[0] == 1.0

    def test_degree_quantile_matches_numpy(self):
        rng = spawn_rng(0)
        for _ in range(10):
            g = random_graph(5, rng)
            for q in (0.1, 0.5, 0.9):
                got = statistic_values(DegreeQuantile(q), g.to_vector()[None, :], 5)[0]
                assert got == np.quantile(g.degree_sequence().astype(float), q)

    def test_quantile_domain(self):
        with pytest.raises(DomainError):
            DegreeQuantile(1.5)


def fitted_cer_trace(seed=0, n_vertices=8, n=10, alpha=0.1):
    rng = spawn_rng(seed)
    mode = random_graph(n_vertices, rng, p=0.3)
    params = CerParams(mode, alpha)
    pop = GraphPopulation(tuple(cer_sample(params, rng) for _ in range(n)))
    hyper = CerCerHyper(g0=mode, alpha0=alpha)
    cfg = McmcConfig(n_samples=400, burn_in=1500, lag=2, seed=seed + 1)
    return mode, pop, fit_cer_cer(pop, hyper, cfg)


class TestPosteriorPredictiveCheck:
    def test_tail_prob_in_unit_interval(self):
        _, pop, trace = fitted_cer_trace(seed=1)
        res = posterior_predictive_check(
            trace, "cer", pop, DegreeQuantile(0.9), 150, spawn_rng(2)
        )
        assert 0.0 <= res.tail_prob <= 1.0
        assert len(res.draws) == 150

    def test_constant_statistic_gives_tail_one(self):
        g = LabelledGraph.from_edges(4, [(0, 1)])
        pop = GraphPopulation((g,) * 6)
        # Near-zero flip probability: every replicate equals the mode exactly.
        trace = make_trace([g] * 50, [1e-12] * 50)
        res = posterior_predictive_check(trace, "cer", pop, EdgeCount(), 100, spawn_rng(3))
        assert res.tail_prob == 1.0
        assert np.all(res.draws == res.eta0)

    def test_duplicating_predictive_draws_changes_nothing(self):
        # With deterministic replicates the tail is a pure function of the draw
        # distribution, so doubling the draw count leaves it unchanged.
        g = LabelledGraph.from_edges(4, [(0, 1), (1, 2)])
        pop = GraphPopulation((g,) * 5)
        trace = make_trace([g] * 20, [1e-12] * 20)
        t1 = posterior_predictive_check(trace, "cer", pop, EdgeCount(), 100, spawn_rng(4))
        t2 = posterior_predictive_check(trace, "cer", pop, EdgeCount(), 200, spawn_rng(5))
        assert t1.tail_prob == t2.tail_prob

    def test_needs_enough_draws(self):
        _, pop, trace = fitted_cer_trace(seed=6)
        with pytest.raises(DomainError):
            posterior_predictive_check(trace, "cer", pop, EdgeCount(), 50, spawn_rng(7))

    def test_empty_trace(self):
        g = LabelledGraph(3, 0)
        pop = GraphPopulation((g,))
        empty = Trace([], np.zeros(0), np.zeros(0), "alpha", 3)
        with pytest.raises(EmptyTraceError):
            posterior_predictive_check(empty, "cer", pop, EdgeCount(), 100, spawn_rng(8))

    def test_calibration_under_correct_model(self):
        rejections = 0
        reps = 50
        for r in range(reps):
            _, pop, trace = fitted_cer_trace(seed=100 + r)
            res = posterior_predictive_check(
                trace, "cer", pop, DegreeQuantile(0.9), 150, spawn_rng(900 + r)
            )
            rejections += res.tail_prob < 0.05
        assert rejections / reps <= 0.15


class TestBayesChi2:
    def test_rb_zero_when_counts_match(self):
        # 10 PIT values, two per equal bin: counts equal n * p_k everywhere
        # (zero up to the floating-point width of the bin probabilities).
        u = np.array([0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95])
        assert abs(rb_statistic(u, Chi2Config())) < 1e-12

    def test_rb_zero_iff_expected_counts(self):
        u = np.array([0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.86])
        assert rb_statistic(u, Chi2Config()) > 0.0

    def test_rb_permutation_invariant(self):
        rng = spawn_rng(9)
        u = rng.random(40)
        shuffled = rng.permutation(u)
        assert rb_statistic(u, Chi2Config()) == rb_statistic(shuffled, Chi2Config())

    def test_randomized_pit_uniform_under_correct_model(self):
        # KS statistic below the 1% critical value in at least 90% of replicates.
        rng = spawn_rng(10)
        mode = random_graph(10, rng, p=0.3)
        params = CerParams(mode, 0.1)
        crit = sstats.kstwobign.ppf(0.99) / math.sqrt(200)
        ok = 0
        reps = 20
        for _ in range(reps):
            obs = np.array(
                [
                    statistic_values(DegreeQuantile(0.9), cer_sample(params, rng).to_vector()[None, :], 10)[0]
                    for _ in range(200)
                ]
            )
            sims_mat = np.stack([cer_sample(params, rng).to_vector() for _ in range(500)])
            sims = statistic_values(DegreeQuantile(0.9), sims_mat, 10)
            u = randomized_pit(obs, sims, rng)
            ks = sstats.kstest(u, "uniform").statistic
            ok += ks < crit
        assert ok / reps >= 0.9

    def test_exceedance_low_under_correct_model(self):
        ok = 0
        reps = 20
        for r in range(reps):
            _, pop, trace = fitted_cer_trace(seed=300 + r, n=10)
            res = bayes_chi2(
                trace, "cer", pop, DegreeQuantile(0.5), Chi2Config(), spawn_rng(700 + r),
                n_sims=300, max_draws=60,
            )
            ok += res.exceedance_fraction < 0.5
        assert ok / reps >= 0.85

    def test_too_few_observations(self):
        g = LabelledGraph(4, 0)
        pop = GraphPopulation((g,) * 3)
        trace = make_trace([g] * 10, [0.1] * 10)
        with pytest.raises(TooFewObservationsError):
            bayes_chi2(trace, "cer", pop, EdgeCount(), Chi2Config(), spawn_rng(11))

    def test_bin_edge_validation(self):
        with pytest.raises(DomainError):
            Chi2Config((0.0, 0.5, 0.4, 1.0))
        with pytest.raises(DomainError):
            Chi2Config((0.1, 0.5, 1.0))


class TestGammaProfile:
    def test_huge_gamma_pins_distances_at_zero(self):
        mode = LabelledGraph.from_edges(4, [(0, 1), (1, 2)])
        rows = gamma_profile(
            mode, HAMMING, [50.0], 100, McmcConfig(n_samples=1, seed=12), spawn_rng(13)
        )
        assert rows[0].median == 0.0 and rows[0].whisker_high == 0.0

    def test_tiny_gamma_gives_uniform_distances(self):
        mode = LabelledGraph(4, 0)
        rows = gamma_profile(
            mode, HAMMING, [1e-8], 2000, McmcConfig(n_samples=1, seed=14), spawn_rng(15)
        )
        # Uniform over the space: mean Hamming distance to any mode is N_e / 2.
        assert abs(rows[0].mean - 3.0) < 0.15

    def test_median_nonincreasing_in_gamma(self):
        rng = spawn_rng(16)
        mode = random_graph(5, rng)
        rows = gamma_profile(
            mode, HAMMING, [0.1, 0.5, 1.0, 2.0, 5.0], 1500,
            McmcConfig(n_samples=1, seed=17), spawn_rng(18),
        )
        medians = [r.median for r in rows]
        for a, b in zip(medians, medians[1:]):
            assert b <= a + 0.5  # Monte Carlo slack

    def test_suggest_gamma_steps_positive(self):
        mode = LabelledGraph.from_edges(4, [(0, 1), (2, 3)])
        steps = suggest_gamma_steps(
            mode, HAMMING, McmcConfig(n_samples=1, seed=19), spawn_rng(20), draws_per_gamma=100
        )
        assert len(steps) == 3
        assert all(s > 0 for s in steps)
        assert steps[0] < steps[1] < steps[2]


class TestTraceHealth:
    def test_constant_trace(self):
        g = LabelledGraph(3, 0)
        health = trace_health(make_trace([g] * 20, [0.1] * 20))
        assert health.autocorrelation is None
        assert health.distinct_graphs == 1
        assert health.acceptance_rates["flip"] == pytest.approx(0.3)

    def test_iid_draws_have_no_lag1_correlation(self):
        rng = spawn_rng(21)
        g = LabelledGraph(3, 0)
        params = rng.random(20_000)
        health = trace_health(make_trace([g] * 20_000, params))
        assert abs(health.autocorrelation[0]) < 0.02

    def test_counters_bookkeeping(self):
        _, _, trace = fitted_cer_trace(seed=22)
        cfg = trace.config
        total = cfg.burn_in + cfg.n_samples * cfg.lag
        mode_props = trace.accept_counts["flip"][1] + trace.accept_counts["empirical"][1]
        assert mode_props == total

    def test_empty_trace(self):
        with pytest.raises(EmptyTraceError):
            trace_health(Trace([], np.zeros(0), np.zeros(0), "alpha", 3))


class TestBayesChi2Bounds:
    """The bounds of the experiment keys chi2_sims and chi2_max_draws."""

    @pytest.mark.parametrize("kwargs", [{"n_sims": 0}, {"n_sims": 9}, {"max_draws": 0}])
    def test_rejects_unusable_knobs(self, kwargs):
        g = LabelledGraph.from_edges(4, [(0, 1)])
        pop = GraphPopulation((g,) * 6)
        trace = make_trace([g] * 10, [0.1] * 10)
        with pytest.raises(DomainError):
            bayes_chi2(trace, "cer", pop, EdgeCount(), Chi2Config(), spawn_rng(12), **kwargs)

    def test_accepts_the_smallest_allowed_knobs(self):
        g = LabelledGraph.from_edges(4, [(0, 1)])
        pop = GraphPopulation((g,) * 6)
        trace = make_trace([g] * 10, [0.1] * 10)
        res = bayes_chi2(
            trace, "cer", pop, EdgeCount(), Chi2Config(), spawn_rng(13), n_sims=10, max_draws=1
        )
        assert len(res.rb_values) == 1 and np.isfinite(res.rb_values).all()


class TestChi2Quantile:
    """chi2_quantile replaces scipy.stats.chi2.ppf and must equal it exactly."""

    def test_equals_scipy_at_the_threshold_level(self):
        for df in range(61):
            ours, ref = chi2_quantile(0.95, df), sstats.chi2.ppf(0.95, df)
            assert ours == ref or (math.isnan(ours) and math.isnan(ref)), df

    @pytest.mark.parametrize("k", [1, 7, 300])
    @pytest.mark.parametrize("df", [1, 4, 9])
    def test_equals_scipy_on_the_qq_grid(self, k, df):
        q = (np.arange(k) + 0.5) / k
        assert np.array_equal(chi2_quantile(q, df), sstats.chi2.ppf(q, df))


class TestDegreeStatisticPrecision:
    """Degrees come from a float32 product; the statistics equal the float64 ones bit for bit."""

    @staticmethod
    def incidence64(n):
        m = np.zeros((n * (n - 1) // 2, n))
        p = 0
        for i in range(n):
            for j in range(i + 1, n):
                m[p, i] = m[p, j] = 1.0
                p += 1
        return m

    @pytest.mark.parametrize("n", [2, 5, 7, 50])
    def test_equal_to_the_float64_product(self, n):
        ne = n * (n - 1) // 2
        rng = spawn_rng(n)
        mat = np.vstack(
            [
                np.zeros(ne, dtype=np.uint8),
                np.ones(ne, dtype=np.uint8),
                (rng.random((40, ne)) < rng.random((40, 1))).astype(np.uint8),
            ]
        )
        degrees = mat.astype(np.float64) @ self.incidence64(n)
        for q in (0.0, 0.1, 0.5, 0.9, 1.0):
            got = statistic_values(DegreeQuantile(q), mat, n)
            assert got.dtype == np.float64
            assert np.array_equal(got, np.quantile(degrees, q, axis=1))
        assert np.array_equal(statistic_values(EdgeCount(), mat, n), degrees.sum(axis=1) / 2)
        assert np.array_equal(statistic_values(MeanDegree(), mat, n), degrees.sum(axis=1) / n)


class TestChi2ThresholdTable:
    """The 0.95 quantiles at df 1-4 are constants, so up to five bins load no scipy module."""

    @pytest.mark.parametrize("df", [1, 2, 3, 4])
    def test_entry_equals_chi2_quantile(self, df):
        assert _CHI2_95[df] == chi2_quantile(0.95, df)

    @pytest.mark.parametrize("n_bins", [2, 5, 6, 8])
    def test_threshold_equals_chi2_quantile_on_both_sides_of_the_table(self, n_bins):
        rng = spawn_rng(30)
        pop = GraphPopulation(tuple(random_graph(6, rng, p=0.3) for _ in range(8)))
        trace = make_trace([pop[0]], [0.1])
        cfg = Chi2Config(tuple(np.linspace(0.0, 1.0, n_bins + 1)))
        res = bayes_chi2(trace, "cer", pop, EdgeCount(), cfg, spawn_rng(31), n_sims=10)
        assert res.threshold == chi2_quantile(0.95, n_bins - 1)


def _degrees64(mat, n):
    """Degree rows in float64 through the adjacency matrix, independent of the incidence product."""
    ii, jj = np.triu_indices(n, 1)
    adj = np.zeros((len(mat), n, n))
    adj[:, ii, jj] = mat
    return adj.sum(axis=1) + adj.sum(axis=2)


@st.composite
def _rows_and_levels(draw):
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 12))
    mat = (rng.random((k, n * (n - 1) // 2)) < rng.random((k, 1))).astype(np.uint8)
    top = max(n - 1, 1)
    level = st.one_of(
        st.sampled_from([0.0, 1.0]),
        st.floats(0.0, 1.0),
        st.integers(0, top).map(lambda j: j / top),  # q·(N-1) an integer
        st.integers(0, top - 1).map(lambda j: (j + 0.5) / top),  # fraction 1/2
    )
    return n, mat, draw(st.lists(level, min_size=1, max_size=5))


class TestSharedDegreeSort:
    """All degree quantiles of a statistic tuple come from one sort of the degree rows."""

    @settings(deadline=None, max_examples=300)
    @given(_rows_and_levels())
    def test_quantiles_equal_np_quantile(self, case):
        n, mat, levels = case
        rows = _statistic_rows(tuple(DegreeQuantile(q) for q in levels), mat, n)
        degrees = _degrees64(mat, n)
        for q, got in zip(levels, rows):
            assert got.dtype == np.float64
            assert np.array_equal(got, np.quantile(degrees, q, axis=1)), q

    @settings(deadline=None, max_examples=100)
    @given(_rows_and_levels())
    def test_mixed_tuple_equals_one_call_per_statistic(self, case):
        n, mat, levels = case
        stats = (EdgeCount(), *(DegreeQuantile(q) for q in levels), MeanDegree())
        rows = _statistic_rows(stats, mat, n)
        assert len(rows) == len(stats)
        for stat, got in zip(stats, rows):
            want = statistic_values(stat, mat, n)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        degrees = _degrees64(mat, n)
        assert np.array_equal(rows[0], degrees.sum(axis=1) / 2)
        assert np.array_equal(rows[-1], degrees.sum(axis=1) / n)

    @pytest.mark.parametrize("n", [7, 50])
    def test_dense_level_grid(self, n):
        # Only about 3 in 1000 (row, level) pairs tell the two lerp forms apart.
        rng = spawn_rng(n + 100)
        mat = (rng.random((40, n * (n - 1) // 2)) < rng.random((40, 1))).astype(np.uint8)
        levels = np.linspace(0.0, 1.0, 1001)
        rows = _statistic_rows(tuple(DegreeQuantile(float(q)) for q in levels), mat, n)
        degrees = _degrees64(mat, n)
        for q, got in zip(levels, rows):
            assert np.array_equal(got, np.quantile(degrees, float(q), axis=1)), q


class TestRbBinCounts:
    """``rb_statistic`` bins by ``searchsorted``; its counts must be ``np.histogram``'s."""

    @staticmethod
    def histogram_rb(u, cfg):
        edges = np.asarray(cfg.bin_edges)
        counts = np.histogram(np.clip(u, 0.0, np.nextafter(1.0, 0.0)), bins=edges)[0]
        n, p_k = len(u), np.diff(edges)
        return float((((counts - n * p_k) ** 2) / (n * p_k)).sum())

    @settings(max_examples=200, deadline=None)
    @given(
        inner=st.lists(st.floats(1e-9, 1.0 - 1e-9), min_size=1, max_size=8),
        n=st.integers(1, 60),
        on_edges=st.integers(0, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_histogram_counts(self, inner, n, on_edges, seed):
        cfg = Chi2Config((0.0, *sorted(set(inner)), 1.0))
        rng = np.random.default_rng(seed)
        # Random PITs, values exactly on the edges (0 and 1 included) and their neighbours.
        edges = np.asarray(cfg.bin_edges)
        hits = rng.choice(edges, on_edges)
        near = np.nextafter(hits, rng.choice([-1.0, 2.0], on_edges))
        u = rng.permutation(np.concatenate([rng.random(n), hits, near]))
        assert rb_statistic(u, cfg) == self.histogram_rb(u, cfg)

    @pytest.mark.parametrize(
        "edges", [(0.0, 0.2, 0.4, 0.6, 0.8, 1.0), (0.0, 0.5, 1.0), (0.0, 1e-3, 0.3, 0.31, 0.9, 1.0)]
    )
    def test_counts_on_fixed_configs(self, edges):
        cfg = Chi2Config(edges)
        u = np.concatenate([spawn_rng(12).random(300), edges, edges, [0.25, 0.999999]])
        assert rb_statistic(u, cfg) == self.histogram_rb(u, cfg)
