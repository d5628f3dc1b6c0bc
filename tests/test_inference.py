import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import graph_marginal_from_trace, random_graph, tv_distance
from graphpop import metrics
from graphpop.errors import (
    DomainError,
    EmptyTraceError,
    IndivisiblePopulationError,
    SpaceTooLargeError,
    StepTooLargeError,
)
from graphpop.graphs import GraphPopulation, LabelledGraph, enumerate_graph_space
from graphpop.inference import (
    CerCerHyper,
    ExponentialPrior,
    McmcConfig,
    SnSnHyper,
    Trace,
    TruncatedUniformPrior,
    _EmpiricalKernel,
    _flip,
    _MetricEngine,
    divide_and_conquer_fit,
    exact_posterior_cer,
    exact_posterior_snf,
    fit_cer_cer,
    fit_sn_sn,
    posterior_summary,
    reflected_walk,
    snf_mh_matrix,
    spawn_rng,
)
from graphpop.metrics import MetricSpec, hamming
from graphpop.models import (
    CerParams,
    SnfParams,
    cer_log_pmf,
    cer_sample,
    cer_to_snf_gamma,
    sample_frechet_mean,
    snf_exact,
)

HAMMING = MetricSpec(kind="hamming")
DIFFUSION = MetricSpec(kind="diffusion", t=1.0)


class _FakeRng:
    """Injects fixed step-size index and noise into reflected_walk."""

    def __init__(self, zeta):
        self.zeta = zeta

    def integers(self, n):
        return 0

    def uniform(self, lo, hi):
        return self.zeta


class TestReflectedWalk:
    def test_zero_noise_stays_put(self):
        assert reflected_walk(0.25, 0.0, 0.5, (0.3,), _FakeRng(0.0)) == 0.25

    def test_reflect_at_lower(self):
        # y = 0.05 - 0.1 = -0.05 reflects to 0.05.
        assert reflected_walk(0.05, 0.0, 0.5, (0.2,), _FakeRng(-0.1)) == pytest.approx(0.05)

    def test_reflect_at_upper(self):
        # y = 0.45 + 0.1 = 0.55 reflects to 1 - 0.55 = 0.45.
        assert reflected_walk(0.45, 0.0, 0.5, (0.2,), _FakeRng(0.1)) == pytest.approx(0.45)

    def test_unbounded_reflects_at_lower_only(self):
        assert reflected_walk(0.3, 0.0, None, (1.0,), _FakeRng(-0.5)) == pytest.approx(0.2)
        assert reflected_walk(0.3, 0.0, None, (1.0,), _FakeRng(0.9)) == pytest.approx(1.2)

    def test_step_too_large(self):
        with pytest.raises(StepTooLargeError):
            reflected_walk(0.25, 0.0, 0.5, (0.6,), _FakeRng(0.0))

    def test_requires_interior_start(self):
        with pytest.raises(DomainError):
            reflected_walk(0.0, 0.0, 0.5, (0.1,), _FakeRng(0.0))

    def test_symmetric_transition_density(self):
        # Monte Carlo check of q(y|x): the reflected-uniform mixture density is
        # symmetric in (x, y); compare empirical densities of small windows.
        rng = spawn_rng(123)
        x, y, h = 0.04, 0.11, 0.01
        ups = (0.05, 0.1)
        from_x = np.array([reflected_walk(x, 0.0, 0.5, ups, rng) for _ in range(200_000)])
        from_y = np.array([reflected_walk(y, 0.0, 0.5, ups, rng) for _ in range(200_000)])
        p_xy = np.mean(np.abs(from_x - y) < h)
        p_yx = np.mean(np.abs(from_y - x) < h)
        assert abs(p_xy - p_yx) < 0.005


class TestModeProposals:
    def test_flip_tiny_tau_is_identity(self):
        rng = spawn_rng(1)
        vec = random_graph(5, rng).to_vector()
        for _ in range(100):
            np.testing.assert_array_equal(_flip(vec, 1e-12, rng), vec)

    def test_flip_rate(self):
        rng = spawn_rng(2)
        vec = LabelledGraph(3, 0).to_vector()
        tau = 0.3
        flips = np.zeros(3)
        n = 100_000
        for _ in range(n):
            flips += _flip(vec, tau, rng)
        assert np.abs(flips / n - tau).max() < 3 * math.sqrt(tau * (1 - tau) / n)

    def test_flip_density_ratio_is_one(self):
        # q(g'|g) depends only on the flip count, which is symmetric.
        rng = spawn_rng(3)
        g1, g2 = random_graph(4, rng), random_graph(4, rng)
        tau = 0.2
        d = hamming(g1, g2)
        q12 = d * math.log(tau) + (6 - d) * math.log(1 - tau)
        q21 = hamming(g2, g1) * math.log(tau) + (6 - hamming(g2, g1)) * math.log(1 - tau)
        assert q12 == q21

    def test_empirical_identical_population(self):
        g = LabelledGraph.from_edges(3, [(0, 1), (1, 2)])
        pop = GraphPopulation((g, g, g))
        kernel = _EmpiricalKernel(pop.to_matrix())
        assert set(kernel.propose(spawn_rng(4))) <= {0, 1}
        # Clamping puts every frequency at 1/(2n) or 1 - 1/(2n) = 5/6.
        expected = 3 * math.log(5.0 / 6.0)
        assert kernel.log_q(g.to_vector()) == pytest.approx(expected, abs=1e-12)

    def test_empirical_self_consistency(self):
        rng = spawn_rng(5)
        pop = GraphPopulation(tuple(random_graph(4, rng) for _ in range(4)))
        freq = np.clip(pop.edge_frequencies(), 1 / 8, 7 / 8)
        kernel = _EmpiricalKernel(pop.to_matrix())
        v = kernel.propose(rng)
        direct = float((v * np.log(freq) + (1 - v) * np.log(1 - freq)).sum())
        assert kernel.log_q(v) == pytest.approx(direct, abs=1e-12)

    def test_empirical_frequency(self):
        g1 = LabelledGraph.from_edges(3, [(0, 1)])
        g2 = LabelledGraph.from_edges(3, [(0, 1)])
        g3 = LabelledGraph(3, 0)
        kernel = _EmpiricalKernel(GraphPopulation((g1, g2, g3)).to_matrix())
        rng = spawn_rng(6)
        hits = 0
        n = 30_000
        for _ in range(n):
            hits += int(kernel.propose(rng)[0])
        assert abs(hits / n - 2 / 3) < 0.01

    def test_mode_move_draws_from_the_chosen_kernel(self):
        pop = GraphPopulation(tuple(random_graph(4, spawn_rng(7, k)) for k in range(4)))
        kernel = _EmpiricalKernel(pop.to_matrix())
        mode = random_graph(4, spawn_rng(8)).to_vector()
        tau = 0.3
        for flip_weight in (1.0, 0.0):
            rng, ref = spawn_rng(9), spawn_rng(9)
            name, cand, log_corr = kernel.mode_move(mode, flip_weight, tau, rng)
            ref.random()  # the kernel-choice uniform
            if flip_weight == 1.0:
                assert name == "flip" and log_corr == 0.0
                np.testing.assert_array_equal(cand, _flip(mode, tau, ref))
            else:
                assert name == "empirical"
                np.testing.assert_array_equal(cand, kernel.propose(ref))
                assert log_corr == kernel.log_q(mode) - kernel.log_q(cand)
            assert rng.bit_generator.state == ref.bit_generator.state


def make_cer_data(seed=0, n=5, alpha=0.1):
    rng = spawn_rng(seed)
    mode = LabelledGraph.from_edges(3, [(0, 1), (1, 2)])
    pop = GraphPopulation(tuple(cer_sample(CerParams(mode, alpha), rng) for _ in range(n)))
    return mode, pop


class TestFitCerCer:
    def test_seed_determinism(self):
        mode, pop = make_cer_data()
        hyper = CerCerHyper(g0=mode, alpha0=0.1)
        cfg = McmcConfig(n_samples=500, burn_in=100, lag=2, seed=42)
        t1 = fit_cer_cer(pop, hyper, cfg)
        t2 = fit_cer_cer(pop, hyper, cfg)
        assert t1.graphs == t2.graphs
        assert np.array_equal(t1.params, t2.params)
        assert np.array_equal(t1.log_kernels, t2.log_kernels)
        assert t1.accept_counts == t2.accept_counts

    def test_degenerate_data_pins_mode(self):
        g = LabelledGraph.from_edges(3, [(0, 2)])
        pop = GraphPopulation((g,) * 10)
        hyper = CerCerHyper(g0=g, alpha0=0.01)
        trace = fit_cer_cer(pop, hyper, McmcConfig(n_samples=2000, burn_in=500, seed=1))
        assert posterior_summary(trace).mode_graph == g
        # Exact-posterior oracle agrees that g is the argmax.
        post = exact_posterior_cer(pop, hyper, np.linspace(0.01, 0.49, 97))
        assert int(np.argmax(post.graph_marginal)) == g.edge_bits

    def test_alpha_stays_in_domain(self):
        mode, pop = make_cer_data(seed=2)
        cfg = McmcConfig(n_samples=3000, burn_in=0, seed=3, step_sizes_upsilon=(0.2, 0.45))
        trace = fit_cer_cer(pop, CerCerHyper(g0=mode, alpha0=0.1), cfg)
        assert trace.params.min() > 0.0 and trace.params.max() < 0.5

    def test_flip_acceptance_strictly_inside_unit_interval(self):
        mode, pop = make_cer_data(seed=4)
        cfg = McmcConfig(n_samples=10_000, burn_in=0, seed=5)
        trace = fit_cer_cer(pop, CerCerHyper(g0=mode, alpha0=0.1), cfg)
        acc, prop = trace.accept_counts["flip"]
        assert 0 < acc < prop

    def test_counters_cover_all_iterations(self):
        mode, pop = make_cer_data(seed=6)
        cfg = McmcConfig(n_samples=400, burn_in=100, lag=3, seed=7)
        trace = fit_cer_cer(pop, CerCerHyper(g0=mode, alpha0=0.1), cfg)
        total = cfg.burn_in + cfg.n_samples * cfg.lag
        mode_props = trace.accept_counts["flip"][1] + trace.accept_counts["empirical"][1]
        assert mode_props == total
        assert trace.accept_counts["alpha_walk"][1] == total

    def test_oracle_tv_quick(self):
        mode, pop = make_cer_data(seed=8)
        hyper = CerCerHyper(g0=mode, alpha0=0.1)
        cfg = McmcConfig(n_samples=30_000, burn_in=1000, lag=1, seed=9)
        trace = fit_cer_cer(pop, hyper, cfg)
        grid = (np.arange(300) + 0.5) / 300 * 0.5
        post = exact_posterior_cer(pop, hyper, grid)
        assert tv_distance(graph_marginal_from_trace(trace, 8), post.graph_marginal) < 0.05

    def test_step_size_guard(self):
        mode, pop = make_cer_data(seed=10)
        cfg = McmcConfig(n_samples=10, step_sizes_upsilon=(0.7,), seed=0)
        with pytest.raises(StepTooLargeError):
            fit_cer_cer(pop, CerCerHyper(g0=mode, alpha0=0.1), cfg)

    def test_detailed_balance_flip_kernel(self):
        # pi(a) P(a->b) == pi(b) P(b->a) with P taken from the kernel algebra:
        # P(a->b) = q(b|a) min(1, pi(b)/pi(a)) and q symmetric in (a, b).
        mode, pop = make_cer_data(seed=11)
        hyper = CerCerHyper(g0=mode, alpha0=0.1)
        alpha = 0.17
        tau = 0.21
        space = enumerate_graph_space(3)
        log_pi = np.array(
            [
                cer_log_pmf(g, CerParams(hyper.g0, hyper.alpha0))
                + sum(cer_log_pmf(x, CerParams(g, alpha)) for x in pop)
                for g in space
            ]
        )
        pi = np.exp(log_pi - log_pi.max())
        pi /= pi.sum()
        for a in range(8):
            for b in range(8):
                if a == b:
                    continue
                d = (a ^ b).bit_count()
                q = tau**d * (1 - tau) ** (3 - d)
                flow_ab = pi[a] * q * min(1.0, pi[b] / pi[a])
                flow_ba = pi[b] * q * min(1.0, pi[a] / pi[b])
                assert abs(flow_ab - flow_ba) < 1e-10


class TestExactPosteriorCer:
    def test_normalization(self):
        mode, pop = make_cer_data(seed=12)
        post = exact_posterior_cer(pop, CerCerHyper(g0=mode, alpha0=0.1), np.linspace(0.05, 0.45, 41))
        assert post.joint.sum() == pytest.approx(1.0, abs=1e-10)

    def test_single_point_grid_is_conditional(self):
        mode, pop = make_cer_data(seed=13)
        hyper = CerCerHyper(g0=mode, alpha0=0.1)
        alpha = 0.2
        post = exact_posterior_cer(pop, hyper, [alpha])
        direct = np.array(
            [
                math.exp(
                    cer_log_pmf(g, CerParams(hyper.g0, hyper.alpha0))
                    + sum(cer_log_pmf(x, CerParams(g, alpha)) for x in pop)
                )
                for g in enumerate_graph_space(3)
            ]
        )
        direct /= direct.sum()
        assert np.abs(post.graph_marginal - direct).max() < 1e-12

    def test_argmax_matches_sample_frechet_mean_at_large_n(self):
        rng = spawn_rng(14)
        mode = random_graph(3, rng)
        params = CerParams(mode, 0.1)
        pop = GraphPopulation(tuple(cer_sample(params, rng) for _ in range(50)))
        hyper = CerCerHyper(g0=mode, alpha0=0.3)
        post = exact_posterior_cer(pop, hyper, np.linspace(0.02, 0.48, 93))
        argmax = enumerate_graph_space(3)[int(np.argmax(post.graph_marginal))]
        assert argmax == sample_frechet_mean(pop, HAMMING)

    def test_space_guard(self):
        g = LabelledGraph(5, 0)
        pop = GraphPopulation((g,))
        with pytest.raises(SpaceTooLargeError):
            exact_posterior_cer(pop, CerCerHyper(g0=g, alpha0=0.1), [0.1])

    def test_grid_domain(self):
        mode, pop = make_cer_data(seed=15)
        with pytest.raises(DomainError):
            exact_posterior_cer(pop, CerCerHyper(g0=mode, alpha0=0.1), [0.0, 0.2])


def make_snf_hyper(mode, metric=HAMMING, gamma0=1.0):
    return SnSnHyper(g0=mode, gamma0=gamma0, metric=metric)


SNF_UPS = (0.1, 0.4, 1.2)


class TestFitSnSn:
    def test_seed_determinism(self):
        mode, pop = make_cer_data(seed=20)
        hyper = make_snf_hyper(mode)
        cfg = McmcConfig(n_samples=300, burn_in=50, seed=21, step_sizes_upsilon=SNF_UPS)
        t1 = fit_sn_sn(pop, hyper, cfg, alpha_tilde=0.2)
        t2 = fit_sn_sn(pop, hyper, cfg, alpha_tilde=0.2)
        assert t1.graphs == t2.graphs
        assert np.array_equal(t1.params, t2.params)

    def test_gamma_stays_positive(self):
        mode, pop = make_cer_data(seed=22)
        cfg = McmcConfig(n_samples=3000, burn_in=0, seed=23, step_sizes_upsilon=(0.5, 2.0))
        trace = fit_sn_sn(pop, make_snf_hyper(mode), cfg, alpha_tilde=0.2)
        assert trace.params.min() > 0.0

    def test_truncated_uniform_prior_respected(self):
        mode, pop = make_cer_data(seed=24)
        hyper = SnSnHyper(g0=mode, gamma0=1.0, metric=HAMMING, gamma_prior=TruncatedUniformPrior(2.0))
        cfg = McmcConfig(n_samples=3000, burn_in=100, seed=25, step_sizes_upsilon=(0.3, 1.0))
        trace = fit_sn_sn(pop, hyper, cfg, alpha_tilde=0.2)
        assert trace.params.max() < 2.0
        assert trace.params.min() > 0.0

    def test_alpha_tilde_domain(self):
        mode, pop = make_cer_data(seed=26)
        cfg = McmcConfig(n_samples=10, seed=0)
        with pytest.raises(DomainError):
            fit_sn_sn(pop, make_snf_hyper(mode), cfg, alpha_tilde=0.7)

    def test_aux_chain_doubling_barely_moves_the_oracle_tv(self):
        # Doubling the inner auxiliary chains changes the oracle TV by < 0.03,
        # bounding the approximate-exchange bias at this scale.
        mode, pop = make_cer_data(seed=50)
        hyper = make_snf_hyper(mode, metric=DIFFUSION)
        grid = (np.arange(800) + 0.5) / 800 * 16.0
        post = exact_posterior_snf(pop, hyper, grid)
        tvs = []
        for aux in (60, 120):
            cfg = McmcConfig(
                n_samples=100_000, burn_in=2000, lag=1, seed=51,
                step_sizes_upsilon=SNF_UPS, aux_inner_steps=aux,
            )
            trace = fit_sn_sn(pop, hyper, cfg, alpha_tilde=0.2)
            tvs.append(tv_distance(graph_marginal_from_trace(trace, 8), post.graph_marginal))
        assert abs(tvs[0] - tvs[1]) < 0.03
        assert max(tvs) < 0.10

    def test_oracle_tv_quick_hamming(self):
        mode, pop = make_cer_data(seed=27)
        hyper = make_snf_hyper(mode)
        cfg = McmcConfig(n_samples=30_000, burn_in=1000, lag=1, seed=28, step_sizes_upsilon=SNF_UPS)
        trace = fit_sn_sn(pop, hyper, cfg, alpha_tilde=0.2)
        grid = (np.arange(600) + 0.5) / 600 * 16.0
        post = exact_posterior_snf(pop, hyper, grid)
        assert tv_distance(graph_marginal_from_trace(trace, 8), post.graph_marginal) < 0.07

    def test_matches_cer_fit_under_matched_priors(self):
        # With the Hamming metric, identity phi, and the gamma prior set to the
        # pushforward of the scaled Beta through gamma = log((1-a)/a), the SN/SN
        # posterior over modes coincides with the CER/CER posterior.
        mode, pop = make_cer_data(seed=29)
        a, b = 1.0, 9.0
        alpha0 = 0.1
        cer_hyper = CerCerHyper(g0=mode, alpha0=alpha0, beta_a=a, beta_b=b)
        cer_cfg = McmcConfig(n_samples=60_000, burn_in=2000, lag=1, seed=30)
        cer_trace = fit_cer_cer(pop, cer_hyper, cer_cfg)

        class LogitBetaPrior:
            def log_pdf(self, gamma):
                if gamma <= 0:
                    return -math.inf
                alpha = 1.0 / (1.0 + math.exp(gamma))
                base = cer_hyper.log_alpha_prior(alpha)
                jacobian = math.log(alpha * (1.0 - alpha))
                return base + jacobian

        snf_hyper = SnSnHyper(
            g0=mode,
            gamma0=cer_to_snf_gamma(alpha0),
            metric=HAMMING,
            gamma_prior=LogitBetaPrior(),
        )
        snf_cfg = McmcConfig(
            n_samples=60_000, burn_in=2000, lag=1, seed=31, step_sizes_upsilon=SNF_UPS
        )
        snf_trace = fit_sn_sn(pop, snf_hyper, snf_cfg, alpha_tilde=0.2)
        tv = tv_distance(
            graph_marginal_from_trace(cer_trace, 8), graph_marginal_from_trace(snf_trace, 8)
        )
        assert tv < 0.1


class TestExactPosteriorSnf:
    def test_normalization(self):
        mode, pop = make_cer_data(seed=32)
        post = exact_posterior_snf(pop, make_snf_hyper(mode), np.linspace(0.05, 10, 120))
        assert post.joint.sum() == pytest.approx(1.0, abs=1e-10)

    def test_hamming_z_drops_out_of_graph_conditionals(self):
        # Under Hamming, Z depends on gamma but not the mode, so at every gamma
        # the conditional posterior over graphs matches a Z-free computation.
        mode, pop = make_cer_data(seed=33)
        hyper = make_snf_hyper(mode)
        grid = np.linspace(0.05, 12, 50)
        post = exact_posterior_snf(pop, hyper, grid)

        space = enumerate_graph_space(3)
        d0 = np.array([hamming(g, hyper.g0) for g in space], dtype=float)
        dsum = np.array([sum(hamming(x, g) for x in pop) for g in space], dtype=float)
        joint = post.joint
        for j, gamma in enumerate(grid):
            z_free = np.exp(-hyper.gamma0 * d0 - gamma * dsum)
            z_free /= z_free.sum()
            conditional = joint[:, j] / joint[:, j].sum()
            assert np.abs(conditional - z_free).max() < 1e-10

    def test_concentrates_with_many_observations(self):
        rng = spawn_rng(34)
        mode = random_graph(3, rng)
        exact = snf_exact(SnfParams(mode, 2.0, HAMMING))
        bits = rng.choice(8, size=100, p=exact.probs)
        pop = GraphPopulation(tuple(LabelledGraph(3, int(b)) for b in bits))
        post = exact_posterior_snf(pop, make_snf_hyper(mode, gamma0=0.5), np.linspace(0.1, 10, 150))
        assert int(np.argmax(post.graph_marginal)) == mode.edge_bits
        assert post.graph_marginal.max() > 0.9


class TestPosteriorSummary:
    def _trace_of(self, graphs, params):
        return Trace(
            graphs=list(graphs),
            params=np.asarray(params, dtype=float),
            log_kernels=np.zeros(len(params)),
            param_name="alpha",
            n_vertices=graphs[0].n_vertices,
        )

    def test_constant_trace(self):
        g = LabelledGraph.from_edges(3, [(0, 1)])
        summ = posterior_summary(self._trace_of([g] * 10, [0.1] * 10))
        assert summ.mode_graph == g
        assert summ.frequencies[0][1] == 1.0

    def test_interval_is_empirical_quantiles(self):
        g = LabelledGraph(3, 0)
        params = np.linspace(0.01, 0.4, 101)
        summ = posterior_summary(self._trace_of([g] * 101, params), level=0.9)
        assert summ.interval[0] == pytest.approx(np.quantile(params, 0.05))
        assert summ.interval[1] == pytest.approx(np.quantile(params, 0.95))

    def test_frequency_table_sums_to_one(self):
        rng = spawn_rng(35)
        graphs = [random_graph(3, rng) for _ in range(200)]
        summ = posterior_summary(self._trace_of(graphs, np.full(200, 0.2)))
        assert sum(f for _, f in summ.frequencies) == pytest.approx(1.0)

    def test_empty_trace(self):
        with pytest.raises(EmptyTraceError):
            posterior_summary(
                Trace([], np.zeros(0), np.zeros(0), "alpha", 3)
            )


class TestDivideAndConquer:
    def test_single_subset_reduces_to_plain_fit(self):
        mode, pop = make_cer_data(seed=36, n=6)
        hyper = make_snf_hyper(mode)
        cfg = McmcConfig(n_samples=400, burn_in=100, seed=37, step_sizes_upsilon=SNF_UPS)
        direct = fit_sn_sn(pop, hyper, cfg, alpha_tilde=0.2)
        combined = divide_and_conquer_fit(pop, hyper, cfg, 1, alpha_tilde=0.2)
        assert combined.subset_traces[0].graphs == direct.graphs
        assert np.array_equal(combined.subset_traces[0].params, direct.params)
        assert combined.mode == posterior_summary(direct).mode_graph

    def test_identical_subsets_agree(self):
        g = LabelledGraph.from_edges(3, [(0, 1)])
        pop = GraphPopulation((g,) * 8)
        hyper = make_snf_hyper(g, gamma0=3.0)
        cfg = McmcConfig(n_samples=500, burn_in=200, seed=38, step_sizes_upsilon=SNF_UPS)
        result = divide_and_conquer_fit(pop, hyper, cfg, 2, alpha_tilde=0.05)
        assert result.mode == g
        assert all(m == g for m in result.subset_modes)

    def test_indivisible_population(self):
        mode, pop = make_cer_data(seed=39, n=5)
        with pytest.raises(IndivisiblePopulationError):
            divide_and_conquer_fit(pop, make_snf_hyper(mode), McmcConfig(n_samples=10), 2)

    def test_gamma_recentring_and_scaling(self):
        mode, pop = make_cer_data(seed=40, n=6)
        hyper = make_snf_hyper(mode)
        cfg = McmcConfig(n_samples=300, burn_in=100, seed=41, step_sizes_upsilon=SNF_UPS)
        result = divide_and_conquer_fit(pop, hyper, cfg, 2, alpha_tilde=0.2)
        grand_mean = np.mean([t.params.mean() for t in result.subset_traces])
        assert result.gamma_samples.mean() == pytest.approx(grand_mean, abs=1e-9)
        sds = np.array([t.params.std(ddof=1) for t in result.subset_traces])
        pooled = math.sqrt((sds**2).mean())
        # Each rescaled subset has spread pooled/sqrt(k).
        half = len(result.gamma_samples) // 2
        first = result.gamma_samples[:half]
        assert first.std(ddof=1) == pytest.approx(pooled / math.sqrt(2), rel=1e-9)

    def test_recovers_truth_at_n10(self):
        # Truth recovery across replicates: combined mode stays within Hamming
        # distance 2 of the generating mode in at least 90% of 20 replicates.
        hits = 0
        reps = 20
        for r in range(reps):
            rng = spawn_rng(4200 + r)
            truth = random_graph(10, rng, p=0.2)
            alpha = 0.05
            gamma = cer_to_snf_gamma(alpha)
            pop = GraphPopulation(
                tuple(cer_sample(CerParams(truth, alpha), rng) for _ in range(30))
            )
            hyper = SnSnHyper(g0=truth, gamma0=gamma, metric=HAMMING)
            cfg = McmcConfig(
                n_samples=150,
                burn_in=150,
                lag=1,
                seed=4300 + r,
                step_sizes_upsilon=(0.2, 0.8),
                aux_inner_steps=200,
            )
            result = divide_and_conquer_fit(pop, hyper, cfg, 5, alpha_tilde=alpha)
            if hamming(result.mode, truth) <= 2:
                hits += 1
        assert hits >= 18


def _reference_snf_mh(mode_vec, gamma, metric, n_vertices, n_chains, steps, tau, rng, start=None):
    """The large-N flip-kernel step loop with one distance per chain and step.

    Every chain is evaluated at every step, empty proposals included, with each
    distance computed graph by graph through ``MetricSpec.distance``.
    """
    mode = LabelledGraph.from_vector(n_vertices, mode_vec)

    def dist_to(mat):
        return np.array(
            [metric.distance(LabelledGraph.from_vector(n_vertices, row), mode) for row in mat]
        )

    ne = mode_vec.shape[0]
    states = np.tile(mode_vec, (n_chains, 1)) if start is None else start.copy()
    d = dist_to(states)
    phi = metric.apply_phi
    block = max(1, min(steps, (1 << 22) // max(1, n_chains * ne)))
    done = 0
    while done < steps:
        m = min(block, steps - done)
        masks = (rng.random((m, n_chains, ne)) < tau).astype(np.uint8)
        logu = np.log(rng.random((m, n_chains)))
        for t in range(m):
            cand = states ^ masks[t]
            dc = dist_to(cand)
            acc = logu[t] < -gamma * (phi(dc) - phi(d))
            states[acc] = cand[acc]
            d[acc] = dc[acc]
        done += m
    return states, d


class TestSnfMhMatrixLargePath:
    N_VERTICES, N_CHAINS, STEPS = 8, 6, 40
    TAU = 1.0 / 28  # 1/N_e at N = 8: about e^-1 of the proposals flip nothing

    @pytest.mark.parametrize(
        "metric, gamma",
        [
            (HAMMING, 1.0),
            (DIFFUSION, 4.0),
            (MetricSpec(kind="diffusion", t=0.5, phi="square"), 20.0),
        ],
    )
    @pytest.mark.parametrize("with_start", [False, True])
    def test_matches_reference_step_loop(self, metric, gamma, with_start):
        rng = spawn_rng(31)
        mode_vec = random_graph(self.N_VERTICES, rng, p=0.3).to_vector()
        start = None
        if with_start:
            start = np.stack(
                [random_graph(self.N_VERTICES, rng).to_vector() for _ in range(self.N_CHAINS)]
            )
        engine = _MetricEngine(metric, self.N_VERTICES)
        assert not engine.small
        args = (self.N_CHAINS, self.STEPS, self.TAU)

        masks = spawn_rng(32).random((self.STEPS, self.N_CHAINS, 28)) < self.TAU
        flips = masks.any(axis=2)
        assert flips.any() and not flips.all()

        states, d = snf_mh_matrix(mode_vec, gamma, engine, *args, spawn_rng(32), start)
        ref_states, ref_d = _reference_snf_mh(
            mode_vec, gamma, metric, self.N_VERTICES, *args, spawn_rng(32), start
        )
        assert states.dtype == np.uint8
        assert np.array_equal(states, ref_states)
        assert np.array_equal(d, ref_d)
        initial = np.tile(mode_vec, (self.N_CHAINS, 1)) if start is None else start
        assert not np.array_equal(states, initial)

    def test_diffusion_chain_caches_only_the_mode_kernel(self):
        rng = spawn_rng(33)
        mode_vec = random_graph(self.N_VERTICES, rng, p=0.3).to_vector()
        engine = _MetricEngine(DIFFUSION, self.N_VERTICES)
        metrics._heat_kernel_cached.cache_clear()
        snf_mh_matrix(mode_vec, 4.0, engine, self.N_CHAINS, self.STEPS, self.TAU, rng)
        assert metrics._heat_kernel_cached.cache_info().currsize <= 1
