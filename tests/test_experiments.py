import math

import numpy as np
import pytest
from scipy import stats as sstats

from graphpop.diagnostics import DegreeQuantile
from graphpop.errors import DomainError, InvalidSpecError
from graphpop.experiments import (
    StudyConfig,
    binomial_quantile,
    concentration_study,
    derive_seed,
    dynamic_markov_sample,
    majority_vote_comparison,
    model_contour_radius,
    prediction_study,
    robustness_study,
)
from graphpop.graphs import ErdosRenyi, LabelledGraph
from graphpop.inference import McmcConfig, spawn_rng
from graphpop.metrics import MetricSpec


def small_cfg(**overrides):
    defaults = dict(
        generator=ErdosRenyi(0.2),
        model="cer",
        n_vertices=10,
        sample_sizes=(3,),
        n_replicates=4,
        epsilons=(1.0, 2.0),
        delta=0.05,
        seed=7,
        data_alpha=0.05,
        mcmc=McmcConfig(n_samples=150, burn_in=600, lag=2),
    )
    defaults.update(overrides)
    return StudyConfig(**defaults)


class TestDynamicMarkovSample:
    def test_full_persistence_copies_initial_graph(self):
        g = LabelledGraph.from_edges(4, [(0, 1), (2, 3)])
        pop = dynamic_markov_sample(g, 1.0, 0.3, 5, spawn_rng(0))
        assert len(pop) == 5
        assert all(x == g for x in pop)

    def test_no_persistence_gives_iid_uniform_bits(self):
        g = LabelledGraph(5, 0)
        pop = dynamic_markov_sample(g, 0.0, 0.5, 3000, spawn_rng(1))
        mat = pop.to_matrix()[1:].astype(float)  # skip the deterministic start
        assert abs(mat.mean() - 0.5) < 0.01
        lag1 = np.corrcoef(mat[:-1].ravel(), mat[1:].ravel())[0, 1]
        assert abs(lag1) < 0.02

    def test_lag1_agreement_matches_chain_algebra(self):
        # Agreement rate = persist + (1 - persist) * P(fresh bit equals old);
        # with flip_p = 0.5 the resample agrees half the time regardless of the
        # current bit, so the rate is persist + (1 - persist) / 2.
        g = LabelledGraph(5, 0)
        persist = 0.7
        pop = dynamic_markov_sample(g, persist, 0.5, 4000, spawn_rng(2))
        mat = pop.to_matrix()
        agree = (mat[:-1] == mat[1:]).mean()
        expected = persist + (1 - persist) * 0.5
        assert abs(agree - expected) < 0.01

    def test_probability_domain(self):
        g = LabelledGraph(3, 0)
        with pytest.raises(DomainError):
            dynamic_markov_sample(g, 1.2, 0.5, 3, spawn_rng(3))


class TestModelContourRadius:
    def test_cer_radius_is_exact_binomial_quantile(self):
        cfg = small_cfg(n_vertices=50, data_alpha=0.01, delta=0.1)
        truth = LabelledGraph(50, 0)
        rho = model_contour_radius(cfg, truth, spawn_rng(4))
        # Independent oracle: smallest r with a directly summed Binomial CDF
        # reaching 1 - delta.
        ne = 1225
        log_p, log_q = math.log(0.01), math.log(0.99)
        cdf = 0.0
        r = 0
        while True:
            log_pmf = (
                math.lgamma(ne + 1)
                - math.lgamma(r + 1)
                - math.lgamma(ne - r + 1)
                + r * log_p
                + (ne - r) * log_q
            )
            cdf += math.exp(log_pmf)
            if cdf >= 0.9:
                break
            r += 1
        assert rho == float(r) == 17.0
        assert rho == float(sstats.binom.ppf(0.9, ne, 0.01))


class TestConcentrationStudy:
    def test_noise_free_data_concentrates_fully(self):
        cfg = small_cfg(data_alpha=1e-6, n_replicates=3)
        rows = concentration_study(cfg)
        for row in rows:
            assert row["fraction_concentrated"] == 1.0
            assert row["mean_mode_distance"] == 0.0

    def test_rows_schema_and_determinism(self):
        cfg = small_cfg()
        rows1 = concentration_study(cfg)
        rows2 = concentration_study(cfg)
        assert rows1 == rows2
        assert len(rows1) == len(cfg.sample_sizes) * len(cfg.epsilons)
        assert set(rows1[0]) == {
            "n",
            "generator",
            "epsilon",
            "fraction_concentrated",
            "ci_half_width",
            "mean_mode_distance",
        }

    def test_thread_pool_matches_serial(self):
        cfg = small_cfg()
        serial = concentration_study(cfg)
        threaded = concentration_study(small_cfg(n_threads=3))
        assert serial == threaded

    def test_mean_mode_distance_nonincreasing_in_n(self):
        cfg = small_cfg(
            n_vertices=20,
            sample_sizes=(3, 10),
            n_replicates=10,
            epsilons=(1.0,),
            data_alpha=0.05,
            seed=73,
            mcmc=McmcConfig(n_samples=200, burn_in=2000, lag=2),
        )
        rows = concentration_study(cfg)
        dist_by_n = {r["n"]: r["mean_mode_distance"] for r in rows}
        assert dist_by_n[10] <= dist_by_n[3] + 0.1


class TestMajorityVoteComparison:
    def test_even_n_rejected(self):
        with pytest.raises(InvalidSpecError):
            majority_vote_comparison(small_cfg(sample_sizes=(4,)))

    def test_noise_free_both_hit(self):
        rows = majority_vote_comparison(small_cfg(data_alpha=1e-6, n_replicates=3))
        for row in rows:
            assert row["majority_vote_fraction"] == 1.0
            assert row["model_fraction"] == 1.0

    def test_estimators_close_on_easy_regime(self):
        rows = majority_vote_comparison(
            small_cfg(sample_sizes=(5,), n_replicates=6, epsilons=(2.0,))
        )
        row = rows[0]
        assert abs(row["majority_vote_fraction"] - row["model_fraction"]) <= 0.5

    def test_er_n5_both_estimators_accurate_at_full_size(self):
        # Easy regime at N=50: both estimators land within Hamming 1 of the
        # truth in at least 90% of replicates.
        cfg = small_cfg(
            generator=ErdosRenyi(0.1),
            n_vertices=50,
            sample_sizes=(5,),
            n_replicates=20,
            epsilons=(1.0,),
            data_alpha=0.01,
            seed=71,
            mcmc=McmcConfig(n_samples=250, burn_in=6000, lag=4),
        )
        rows = majority_vote_comparison(cfg)
        assert rows[0]["majority_vote_fraction"] >= 0.9
        assert rows[0]["model_fraction"] >= 0.9

    def test_rgg_n3_estimators_within_tenth(self):
        from graphpop.graphs import RandomGeometric

        cfg = small_cfg(
            generator=RandomGeometric(0.175),
            n_vertices=50,
            sample_sizes=(3,),
            n_replicates=50,
            epsilons=(1.0,),
            data_alpha=0.01,
            seed=72,
            mcmc=McmcConfig(n_samples=250, burn_in=6000, lag=4),
        )
        rows = majority_vote_comparison(cfg)
        gap = abs(rows[0]["majority_vote_fraction"] - rows[0]["model_fraction"])
        assert gap <= 0.1


class TestPredictionStudy:
    def test_rho_integer_for_cer(self):
        cfg = small_cfg(
            n_vertices=20,
            sample_sizes=(3,),
            n_replicates=3,
            delta=0.1,
            data_alpha=0.05,
            test_size=10,
            n_predictive=20,
        )
        rows = prediction_study(cfg)
        rho = rows[0]["rho_delta"]
        assert rho == float(sstats.binom.ppf(0.9, 190, 0.05))

    def test_ratio_in_sane_range_at_moderate_n(self):
        cfg = small_cfg(
            n_vertices=20,
            sample_sizes=(10,),
            n_replicates=4,
            delta=0.1,
            data_alpha=0.05,
            test_size=20,
            n_predictive=20,
            mcmc=McmcConfig(n_samples=150, burn_in=1000, lag=2),
        )
        rows = prediction_study(cfg)
        assert 0.8 <= rows[0]["ratio"] <= 2.0


class TestRobustnessStudy:
    def test_correctly_specified_calibration_smoke(self):
        cfg = small_cfg(
            misspecification="none",
            sample_sizes=(10,),
            n_replicates=8,
            statistics=(DegreeQuantile(0.5),),
            ppc_draws=150,
            chi2_sims=200,
            chi2_max_draws=40,
        )
        rows = robustness_study(cfg)
        assert rows[0]["ppc_rejection_rate"] <= 0.25
        assert rows[0]["chi2_rejection_rate"] <= 0.25

    def test_rows_cover_statistics_and_sizes(self):
        cfg = small_cfg(
            misspecification="dependence",
            sample_sizes=(5, 7),
            n_replicates=2,
            statistics=(DegreeQuantile(0.1), DegreeQuantile(0.9)),
            ppc_draws=100,
            chi2_sims=100,
            chi2_max_draws=20,
        )
        rows = robustness_study(cfg)
        assert len(rows) == 4
        assert {r["n"] for r in rows} == {5, 7}

    def test_center_statistic_is_the_less_sensitive_one(self):
        # Misspecification is hardest to see from the middle of the degree
        # distribution: with weak evidence (n=3) the median statistic stays
        # near nominal, and at every n its rejection rate does not exceed the
        # upper-tail statistic's.
        cfg = small_cfg(
            n_vertices=50,
            misspecification="dependence",
            sample_sizes=(3, 50),
            n_replicates=20,
            statistics=(DegreeQuantile(0.5), DegreeQuantile(0.9)),
            ppc_draws=150,
            chi2_sims=200,
            chi2_max_draws=40,
            data_alpha=0.01,
            seed=74,
            persist_p=0.9,
            flip_p=0.5,
            mcmc=McmcConfig(n_samples=250, burn_in=6000, lag=4),
        )
        rows = robustness_study(cfg)
        by_key = {(r["n"], r["statistic"]): r for r in rows}
        assert by_key[(3, "degree_q0.5")]["ppc_rejection_rate"] <= 0.15
        for n in (3, 50):
            assert (
                by_key[(n, "degree_q0.5")]["ppc_rejection_rate"]
                <= by_key[(n, "degree_q0.9")]["ppc_rejection_rate"]
            )
        # Strong dependence at n=50 is detectable by both statistics here; the
        # published near-zero center rates at n=50 are not reproduced by this
        # concrete generator (its parameters were never fully specified).

    def test_metric_arm_generates_from_other_family(self):
        cfg = small_cfg(
            misspecification="metric",
            sample_sizes=(5,),
            n_replicates=2,
            statistics=(DegreeQuantile(0.5),),
            ppc_draws=100,
            chi2_sims=100,
            chi2_max_draws=20,
            data_gamma=5.0,
            mcmc=McmcConfig(n_samples=100, burn_in=400, lag=1, aux_inner_steps=120),
        )
        rows = robustness_study(cfg)
        assert rows[0]["misspecification"] == "metric"


class TestStudyConfigValidation:
    def test_domains(self):
        with pytest.raises(InvalidSpecError):
            small_cfg(n_replicates=0)
        with pytest.raises(InvalidSpecError):
            small_cfg(delta=1.5)
        with pytest.raises(InvalidSpecError):
            small_cfg(epsilons=(0.0,))
        with pytest.raises(InvalidSpecError):
            small_cfg(model="other")

    def test_derive_seed_is_deterministic_and_keyed(self):
        assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
        assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)

    def test_resolved_gamma_default_matches_alpha(self):
        cfg = small_cfg(data_alpha=0.2)
        assert cfg.resolved_gamma == pytest.approx(math.log(0.8 / 0.2))


class TestBinomialQuantile:
    @pytest.mark.parametrize("n", [1, 6, 45, 190, 1225])
    @pytest.mark.parametrize("p", [1e-4, 0.01, 0.05, 0.3, 0.4999])
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.95, 0.999])
    def test_equals_scipy_ppf(self, n, p, q):
        assert binomial_quantile(q, n, p) == sstats.binom.ppf(q, n, p)

    def test_level_one_is_n(self):
        # 1 - delta rounds to 1.0 for delta < 1.1e-16; the summed CDF reaches
        # 1.0 by rounding at k = 29 here, but only k = n has CDF 1.
        assert binomial_quantile(1.0 - 1e-17, 30, 0.3) == sstats.binom.ppf(1.0, 30, 0.3) == 30
