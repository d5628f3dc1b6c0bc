"""Inner-chain defaults, their validation, and the samplers' acceptance bookkeeping."""

from dataclasses import replace

import pytest

from conftest import random_graph
from graphpop import diagnostics, inference
from graphpop.diagnostics import (
    Chi2Config,
    DegreeQuantile,
    EdgeCount,
    bayes_chi2,
    posterior_predictive_check,
)
from graphpop.errors import DomainError
from graphpop.experiments import StudyConfig, robustness_study
from graphpop.graphs import ErdosRenyi, GraphPopulation, LabelledGraph
from graphpop.inference import (
    CerCerHyper,
    McmcConfig,
    SnSnHyper,
    fit_cer_cer,
    fit_sn_sn,
    spawn_rng,
)
from graphpop.metrics import MetricSpec
from graphpop.models import CerParams, cer_sample


def small_fit(seed=0, n_vertices=6, n=6):
    rng = spawn_rng(seed)
    mode = random_graph(n_vertices, rng, p=0.3)
    pop = GraphPopulation(tuple(cer_sample(CerParams(mode, 0.1), rng) for _ in range(n)))
    cfg = McmcConfig(n_samples=20, burn_in=20, seed=seed)
    return mode, pop, fit_cer_cer(pop, CerCerHyper(g0=mode, alpha0=0.1), cfg)


class TestInnerChainKnobs:
    @pytest.mark.parametrize("knobs", [{"tau": 0.0}, {"tau": 1.0}, {"inner_steps": 0}])
    def test_ppc_rejects_invalid_knobs(self, knobs):
        _, pop, trace = small_fit()
        with pytest.raises(DomainError):
            posterior_predictive_check(
                trace, "snf", pop, EdgeCount(), 100, spawn_rng(1),
                metric=MetricSpec(), **knobs,
            )

    @pytest.mark.parametrize("knobs", [{"tau": -0.5}, {"tau": 1.5}, {"inner_steps": -3}])
    def test_chi2_rejects_invalid_knobs(self, knobs):
        _, pop, trace = small_fit()
        with pytest.raises(DomainError):
            bayes_chi2(
                trace, "cer", pop, EdgeCount(), Chi2Config(), spawn_rng(2), **knobs
            )

    def test_robustness_study_simulates_with_configured_inner_chains(self, monkeypatch):
        seen = []
        real = inference.snf_mh_matrix

        def spy(mode_vec, gamma, engine, n_chains, steps, tau, rng, start=None):
            seen.append((steps, tau))
            return real(mode_vec, gamma, engine, n_chains, steps, tau, rng, start)

        monkeypatch.setattr(diagnostics, "snf_mh_matrix", spy)
        monkeypatch.setattr(inference, "snf_mh_matrix", spy)
        cfg = StudyConfig(
            generator=ErdosRenyi(0.3),
            model="snf",
            n_vertices=5,
            sample_sizes=(3,),
            n_replicates=1,
            misspecification="none",
            statistics=(DegreeQuantile(0.5),),
            ppc_draws=100,
            chi2_sims=10,
            chi2_max_draws=2,
            alpha_tilde=0.1,
            mcmc=McmcConfig(n_samples=3, burn_in=2, aux_inner_steps=7, flip_prob_tau=0.25),
        )
        rows = robustness_study(cfg)
        assert len(rows) == 1
        # Data (1 call), fit (1 + 5 iterations), PPC (100 draws), chi-squared (2 draws).
        assert len(seen) == 109
        assert set(seen) == {(7, 0.25)}


class TestNoVertexPairs:
    """One vertex means N_e = 0, where the default tau = 1/N_e does not exist."""

    ONE = LabelledGraph(1, 0)
    POP = GraphPopulation((ONE, ONE, ONE))
    CFG = McmcConfig(n_samples=5)

    def test_resolved_tau_raises_only_for_the_default(self):
        with pytest.raises(DomainError):
            self.CFG.resolved_tau(0)
        assert McmcConfig(n_samples=5, flip_prob_tau=0.3).resolved_tau(0) == 0.3

    def test_fit_cer_cer(self):
        with pytest.raises(DomainError):
            fit_cer_cer(self.POP, CerCerHyper(g0=self.ONE, alpha0=0.1), self.CFG)

    def test_fit_sn_sn(self):
        with pytest.raises(DomainError):
            fit_sn_sn(self.POP, SnSnHyper(g0=self.ONE, gamma0=1.0), self.CFG, 0.1)


class TestAcceptanceBookkeeping:
    def test_all_kernels_reported_as_python_ints(self):
        mode, pop, _ = small_fit(seed=3)
        flip_only = McmcConfig(n_samples=5, burn_in=5, kernel_mix_weight=1.0, seed=4)
        traces = {
            ("flip", "empirical", "alpha_walk"): fit_cer_cer(
                pop, CerCerHyper(g0=mode, alpha0=0.1), flip_only
            ),
            ("flip", "empirical"): fit_sn_sn(
                pop,
                SnSnHyper(g0=mode, gamma0=2.0),
                replace(flip_only, step_sizes_upsilon=(0.1, 0.4), aux_inner_steps=20),
                0.1,
            ),
        }
        for kernels, trace in traces.items():
            assert tuple(trace.accept_counts) == kernels
            for acc, prop in trace.accept_counts.values():
                assert type(acc) is int and type(prop) is int
                assert 0 <= acc <= prop
            assert trace.accept_counts["flip"][1] == 10
            if "empirical" in kernels:
                assert trace.accept_counts["empirical"] == (0, 0)
            assert len(trace) == 5 and trace.params.shape == trace.log_kernels.shape == (5,)

    def test_zero_iterations_keep_nothing(self):
        mode, pop, _ = small_fit(seed=5)
        trace = fit_cer_cer(pop, CerCerHyper(g0=mode, alpha0=0.1), McmcConfig(n_samples=0))
        assert len(trace) == 0 and trace.params.shape == (0,)
        assert trace.accept_counts == {"flip": (0, 0), "empirical": (0, 0), "alpha_walk": (0, 0)}

