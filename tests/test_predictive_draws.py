"""One posterior-predictive draw path for the PPC, the Bayesian chi-squared and
the prediction study.

The reference functions below are the per-draw loops the diagnostics ran
before they shared ``predictive_draws``: one ``sample_matrix`` call per kept
sample, and in the chi-squared each population drawn before its randomized PIT
takes uniforms from the same generator. The shared path must reproduce them
exactly, down to the generator state it leaves behind.
"""

import json

import numpy as np
import pytest

from conftest import random_graph
from graphpop import experiments
from graphpop.cli import main
from graphpop.diagnostics import (
    Chi2Config,
    DegreeQuantile,
    EdgeCount,
    MeanDegree,
    bayes_chi2,
    bayes_chi2_checks,
    posterior_predictive_check,
    posterior_predictive_checks,
    predictive_draws,
    randomized_pit,
    rb_statistic,
    statistic_values,
)
from graphpop.errors import DomainError, InvalidSpecError
from graphpop.experiments import StudyConfig, robustness_study
from graphpop.graphs import ErdosRenyi, GraphPopulation, LabelledGraph
from graphpop.inference import McmcConfig, Trace, derive_seed, sample_matrix, spawn_rng
from graphpop.metrics import MetricSpec
from graphpop.models import CerParams, SnfParams


def _params(model, mode, theta, metric):
    return CerParams(mode, theta) if model == "cer" else SnfParams(mode, theta, metric)


def _reference_ppc(trace, model, pop, stat, k_draws, rng, metric=None, inner_steps=None, tau=None):
    knobs = McmcConfig(n_samples=0, flip_prob_tau=tau, aux_inner_steps=inner_steps)
    n_vertices = pop.n_vertices
    idx = rng.integers(len(trace), size=k_draws)
    draws = np.empty(k_draws)
    for out_i, trace_i in enumerate(idx):
        params = _params(model, trace.graphs[trace_i], float(trace.params[trace_i]), metric)
        rep = sample_matrix(params, len(pop), rng, knobs)
        draws[out_i] = float(statistic_values(stat, rep, n_vertices).mean())
    return draws


def _reference_chi2(
    trace, model, pop, stat, cfg, rng, metric=None, n_sims=500, max_draws=None,
    inner_steps=None, tau=None,
):
    knobs = McmcConfig(n_samples=0, flip_prob_tau=tau, aux_inner_steps=inner_steps)
    n_vertices = pop.n_vertices
    y_obs = statistic_values(stat, pop.to_matrix(), n_vertices)
    if max_draws is not None and len(trace) > max_draws:
        draw_idx = rng.integers(len(trace), size=max_draws)
    else:
        draw_idx = np.arange(len(trace))
    rb = np.empty(len(draw_idx))
    for out_i, trace_i in enumerate(draw_idx):
        params = _params(model, trace.graphs[trace_i], float(trace.params[trace_i]), metric)
        sims = sample_matrix(params, n_sims, rng, knobs)
        u = randomized_pit(y_obs, statistic_values(stat, sims, n_vertices), rng)
        rb[out_i] = rb_statistic(u, cfg)
    return rb


def _trace_and_pop(model, n_vertices, seed):
    """A hand-made trace of varied modes and scalars, and a population of 6."""
    rng = spawn_rng(seed)
    graphs = [random_graph(n_vertices, rng, p=0.4) for _ in range(8)]
    lo, hi = (0.05, 0.3) if model == "cer" else (0.5, 3.0)
    trace = Trace(
        graphs=graphs,
        params=rng.uniform(lo, hi, size=8),
        log_kernels=np.zeros(8),
        param_name="alpha" if model == "cer" else "gamma",
        n_vertices=n_vertices,
    )
    pop = GraphPopulation(tuple(random_graph(n_vertices, rng, p=0.4) for _ in range(6)))
    return trace, pop


# (model, N, metric, inner-chain knobs): CER, SNF Hamming on the N <= 5 table
# path at the default knobs, and SNF diffusion on the large path.
CASES = [
    ("cer", 8, None, {}),
    ("snf", 5, MetricSpec(kind="hamming"), {}),
    ("snf", 7, MetricSpec(kind="diffusion", t=1.0), {"inner_steps": 15, "tau": 0.1}),
]
IDS = ["cer-n8", "snf-hamming-n5", "snf-diffusion-n7"]


@pytest.mark.parametrize("model, n_vertices, metric, knobs", CASES, ids=IDS)
class TestSameStreamAsThePerDrawLoops:
    @pytest.mark.parametrize("stat", [DegreeQuantile(0.9), EdgeCount()], ids=["q0.9", "edges"])
    def test_ppc_draws(self, model, n_vertices, metric, knobs, stat):
        trace, pop = _trace_and_pop(model, n_vertices, 1)
        rng, ref_rng = spawn_rng(2), spawn_rng(2)
        got = posterior_predictive_check(trace, model, pop, stat, 100, rng, metric=metric, **knobs)
        want = _reference_ppc(trace, model, pop, stat, 100, ref_rng, metric=metric, **knobs)
        assert got.draws.dtype == want.dtype
        assert np.array_equal(got.draws, want)
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("max_draws", [None, 5], ids=["every-draw", "subsampled"])
    def test_chi2_rb_values(self, model, n_vertices, metric, knobs, max_draws):
        trace, pop = _trace_and_pop(model, n_vertices, 3)
        cfg = Chi2Config((0.0, 1 / 3, 2 / 3, 1.0))
        rng, ref_rng = spawn_rng(4), spawn_rng(4)
        kwargs = dict(metric=metric, n_sims=12, max_draws=max_draws, **knobs)
        got = bayes_chi2(trace, model, pop, DegreeQuantile(0.5), cfg, rng, **kwargs)
        want = _reference_chi2(trace, model, pop, DegreeQuantile(0.5), cfg, ref_rng, **kwargs)
        assert got.rb_values.dtype == want.dtype
        assert np.array_equal(got.rb_values, want)
        assert rng.random() == ref_rng.random()

    def test_draws_are_direct_sample_matrix_calls(self, model, n_vertices, metric, knobs):
        trace, _ = _trace_and_pop(model, n_vertices, 5)
        mcmc = McmcConfig(
            n_samples=0, aux_inner_steps=knobs.get("inner_steps"), flip_prob_tau=knobs.get("tau")
        )
        idx = [3, 0, 3, 7]

        def params_of(mode, theta):
            return _params(model, mode, theta, metric)

        got = list(predictive_draws(trace, idx, params_of, 4, spawn_rng(6), mcmc))
        rng = spawn_rng(6)
        want = [
            sample_matrix(params_of(trace.graphs[i], float(trace.params[i])), 4, rng, mcmc)
            for i in idx
        ]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_predictive_draws_are_lazy():
    trace, _ = _trace_and_pop("cer", 6, 7)
    calls = []

    def params_of(mode, theta):
        calls.append(theta)
        return CerParams(mode, theta)

    draws = predictive_draws(trace, [0, 1, 2], params_of, 2, spawn_rng(8), McmcConfig(n_samples=0))
    assert calls == []
    next(draws)
    assert calls == [float(trace.params[0])]


class TestAtLeastTwoBins:
    def test_one_bin_is_a_domain_error(self):
        with pytest.raises(DomainError, match="two bins"):
            Chi2Config((0.0, 1.0))

    def test_two_bins_are_enough(self):
        assert Chi2Config((0.0, 0.5, 1.0)).n_bins == 2

    def _cfg(self):
        return StudyConfig(
            generator=ErdosRenyi(0.3), n_vertices=4, sample_sizes=(3, 1), n_replicates=1,
            mcmc=McmcConfig(n_samples=5, burn_in=5, lag=1),
        )

    def test_robustness_rejects_a_sample_size_of_one_before_any_replicate(self, monkeypatch):
        def no_replicates(cfg, worker):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(experiments, "_run_replicates", no_replicates)
        with pytest.raises(InvalidSpecError, match="at least 2"):
            robustness_study(self._cfg())

    def test_cli_exits_one_with_one_json_line(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(
            "study=robustness\nn_vertices=4\nsample_sizes=1\nn_replicates=1\n"
            "n_samples=5\nburn_in=5\nlag=1\n"
        )
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        parsed = json.loads(line)
        assert parsed["error"] == "InvalidSpecError" and "at least 2" in parsed["message"]
        assert not (tmp_path / "o" / "study.csv").exists()


# ---------------------------------------------------------------------------
# Several statistics share one replicate population per posterior draw
# ---------------------------------------------------------------------------


def _reference_shared_ppc(
    trace, model, pop, stats, k_draws, rng, metric=None, inner_steps=None, tau=None
):
    """Per draw, one ``sample_matrix`` population on which every statistic is evaluated."""
    knobs = McmcConfig(n_samples=0, flip_prob_tau=tau, aux_inner_steps=inner_steps)
    n_vertices = pop.n_vertices
    idx = rng.integers(len(trace), size=k_draws)
    draws = np.empty((len(stats), k_draws))
    for out_i, trace_i in enumerate(idx):
        params = _params(model, trace.graphs[trace_i], float(trace.params[trace_i]), metric)
        rep = sample_matrix(params, len(pop), rng, knobs)
        for s_i, stat in enumerate(stats):
            draws[s_i, out_i] = float(statistic_values(stat, rep, n_vertices).mean())
    return draws


def _reference_shared_chi2(
    trace, model, pop, stats, cfg, rng, metric=None, n_sims=500, max_draws=None,
    inner_steps=None, tau=None,
):
    """Per draw, one simulated population, then one PIT vector per statistic in order."""
    knobs = McmcConfig(n_samples=0, flip_prob_tau=tau, aux_inner_steps=inner_steps)
    n_vertices = pop.n_vertices
    y_obs = [statistic_values(stat, pop.to_matrix(), n_vertices) for stat in stats]
    if max_draws is not None and len(trace) > max_draws:
        draw_idx = rng.integers(len(trace), size=max_draws)
    else:
        draw_idx = np.arange(len(trace))
    rb = np.empty((len(stats), len(draw_idx)))
    for out_i, trace_i in enumerate(draw_idx):
        params = _params(model, trace.graphs[trace_i], float(trace.params[trace_i]), metric)
        sims = sample_matrix(params, n_sims, rng, knobs)
        for s_i, stat in enumerate(stats):
            u = randomized_pit(y_obs[s_i], statistic_values(stat, sims, n_vertices), rng)
            rb[s_i, out_i] = rb_statistic(u, cfg)
    return rb


TWO_STATS = (DegreeQuantile(0.9), EdgeCount())
THREE_STATS = (DegreeQuantile(0.1), MeanDegree(), DegreeQuantile(0.5))


@pytest.mark.parametrize("model, n_vertices, metric, knobs", CASES, ids=IDS)
class TestStatisticsShareOneReplicatePerDraw:
    @pytest.mark.parametrize("stats", [TWO_STATS, THREE_STATS], ids=["two", "three"])
    def test_ppc_draws(self, model, n_vertices, metric, knobs, stats):
        trace, pop = _trace_and_pop(model, n_vertices, 1)
        rng, ref_rng = spawn_rng(2), spawn_rng(2)
        got = posterior_predictive_checks(
            trace, model, pop, stats, 100, rng, metric=metric, **knobs
        )
        want = _reference_shared_ppc(trace, model, pop, stats, 100, ref_rng, metric=metric, **knobs)
        assert len(got) == len(stats)
        for stat, res, draws in zip(stats, got, want):
            assert np.array_equal(res.draws, draws)
            assert res.eta0 == float(statistic_values(stat, pop.to_matrix(), n_vertices).mean())
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("max_draws", [None, 5], ids=["every-draw", "subsampled"])
    def test_chi2_rb_values(self, model, n_vertices, metric, knobs, max_draws):
        trace, pop = _trace_and_pop(model, n_vertices, 3)
        cfg = Chi2Config((0.0, 1 / 3, 2 / 3, 1.0))
        rng, ref_rng = spawn_rng(4), spawn_rng(4)
        kwargs = dict(metric=metric, n_sims=12, max_draws=max_draws, **knobs)
        got = bayes_chi2_checks(trace, model, pop, THREE_STATS, cfg, rng, **kwargs)
        want = _reference_shared_chi2(trace, model, pop, THREE_STATS, cfg, ref_rng, **kwargs)
        assert len(got) == len(THREE_STATS)
        for res, rb in zip(got, want):
            assert np.array_equal(res.rb_values, rb)
        assert rng.random() == ref_rng.random()


def _reference_robustness(cfg):
    """The study as a loop of one predictive check and one chi-squared per statistic in turn."""
    knobs = dict(inner_steps=cfg.mcmc.aux_inner_steps, tau=cfg.mcmc.flip_prob_tau)
    rows = []
    for n in cfg.sample_sizes:
        chi2_cfg = Chi2Config(tuple(np.linspace(0.0, 1.0, min(5, n) + 1)))
        results = []
        for r in range(cfg.n_replicates):
            rng = spawn_rng(derive_seed(cfg.seed, n, r))
            truth, pop = experiments._misspecified_data(cfg, n, rng)
            g0_vec = sample_matrix(CerParams(truth, cfg.data_alpha), 1, rng, cfg.mcmc)[0]
            g0 = LabelledGraph.from_vector(cfg.n_vertices, g0_vec)
            trace = experiments._fit_once(cfg, pop, g0, derive_seed(cfg.seed, n, r, 1))
            out = {}
            for stat in cfg.statistics:
                ppc = posterior_predictive_check(
                    trace, cfg.model, pop, stat, cfg.ppc_draws, rng, **knobs
                )
                chi2 = bayes_chi2(
                    trace, cfg.model, pop, stat, chi2_cfg, rng,
                    n_sims=cfg.chi2_sims, max_draws=cfg.chi2_max_draws, **knobs,
                )
                out[stat.name] = (
                    ppc.tail_prob < cfg.nominal_level,
                    chi2.exceedance_fraction > cfg.chi2_threshold,
                )
            results.append(out)
        for stat in cfg.statistics:
            rows.append(
                {
                    "model": cfg.model,
                    "misspecification": cfg.misspecification,
                    "n": n,
                    "statistic": stat.name,
                    "ppc_rejection_rate": float(np.mean([res[stat.name][0] for res in results])),
                    "chi2_rejection_rate": float(np.mean([res[stat.name][1] for res in results])),
                }
            )
    return rows


@pytest.mark.parametrize("n_threads", [1, 2])
def test_one_statistic_robustness_rows_equal_the_per_statistic_loop(n_threads):
    cfg = StudyConfig(
        generator=ErdosRenyi(0.3),
        n_vertices=12,
        sample_sizes=(3, 6),
        n_replicates=3,
        misspecification="dependence",
        persist_p=0.9,
        statistics=(DegreeQuantile(0.9),),
        ppc_draws=100,
        chi2_sims=20,
        chi2_max_draws=8,
        data_alpha=0.05,
        seed=21,
        mcmc=McmcConfig(n_samples=30, burn_in=100, lag=2),
        n_threads=n_threads,
    )
    want = _reference_robustness(cfg)
    assert robustness_study(cfg) == want
    # Some replicate rejects, so the rows are not all-zero by construction.
    assert any(row["chi2_rejection_rate"] > 0 for row in want)
