"""One entry point for drawing populations from a fitted model, and its callers."""

import json
from functools import partial

import numpy as np
import pytest

from conftest import random_graph
from graphpop import inference, metrics
from graphpop import io as gio
from graphpop.cli import main
from graphpop.diagnostics import Chi2Config, EdgeCount, bayes_chi2, posterior_predictive_check
from graphpop.errors import DomainError
from graphpop.experiments import StudyConfig, model_contour_radius
from graphpop.graphs import ErdosRenyi, GraphPopulation, LabelledGraph
from graphpop.inference import (
    CerCerHyper,
    McmcConfig,
    Trace,
    _MetricEngine,
    fit_cer_cer,
    plugin_alpha_tilde,
    sample_matrix,
    snf_mh_matrix,
    spawn_rng,
)
from graphpop.metrics import MetricSpec
from graphpop.models import CerParams, SnfParams, cer_sample, cer_sample_matrix

DEFAULT = McmcConfig(n_samples=0)
EXPLICIT = McmcConfig(n_samples=0, aux_inner_steps=9, flip_prob_tau=0.2)


class TestSampleMatrix:
    @pytest.mark.parametrize("n_vertices", [4, 8])
    @pytest.mark.parametrize("mcmc", [DEFAULT, EXPLICIT], ids=["default", "explicit"])
    def test_cer_is_cer_sample_matrix(self, n_vertices, mcmc):
        params = CerParams(random_graph(n_vertices, spawn_rng(1)), 0.1)
        got = sample_matrix(params, 7, spawn_rng(2), mcmc)
        assert np.array_equal(got, cer_sample_matrix(params, 7, spawn_rng(2)))

    @pytest.mark.parametrize("n_vertices", [4, 8])
    @pytest.mark.parametrize("kind", ["hamming", "diffusion"])
    @pytest.mark.parametrize(
        "mcmc, steps_tau",
        [(DEFAULT, None), (EXPLICIT, (9, 0.2))],
        ids=["default", "explicit"],
    )
    def test_snf_is_a_chain_from_the_mode(self, n_vertices, kind, mcmc, steps_tau):
        mode = random_graph(n_vertices, spawn_rng(3))
        metric = MetricSpec(kind=kind)
        ne = mode.n_pairs
        steps, tau = steps_tau if steps_tau is not None else (20 * ne, 1.0 / ne)
        got = sample_matrix(SnfParams(mode, 1.5, metric), 5, spawn_rng(4), mcmc)
        engine = _MetricEngine(metric, n_vertices)
        want, _ = snf_mh_matrix(mode.to_vector(), 1.5, engine, 5, steps, tau, spawn_rng(4))
        assert got.dtype == np.uint8 and got.shape == (5, ne)
        assert np.array_equal(got, want)

    def test_hamming_snf_at_n50_has_the_binomial_distance_law(self):
        # With identity phi the Hamming SNF is CER with alpha = 1/(1 + e^gamma),
        # so each draw's distance to the mode is Binomial(N_e, alpha). The mean
        # of 20 draws from default-length inner chains (20 N_e steps) must sit
        # within |z| <= 4 of it, the bound the benchmark applies to `simulate`.
        mode = random_graph(50, spawn_rng(5), p=0.1)
        ne, gamma = mode.n_pairs, 4.6
        params = SnfParams(mode, gamma, MetricSpec("hamming"))
        draws = sample_matrix(params, 20, spawn_rng(6), DEFAULT)
        mean = (draws != mode.to_vector()).sum(axis=1).mean()
        alpha = 1.0 / (1.0 + np.exp(gamma))
        z = (mean - ne * alpha) / np.sqrt(ne * alpha * (1.0 - alpha) / 20)
        assert abs(z) <= 4.0

    def test_cer_needs_no_flip_probability_without_vertex_pairs(self):
        params = CerParams(LabelledGraph(1, 0), 0.1)
        assert sample_matrix(params, 3, spawn_rng(0), DEFAULT).shape == (3, 0)
        with pytest.raises(DomainError):
            sample_matrix(SnfParams(LabelledGraph(1, 0), 1.0), 3, spawn_rng(0), DEFAULT)


def _count_draws(monkeypatch):
    calls = {"cer": 0, "snf": 0}
    real_cer, real_snf = inference.cer_sample_matrix, inference.snf_mh_matrix

    def cer_spy(*args, **kwargs):
        calls["cer"] += 1
        return real_cer(*args, **kwargs)

    def snf_spy(*args, **kwargs):
        calls["snf"] += 1
        return real_snf(*args, **kwargs)

    monkeypatch.setattr(inference, "cer_sample_matrix", cer_spy)
    monkeypatch.setattr(inference, "snf_mh_matrix", snf_spy)
    return calls


class TestOneDrawPerPopulation:
    @pytest.mark.parametrize("model", ["cer", "snf"])
    def test_ppc_draws_each_replicate_population_once(self, monkeypatch, model):
        rng = spawn_rng(5)
        mode = random_graph(5, rng, p=0.3)
        pop = GraphPopulation(tuple(cer_sample(CerParams(mode, 0.1), rng) for _ in range(4)))
        trace = fit_cer_cer(pop, CerCerHyper(g0=mode, alpha0=0.1), McmcConfig(n_samples=5))
        calls = _count_draws(monkeypatch)
        params_of = CerParams if model == "cer" else partial(SnfParams, metric=MetricSpec())
        mcmc = McmcConfig(n_samples=0, aux_inner_steps=5)
        posterior_predictive_check(trace, params_of, pop, EdgeCount(), 100, spawn_rng(6), mcmc)
        assert calls == {"cer": 100 if model == "cer" else 0, "snf": 100 if model == "snf" else 0}

    @pytest.mark.parametrize("kind", ["cer", "snf"])
    def test_cli_simulate_draws_once(self, monkeypatch, tmp_path, kind):
        mode = tmp_path / "mode.csv"
        gio.write_adjacency_csv(random_graph(5, spawn_rng(7)), str(mode))
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"kind={kind}\nn_vertices=5\nn_graphs=6\nmode={mode}\ninner_steps=4\n")
        calls = _count_draws(monkeypatch)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert calls == {"cer": int(kind == "cer"), "snf": int(kind == "snf")}
        assert len(gio.read_population(str(tmp_path / "out" / "population.ndjson"))) == 6


class TestContourRadius:
    def test_diffusion_radius_reuses_the_chain_distances(self):
        metric = MetricSpec(kind="diffusion", t=1.0)
        cfg = StudyConfig(
            generator=ErdosRenyi(0.3),
            model="snf",
            n_vertices=7,
            metric=metric,
            data_gamma=2.0,
            mcmc=McmcConfig(n_samples=1, aux_inner_steps=30),
        )
        truth = random_graph(7, spawn_rng(8), p=0.3)
        metrics._heat_kernel_cached.cache_clear()
        radius = model_contour_radius(cfg, truth, spawn_rng(9))
        assert metrics._heat_kernel_cached.cache_info().currsize <= 1

        draws = sample_matrix(SnfParams(truth, 2.0, metric), 2000, spawn_rng(9), cfg.mcmc)
        dists = [metric.distance(LabelledGraph.from_vector(7, row), truth) for row in draws]
        assert radius == float(np.quantile(dists, 1.0 - cfg.delta))


class TestCerDiagnosticsWithoutVertexPairs:
    ONE = LabelledGraph(1, 0)
    POP = GraphPopulation((ONE,) * 5)

    def trace(self):
        cfg = McmcConfig(n_samples=5, flip_prob_tau=0.3)
        return fit_cer_cer(self.POP, CerCerHyper(g0=self.ONE, alpha0=0.1), cfg)

    def test_cer_ppc_and_chi2_run(self):
        trace = self.trace()
        ppc = posterior_predictive_check(trace, CerParams, self.POP, EdgeCount(), 100, spawn_rng(1))
        assert ppc.eta0 == 0.0 and ppc.tail_prob == 1.0
        chi2 = bayes_chi2(trace, CerParams, self.POP, EdgeCount(), Chi2Config(), spawn_rng(2), n_sims=10)
        assert chi2.rb_values.shape == (5,)

    def test_snf_ppc_still_needs_a_flip_probability(self):
        with pytest.raises(DomainError):
            posterior_predictive_check(
                self.trace(), partial(SnfParams, metric=MetricSpec()), self.POP, EdgeCount(), 100,
                spawn_rng(1),
            )


def test_plugin_alpha_tilde_is_the_clipped_pre_fit_mean():
    rng = spawn_rng(10)
    mode = random_graph(5, rng, p=0.3)
    pop = GraphPopulation(tuple(cer_sample(CerParams(mode, 0.1), rng) for _ in range(4)))
    hyper, cfg = CerCerHyper(g0=mode, alpha0=0.1), McmcConfig(n_samples=20, burn_in=10, seed=3)
    want = float(np.clip(fit_cer_cer(pop, hyper, cfg).params.mean(), 1e-6, 0.5 - 1e-6))
    assert plugin_alpha_tilde(pop, hyper, cfg) == want


@pytest.mark.parametrize("command", ["fit-cer", "fit-sn"])
def test_fit_config_rejects_threads(tmp_path, capsys, command):
    data = tmp_path / "pop.ndjson"
    gio.write_population(GraphPopulation((LabelledGraph(3, 1),) * 3), str(data))
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(f"data={data}\nthreads=2\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    parsed = json.loads(capsys.readouterr().err.strip())
    assert parsed["error"] == "ConfigError" and "threads" in parsed["message"]


class TestTraceConfigFields:
    CFG = McmcConfig(
        n_samples=2,
        burn_in=3,
        lag=4,
        flip_prob_tau=0.25,
        kernel_mix_weight=0.5,
        step_sizes_upsilon=(0.1, 0.3),
        aux_inner_steps=11,
        seed=12,
    )
    HEADER_CONFIG = (
        '"config":{"aux_inner_steps":11,"burn_in":3,"flip_prob_tau":0.25,'
        '"kernel_mix_weight":0.5,"lag":4,"n_samples":2,"seed":12,"step_sizes_upsilon":[0.1,0.3]}'
    )

    def write(self, tmp_path, cfg):
        trace = Trace(
            graphs=[LabelledGraph(3, 5), LabelledGraph(3, 1)],
            params=np.array([0.1, 0.2]),
            log_kernels=np.array([-1.0, -2.0]),
            param_name="gamma",
            n_vertices=3,
            config=cfg,
        )
        path = tmp_path / "trace.ndjson"
        gio.write_trace(trace, str(path))
        return path

    def test_roundtrip_and_header_layout(self, tmp_path):
        path = self.write(tmp_path, self.CFG)
        assert gio.read_trace(str(path)).config == self.CFG
        assert self.HEADER_CONFIG in path.read_text().splitlines()[0]

    def test_extra_keys_ignored_missing_keys_fail(self, tmp_path):
        path = self.write(tmp_path, self.CFG)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["config"]["unknown"] = 1
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        assert gio.read_trace(str(path)).config == self.CFG
        del header["config"]["seed"]
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(KeyError):
            gio.read_trace(str(path))
