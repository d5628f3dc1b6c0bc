"""The CLI's config plumbing: schemas to study configs, manifests, exit codes."""

import json

import numpy as np
import pytest

from conftest import random_graph
from graphpop import cli
from graphpop import errors, inference
from graphpop import io as gio
from graphpop.cli import main
from graphpop.diagnostics import EdgeCount, MeanDegree
from graphpop.errors import DomainError
from graphpop.experiments import StudyConfig, prediction_study
from graphpop.graphs import ErdosRenyi, GraphPopulation, LabelledGraph, StochasticBlockModel
from graphpop.inference import McmcConfig, Trace, spawn_rng
from graphpop.metrics import MetricSpec


def _write_cfg(path, values: dict):
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    return path


def _as_json(values: dict) -> dict:
    return json.loads(json.dumps(values))


def _manifest(out) -> dict:
    return json.loads((out / "manifest.json").read_text())


def _population_file(tmp_path, n_graphs=4, n_vertices=4, seed=0):
    rng = spawn_rng(seed)
    pop = GraphPopulation(tuple(random_graph(n_vertices, rng, p=0.3) for _ in range(n_graphs)))
    path = tmp_path / "pop.ndjson"
    gio.write_population(pop, str(path))
    return path


# Every StudyConfig field that is an experiment key of the same name, each set
# to a value other than its default and other than every other value here, so
# a key delivered to the wrong field shows.
_MAPPED = {
    "model": "snf",
    "n_vertices": 7,
    "sample_sizes": (2, 4),
    "n_replicates": 3,
    "epsilons": (0.5, 1.5),
    "delta": 0.1,
    "seed": 9,
    "data_alpha": 0.02,
    "data_gamma": 2.5,
    "alpha_tilde": 0.2,
    "test_size": 4,
    "n_predictive": 6,
    "misspecification": "metric",
    "persist_p": 0.8,
    "flip_p": 0.3,
    "ppc_draws": 150,
    "chi2_sims": 20,
    "chi2_max_draws": 8,
    "nominal_level": 0.07,
    "chi2_threshold": 0.4,
}


def _capture_study(monkeypatch):
    seen = []

    def study(cfg):
        seen.append(cfg)
        return [{"n": 1}]

    monkeypatch.setattr(cli, "_STUDIES", {"concentration": study})
    return seen


class TestExperimentConfig:
    def test_every_mapped_key_reaches_the_study(self, tmp_path, monkeypatch):
        seen = _capture_study(monkeypatch)
        values = {
            "study": "concentration",
            **{k: ",".join(map(str, v)) if isinstance(v, tuple) else v for k, v in _MAPPED.items()},
            "generator": "sbm",
            "n_blocks": 2,
            "membership_probs": "0.25,0.75",
            "within_p": 0.3,
            "between_p": 0.05,
            "metric": "diffusion",
            "t": 0.5,
            "phi": "square",
            "n_samples": 11,
            "burn_in": 13,
            "lag": 3,
            "tau": 0.125,
            "kernel_mix_weight": 0.6,
            "upsilons": "0.01,0.04",
            "aux_inner_steps": 17,
            "statistics": "edge_count, mean_degree",
            "threads": 2,
        }
        cfg = _write_cfg(tmp_path / "study.cfg", values)
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        (got,) = seen
        assert StudyConfig.__dataclass_fields__.keys() == set(_MAPPED) | {
            "generator", "metric", "mcmc", "statistics", "n_threads"
        }
        for name, value in _MAPPED.items():
            assert getattr(got, name) == value, name
        assert got.generator == StochasticBlockModel(2, (0.25, 0.75), 0.3, 0.05)
        assert got.metric == MetricSpec(kind="diffusion", t=0.5, phi="square")
        assert got.mcmc == McmcConfig(
            n_samples=11,
            burn_in=13,
            lag=3,
            flip_prob_tau=0.125,
            kernel_mix_weight=0.6,
            step_sizes_upsilon=(0.01, 0.04),
            aux_inner_steps=17,
            seed=9,
        )
        assert got.statistics == (EdgeCount(), MeanDegree())
        assert got.n_threads == 2

    def test_threads_flag_overrides_the_config(self, tmp_path, monkeypatch):
        seen = _capture_study(monkeypatch)
        cfg = _write_cfg(tmp_path / "study.cfg", {"study": "concentration", "threads": 2})
        argv = ["experiment", "--config", str(cfg), "--out", str(tmp_path / "o"), "--threads", "3"]
        assert main(argv) == 0
        assert seen[0].n_threads == 3
        assert _manifest(tmp_path / "o")["config"]["threads"] == 3

    def test_defaults_match_the_study_defaults(self, tmp_path, monkeypatch):
        seen = _capture_study(monkeypatch)
        cfg = _write_cfg(tmp_path / "study.cfg", {"study": "concentration"})
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert seen[0] == StudyConfig(generator=ErdosRenyi(0.1))


class TestConfigManifests:
    """The manifest config of a config-driven command is its parsed config."""

    def test_simulate(self, tmp_path):
        values = {
            "kind": "sbm", "n_vertices": 6, "n_graphs": 2, "n_blocks": 2, "membership_probs": "0.5,0.5"
        }
        cfg = _write_cfg(tmp_path / "sim.cfg", values)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        parsed = gio.read_config(str(cfg), gio.SIM_SCHEMA)
        parsed["out"] = str(out)
        manifest = _manifest(out)
        assert manifest["config"] == _as_json(parsed)
        assert manifest["config"]["membership_probs"] == [0.5, 0.5]
        assert manifest["config_hash"] == gio.config_hash(_as_json(parsed))

    def test_fit_cer(self, tmp_path):
        data = _population_file(tmp_path)
        out = tmp_path / "o"
        values = {"data": data, "out": out, "n_samples": 5, "burn_in": 5, "upsilons": "0.01,0.05"}
        cfg = _write_cfg(tmp_path / "fit.cfg", values)
        assert main(["fit-cer", "--config", str(cfg)]) == 0
        parsed = gio.read_config(str(cfg))
        manifest = _manifest(out)
        assert manifest["config"] == _as_json(parsed)
        assert manifest["config"]["upsilons"] == [0.01, 0.05]
        assert manifest["seed"] == parsed["seed"]

    def test_experiment(self, tmp_path):
        values = {
            "study": "concentration", "n_vertices": 4, "sample_sizes": 3, "n_replicates": 1,
            "n_samples": 5, "burn_in": 5, "lag": 1, "seed": 2,
        }
        cfg = _write_cfg(tmp_path / "study.cfg", values)
        out = tmp_path / "o"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        parsed = gio.read_config(str(cfg), gio.EXPERIMENT_SCHEMA)
        parsed["out"] = str(out)
        manifest = _manifest(out)
        assert manifest["config"] == _as_json(parsed)
        assert manifest["config"]["sample_sizes"] == [3]
        assert manifest["seed"] == 2


class TestFlagManifests:
    """Flag-driven commands record every parsed argument in their manifest."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["frechet"], {"metric": "hamming", "t": 1.0}),
            (["distances", "--metric", "diffusion", "--t", "0.5"], {"metric": "diffusion", "t": 0.5}),
            (["mds", "--dim", "3"], {"metric": "diffusion", "t": 1.0, "dim": 3}),
        ],
    )
    def test_population_commands(self, tmp_path, argv, expected):
        data = _population_file(tmp_path, n_graphs=5)
        out = tmp_path / "o"
        assert main(argv + ["--data", str(data), "--out", str(out)]) == 0
        manifest = _manifest(out)
        assert manifest["config"] == {"data": str(data), "out": str(out), **expected}
        assert manifest["seed"] == 0

    def test_diagnose_records_its_chi2_knobs_and_output(self, tmp_path):
        rng = spawn_rng(4)
        mode = LabelledGraph.from_edges(4, [(0, 1), (2, 3)])
        trace = Trace(
            graphs=[mode] * 20,
            params=np.full(20, 0.1),
            log_kernels=np.zeros(20),
            param_name="alpha",
            n_vertices=4,
            config=McmcConfig(n_samples=20),
        )
        trace_path = tmp_path / "trace.ndjson"
        gio.write_trace(trace, str(trace_path))
        pop = GraphPopulation(tuple(random_graph(4, rng, p=0.3) for _ in range(6)))
        data = tmp_path / "pop.ndjson"
        gio.write_population(pop, str(data))
        out = tmp_path / "o"
        argv = [
            "diagnose", "--data", str(data), "--trace", str(trace_path), "--model", "cer",
            "--stat", "edge_count", "--k", "100", "--chi2-sims", "12", "--max-draws", "3",
            "--seed", "5", "--out", str(out),
        ]
        assert main(argv) == 0
        manifest = _manifest(out)
        assert manifest["config"] == {
            "data": str(data), "trace": str(trace_path), "model": "cer", "stat": "edge_count",
            "metric": "hamming", "t": 1.0, "k": 100, "chi2_sims": 12, "max_draws": 3,
            "seed": 5, "out": str(out),
        }
        assert manifest["seed"] == 5


_RUNTIME = (
    errors.EigDecompositionFailureError,
    errors.InternalInconsistencyError,
    errors.NonFiniteLogRatioError,
)


def _package_errors():
    return sorted(
        (
            cls
            for cls in vars(errors).values()
            if isinstance(cls, type) and issubclass(cls, errors.GraphPopError)
            and cls is not errors.GraphPopError
        ),
        key=lambda cls: cls.__name__,
    )


def _instance(cls):
    exc = cls.__new__(cls)
    Exception.__init__(exc, "boom")
    return exc


class TestExitCodes:
    def _run_raising(self, monkeypatch, tmp_path, exc):
        def command(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_frechet", command)
        return main(["frechet", "--data", str(tmp_path / "d"), "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize(
        "exc, code",
        [
            (errors.NonFiniteLogRatioError("nan"), 2),
            (errors.EigDecompositionFailureError("eigh"), 2),
            (errors.DomainError("domain"), 1),
            (errors.SchemaError("bad", field="n"), 1),
            (ValueError("value"), 1),
            (OSError("io"), 1),
            (RuntimeError("unexpected"), 2),
        ],
        ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
    )
    def test_code_and_one_json_line(self, monkeypatch, tmp_path, capsys, exc, code):
        assert self._run_raising(monkeypatch, tmp_path, exc) == code
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert json.loads(line) == {"error": type(exc).__name__, "message": str(exc)}

    @pytest.mark.parametrize("cls", _package_errors(), ids=lambda cls: cls.__name__)
    def test_only_runtime_failures_exit_two(self, monkeypatch, tmp_path, capsys, cls):
        expected = 2 if cls in _RUNTIME else 1
        assert self._run_raising(monkeypatch, tmp_path, _instance(cls)) == expected


class TestPredictionAtZeroContourRadius:
    """At data_alpha = 0.005 on N = 4, Binomial(6, 0.005) puts 0.97 on the mode."""

    def test_library_raises_domain_error(self):
        cfg = StudyConfig(
            generator=ErdosRenyi(0.3), n_vertices=4, data_alpha=0.005, sample_sizes=(3,),
            n_replicates=1, test_size=3, n_predictive=3,
        )
        with pytest.raises(DomainError, match="rho_delta = 0"):
            prediction_study(cfg)

    def test_cli_exits_one_with_one_json_line(self, tmp_path, capsys):
        values = {
            "study": "prediction", "p": 0.3, "n_vertices": 4, "data_alpha": 0.005,
            "sample_sizes": 3, "n_replicates": 1, "test_size": 3, "n_predictive": 3,
        }
        cfg = _write_cfg(tmp_path / "study.cfg", values)
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        parsed = json.loads(line)
        assert parsed["error"] == "DomainError"
        assert "rho_delta = 0" in parsed["message"]
        assert "delta" in parsed["message"] and "data_alpha" in parsed["message"]


class TestDiagnoseCommand:
    """diagnose bounds its chi-squared knobs and replays the fitted model."""

    def _inputs(self, tmp_path, config):
        g = LabelledGraph.from_edges(4, [(0, 1), (2, 3)])
        trace = Trace(
            graphs=[g] * 10, params=np.full(10, 2.0), log_kernels=np.zeros(10),
            param_name="gamma", n_vertices=4, config=config,
        )
        trace_path = tmp_path / "trace.ndjson"
        gio.write_trace(trace, str(trace_path))
        return _population_file(tmp_path, n_graphs=6), trace_path

    def _argv(self, tmp_path, data, trace_path, *extra):
        return [
            "diagnose", "--data", str(data), "--trace", str(trace_path), "--model", "snf",
            "--stat", "edge_count", "--k", "100", "--chi2-sims", "10", "--max-draws", "2",
            "--out", str(tmp_path / "o"), *extra,
        ]

    @pytest.mark.parametrize(
        "flag, value", [("--chi2-sims", "0"), ("--chi2-sims", "9"), ("--max-draws", "0")]
    )
    def test_rejects_out_of_range_knobs_before_any_work(self, tmp_path, capsys, flag, value):
        data, trace_path = self._inputs(tmp_path, McmcConfig(n_samples=10))
        assert main(self._argv(tmp_path, data, trace_path, flag, value)) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        parsed = json.loads(line)
        assert parsed["error"] == "ConfigError" and flag in parsed["message"]
        assert not (tmp_path / "o").exists()

    def test_replicates_use_the_header_inner_chain_knobs(self, tmp_path, monkeypatch):
        data, trace_path = self._inputs(
            tmp_path, McmcConfig(n_samples=10, aux_inner_steps=7, flip_prob_tau=0.25)
        )
        seen = []
        real = inference.snf_mh_matrix

        def spy(mode_vec, gamma, engine, n_chains, steps, tau, rng):
            seen.append((steps, tau))
            return real(mode_vec, gamma, engine, n_chains, steps, tau, rng)

        monkeypatch.setattr(inference, "snf_mh_matrix", spy)
        assert main(self._argv(tmp_path, data, trace_path)) == 0
        assert len(seen) == 100 + 2
        assert set(seen) == {(7, 0.25)}

    def test_phi_reaches_the_replicate_metric(self, tmp_path, monkeypatch):
        data, trace_path = self._inputs(tmp_path, McmcConfig(n_samples=10, aux_inner_steps=5))
        metrics = []

        def spying(func):
            def wrapper(*args, **kwargs):
                metrics.append(kwargs["metric"])
                return func(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(cli, "posterior_predictive_check", spying(cli.posterior_predictive_check))
        monkeypatch.setattr(cli, "bayes_chi2", spying(cli.bayes_chi2))
        assert main(self._argv(tmp_path, data, trace_path, "--phi", "square")) == 0
        assert metrics == [MetricSpec(kind="hamming", phi="square")] * 2
        assert _manifest(tmp_path / "o")["config"]["phi"] == "square"
