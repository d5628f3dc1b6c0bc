"""Input that cannot describe a run is refused before any draw.

A ``gamma0`` outside the gamma prior's support, a fit config asking for no
samples, a ``diagnose --k`` below the predictive check's bound and an
``mds --dim`` outside what the population spans each exit 1 with one JSON
error line, where they used to run on and report meaningless results or fail
later with a misleading error; none of them leaves an output directory.
"""

import json

import pytest

from conftest import random_graph
from graphpop import cli, diagnostics, inference
from graphpop.cli import main
from graphpop.errors import DomainError
from graphpop.graphs import GraphPopulation
from graphpop.inference import (
    McmcConfig,
    SnSnHyper,
    TruncatedUniformPrior,
    fit_sn_sn,
    spawn_rng,
)
from test_cli_config import _population_file


def _error(capsys) -> dict:
    (line,) = capsys.readouterr().err.strip().splitlines()
    return json.loads(line)


class TestGammaStartInPriorSupport:
    def test_library_raises_before_priming_the_chain(self, monkeypatch):
        rng = spawn_rng(1)
        pop = GraphPopulation(tuple(random_graph(4, rng, p=0.3) for _ in range(5)))
        hyper = SnSnHyper(g0=pop[0], gamma0=1.0, gamma_prior=TruncatedUniformPrior(0.5))
        drawn = []
        monkeypatch.setattr(inference, "snf_mh_matrix", lambda *a, **k: drawn.append(a))
        with pytest.raises(DomainError, match="gamma0.*TruncatedUniformPrior"):
            fit_sn_sn(pop, hyper, McmcConfig(n_samples=5), 0.2)
        assert drawn == []

    def test_cli_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "sn.cfg"
        cfg.write_text(
            f"data={_population_file(tmp_path)}\nn_samples=5\nburn_in=5\nlag=1\n"
            "gamma_prior=uniform\ngamma_kappa=0.5\ngamma0=1.0\n"
            "gamma_upsilons=0.1,0.5\nalpha_tilde=0.2\n"
        )
        assert main(["fit-sn", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        parsed = _error(capsys)
        assert parsed["error"] == "DomainError" and "gamma0" in parsed["message"]
        assert not (tmp_path / "o" / "trace.ndjson").exists()


def test_fit_sn_refuses_gamma0_before_its_pre_stages(tmp_path, capsys, monkeypatch):
    """With neither alpha_tilde nor gamma_upsilons set, fit-sn would run a CER
    pre-fit and the 13-gamma profile first; the gamma0 check comes before both."""
    seen = []

    def spy(name, real):
        def wrapper(*args, **kwargs):
            seen.append(name)
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(inference, "fit_cer_cer", spy("pre-fit", inference.fit_cer_cer))
    monkeypatch.setattr(diagnostics, "snf_mh_matrix", spy("profile", diagnostics.snf_mh_matrix))
    cfg = tmp_path / "sn.cfg"
    cfg.write_text(
        f"data={_population_file(tmp_path, n_vertices=7)}\nn_samples=5\nburn_in=5\nlag=1\n"
        "metric=diffusion\ngamma_prior=uniform\ngamma_kappa=0.5\ngamma0=1.0\n"
    )
    assert main(["fit-sn", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    parsed = _error(capsys)
    assert parsed["error"] == "DomainError" and "gamma0" in parsed["message"]
    assert seen == []
    assert not (tmp_path / "o").exists()


def test_diagnose_refuses_k_below_the_predictive_bound_first(tmp_path, capsys):
    # Neither input file exists: the flag is checked before either is read.
    argv = [
        "diagnose", "--data", str(tmp_path / "pop.ndjson"), "--trace", str(tmp_path / "t"),
        "--k", "50", "--out", str(tmp_path / "o"),
    ]
    assert main(argv) == 1
    parsed = _error(capsys)
    assert parsed["error"] == "ConfigError" and "--k" in parsed["message"]
    assert "100" in parsed["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("dim", ["0", "5"])
def test_mds_refuses_dim_before_any_distance(tmp_path, capsys, monkeypatch, dim):
    data = _population_file(tmp_path, n_graphs=5)
    computed = []
    monkeypatch.setattr(cli, "distance_matrix", lambda *a: computed.append(a))
    argv = ["mds", "--data", str(data), "--dim", dim, "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    parsed = _error(capsys)
    assert parsed["error"] == "ConfigError" and "--dim" in parsed["message"]
    assert computed == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["fit-cer", "fit-sn"])
def test_fit_config_with_no_samples_exits_one(tmp_path, capsys, command):
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(
        f"data={_population_file(tmp_path)}\nn_samples=0\nburn_in=5\nlag=1\n"
        "gamma_upsilons=0.1,0.5\nalpha_tilde=0.2\n"
    )
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    parsed = _error(capsys)
    assert parsed["error"] == "ConfigError" and "n_samples" in parsed["message"]
    assert not (tmp_path / "o" / "trace.ndjson").exists()
