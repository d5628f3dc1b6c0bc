"""Input that cannot describe a run is refused before any draw.

A ``diagnose --model`` that does not match the trace's scalar, a ``gamma0``
outside the gamma prior's support, and a fit config asking for no samples
each exit 1 with one JSON error line, where they used to run on and report
meaningless results or fail later with a misleading error.
"""

import json

import numpy as np
import pytest

from conftest import random_graph
from graphpop import inference
from graphpop import io as gio
from graphpop.cli import main
from graphpop.errors import DomainError
from graphpop.graphs import GraphPopulation, LabelledGraph
from graphpop.inference import (
    McmcConfig,
    SnSnHyper,
    Trace,
    TruncatedUniformPrior,
    fit_sn_sn,
    spawn_rng,
)
from test_cli_config import _population_file


def _error(capsys) -> dict:
    (line,) = capsys.readouterr().err.strip().splitlines()
    return json.loads(line)


class TestDiagnoseModelMatchesTrace:
    def _trace_file(self, tmp_path, param_name, value):
        g = LabelledGraph.from_edges(4, [(0, 1), (2, 3)])
        trace = Trace(
            graphs=[g] * 10, params=np.full(10, value), log_kernels=np.zeros(10),
            param_name=param_name, n_vertices=4, config=McmcConfig(n_samples=10),
        )
        path = tmp_path / "trace.ndjson"
        gio.write_trace(trace, str(path))
        return path

    # Both scalars lie in (0, 0.5), where either family would accept them.
    @pytest.mark.parametrize(
        "model, param_name", [("snf", "alpha"), ("cer", "gamma")], ids=["snf-on-cer", "cer-on-snf"]
    )
    def test_mismatch_exits_one_naming_both(self, tmp_path, capsys, model, param_name):
        trace = self._trace_file(tmp_path, param_name, 0.1)
        argv = [
            "diagnose", "--data", str(_population_file(tmp_path)), "--trace", str(trace),
            "--model", model, "--stat", "edge_count", "--k", "100", "--chi2-sims", "10",
            "--max-draws", "2", "--out", str(tmp_path / "o"),
        ]
        assert main(argv) == 1
        parsed = _error(capsys)
        assert parsed["error"] == "ConfigError"
        assert model in parsed["message"] and param_name in parsed["message"]
        assert not (tmp_path / "o").exists()


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
