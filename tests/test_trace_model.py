"""A trace names its fitted model, and ``diagnose`` replays it from the trace alone.

An SN/SN trace header records the fit's metric, so ``diagnose`` takes no model
flags: its replicates draw from ``SnfParams`` under that metric, with the
inner chains the header's config records. Reruns with the same seed on the
same trace reproduce ``diagnose``'s outputs byte for byte.
"""

import json

import pytest

from conftest import random_graph
from graphpop import diagnostics
from graphpop import io as gio
from graphpop.cli import main
from graphpop.graphs import GraphPopulation
from graphpop.inference import spawn_rng
from graphpop.metrics import MetricSpec
from graphpop.models import SnfParams

# Above N = 5, so the fit and the replicates run inner chains.
N_VERTICES = 7
FITTED = MetricSpec(kind="diffusion", t=0.5, phi="square")


def _fit(tmp_path, command, extra: str):
    rng = spawn_rng(21)
    pop = GraphPopulation(tuple(random_graph(N_VERTICES, rng, p=0.3) for _ in range(6)))
    data = tmp_path / "pop.ndjson"
    gio.write_population(pop, str(data))
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(
        f"data={data}\nn_samples=20\nburn_in=10\nlag=1\nseed=4\naux_inner_steps=15\n{extra}"
    )
    out = tmp_path / command
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return data, out / "trace.ndjson"


@pytest.fixture(scope="module")
def cer_fit(tmp_path_factory):
    return _fit(tmp_path_factory.mktemp("cer"), "fit-cer", "")


@pytest.fixture(scope="module")
def snf_fit(tmp_path_factory):
    extra = (
        f"metric={FITTED.kind}\nt={FITTED.t}\nphi={FITTED.phi}\n"
        "gamma_upsilons=0.1,0.5\nalpha_tilde=0.2\n"
    )
    return _fit(tmp_path_factory.mktemp("snf"), "fit-sn", extra)


def _diagnose(data, trace, out):
    argv = [
        "diagnose", "--data", str(data), "--trace", str(trace), "--stat", "edge_count",
        "--k", "100", "--chi2-sims", "10", "--max-draws", "2", "--seed", "3", "--out", str(out),
    ]
    assert main(argv) == 0


def test_snf_header_names_the_fitted_metric(snf_fit):
    _, trace = snf_fit
    header = json.loads(trace.read_text().splitlines()[0])
    assert header["metric"] == {"kind": "diffusion", "phi": "square", "t": 0.5}
    assert gio.read_trace(str(trace)).metric == FITTED


def test_every_replicate_draws_under_the_fitted_metric(snf_fit, tmp_path, monkeypatch):
    seen = []
    real = diagnostics.sample_matrix

    def spy(params, *args, **kwargs):
        seen.append(params)
        return real(params, *args, **kwargs)

    monkeypatch.setattr(diagnostics, "sample_matrix", spy)
    _diagnose(*snf_fit, tmp_path / "o")
    # One draw per predictive replicate (--k) and per chi-squared draw (--max-draws).
    assert len(seen) == 100 + 2
    assert all(isinstance(p, SnfParams) and p.metric == FITTED for p in seen)


@pytest.mark.parametrize("fit", ["cer_fit", "snf_fit"])
def test_diagnose_reruns_are_byte_identical(fit, tmp_path, request):
    data, trace = request.getfixturevalue(fit)
    _diagnose(data, trace, tmp_path / "r1")
    _diagnose(data, trace, tmp_path / "r2")
    for name in ("diagnostics.json", "chi2_qq.csv"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()
