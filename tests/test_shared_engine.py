"""One ``_MetricEngine`` per ``predictive_draws`` call.

The predictive check and the Bayesian chi-squared draw their SNF replicates
through one engine, where they built one per posterior draw, and their results
stay those of the per-draw ``sample_matrix`` loops in
``test_predictive_draws.py``.
"""

import pytest

from graphpop import inference
from graphpop.diagnostics import (
    Chi2Config,
    DegreeQuantile,
    bayes_chi2,
    posterior_predictive_check,
    predictive_draws,
)
from graphpop.inference import McmcConfig, spawn_rng
from graphpop.metrics import MetricSpec
from test_predictive_draws import _reference_chi2, _reference_ppc, _trace_and_pop


@pytest.fixture
def engines_built(monkeypatch):
    built = []
    init = inference._MetricEngine.__init__

    def counting_init(self, metric, n_vertices):
        built.append((metric, n_vertices))
        init(self, metric, n_vertices)

    monkeypatch.setattr(inference._MetricEngine, "__init__", counting_init)
    return built


# N = 5 draws exactly from the engine's table; N = 6 runs inner chains on it.
CASES = [
    (5, MetricSpec(kind="diffusion", t=1.0), {}),
    (5, MetricSpec(kind="hamming"), {}),
    (6, MetricSpec(kind="diffusion", t=0.5), {"inner_steps": 15, "tau": 0.1}),
]


@pytest.mark.parametrize("n_vertices, metric, knobs", CASES)
def test_ppc_builds_one_engine_and_keeps_its_draws(engines_built, n_vertices, metric, knobs):
    trace, pop = _trace_and_pop("snf", n_vertices, 21)
    rng, ref_rng = spawn_rng(22), spawn_rng(22)
    want = _reference_ppc(trace, "snf", pop, DegreeQuantile(0.5), 100, ref_rng, metric, **knobs)
    del engines_built[:]
    got = posterior_predictive_check(
        trace, "snf", pop, DegreeQuantile(0.5), 100, rng, metric=metric, **knobs
    )
    assert engines_built == [(metric, n_vertices)]
    assert got.draws.tobytes() == want.tobytes()
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("n_vertices, metric, knobs", CASES)
def test_chi2_builds_one_engine_and_keeps_its_values(engines_built, n_vertices, metric, knobs):
    trace, pop = _trace_and_pop("snf", n_vertices, 23)
    cfg = Chi2Config()
    rng, ref_rng = spawn_rng(24), spawn_rng(24)
    kwargs = dict(metric=metric, n_sims=12, max_draws=5, **knobs)
    want = _reference_chi2(trace, "snf", pop, DegreeQuantile(0.5), cfg, ref_rng, **kwargs)
    del engines_built[:]
    got = bayes_chi2(trace, "snf", pop, DegreeQuantile(0.5), cfg, rng, **kwargs)
    assert engines_built == [(metric, n_vertices)]
    assert got.rb_values.tobytes() == want.tobytes()
    assert rng.random() == ref_rng.random()


def test_cer_draws_build_no_engine(engines_built):
    trace, _ = _trace_and_pop("cer", 6, 25)
    list(predictive_draws(trace, [0, 1, 2], inference.CerParams, 3, spawn_rng(26), McmcConfig(n_samples=0)))
    assert engines_built == []

