"""The sufficient-statistic CER/CER step against a step-by-step reference.

``reference_fit_cer_cer`` recomputes both distances from the full vectors at
every proposal and the log target from scratch at every alpha proposal, with
the same RNG calls in the same order. ``fit_cer_cer`` must reproduce its
traces exactly: graphs, the bits of every alpha and log kernel, and the
accept counts.
"""

from math import log

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_reference_chain
from graphpop.errors import DomainError, StepTooLargeError
from graphpop.graphs import GraphPopulation, LabelledGraph, majority_vote, n_pairs
from graphpop.inference import (
    CerCerHyper,
    McmcConfig,
    _EmpiricalKernel,
    fit_cer_cer,
    reflected_walk,
    spawn_rng,
)
from graphpop.models import CerParams, cer_sample_matrix


def reference_fit_cer_cer(pop, hyper, cfg):
    n_vertices = pop.n_vertices
    ne = n_pairs(n_vertices)
    if hyper.g0.n_vertices != n_vertices:
        raise DomainError("prior mode lives on a different vertex set than the data")
    for u in cfg.step_sizes_upsilon:
        if u >= 0.5:
            raise StepTooLargeError(u, 0.5)
    tau = cfg.resolved_tau(ne)
    rng = spawn_rng(cfg.seed)

    data = pop.to_matrix()
    n = data.shape[0]
    g0_vec = hyper.g0.to_vector()
    empirical = _EmpiricalKernel(data)

    lw_prior = log(hyper.alpha0) - log(1.0 - hyper.alpha0)
    const_prior = ne * log(1.0 - hyper.alpha0)

    mode_vec = majority_vote(pop).to_vector()
    d0 = int(np.count_nonzero(mode_vec != g0_vec))
    dsum = int(np.count_nonzero(data != mode_vec))
    alpha = 0.5 * hyper.beta_a / (hyper.beta_a + hyper.beta_b)

    def log_target(d0_, dsum_, alpha_):
        return (
            const_prior
            + d0_ * lw_prior
            + hyper.log_alpha_prior(alpha_)
            + dsum_ * log(alpha_)
            + (n * ne - dsum_) * log(1.0 - alpha_)
        )

    def step():
        nonlocal mode_vec, d0, dsum, alpha
        key, cand, log_q_diff = empirical.mode_move(mode_vec, cfg.kernel_mix_weight, tau, rng)
        d0_c = int(np.count_nonzero(cand != g0_vec))
        dsum_c = int(np.count_nonzero(data != cand))
        lw_lik = log(alpha) - log(1.0 - alpha)
        log_ratio = (d0_c - d0) * lw_prior + (dsum_c - dsum) * lw_lik + log_q_diff
        mode_ok = log(rng.random()) < log_ratio
        if mode_ok:
            mode_vec, d0, dsum = cand, d0_c, dsum_c

        alpha_c = reflected_walk(alpha, 0.0, 0.5, cfg.step_sizes_upsilon, rng)
        alpha_ok = False
        if 0.0 < alpha_c < 0.5:
            log_ratio = log_target(d0, dsum, alpha_c) - log_target(d0, dsum, alpha)
            alpha_ok = log(rng.random()) < log_ratio
            if alpha_ok:
                alpha = alpha_c
        return (key, mode_ok), ("alpha_walk", alpha_ok)

    def state():
        return mode_vec, alpha, log_target(d0, dsum, alpha)

    return run_reference_chain(
        cfg, ("flip", "empirical", "alpha_walk"), step, state, "alpha", n_vertices
    )


def assert_same_trace(got, want):
    assert got.graphs == want.graphs
    assert got.params.dtype == want.params.dtype
    assert got.params.tobytes() == want.params.tobytes()
    assert got.log_kernels.tobytes() == want.log_kernels.tobytes()
    assert got.accept_counts == want.accept_counts


def _population(n_vertices, n_graphs, density, seed):
    rng = np.random.default_rng(seed)
    mat = (rng.random((n_graphs, n_pairs(n_vertices))) < density).astype(np.uint8)
    return GraphPopulation(tuple(LabelledGraph.from_vector(n_vertices, row) for row in mat))


@st.composite
def cer_cases(draw):
    n_vertices = draw(st.integers(1, 8))
    taus = (0.05, 0.3, 0.9) if n_vertices <= 2 else (None, 0.05, 0.3, 0.9)
    seed = draw(st.integers(0, 2**32 - 1))
    pop = _population(n_vertices, draw(st.integers(1, 6)), draw(st.sampled_from((0.1, 0.5, 0.9))), seed)
    g0 = _population(n_vertices, 1, draw(st.sampled_from((0.0, 0.3, 1.0))), seed + 1).graphs[0]
    hyper = CerCerHyper(
        g0=g0,
        alpha0=draw(st.sampled_from((0.01, 0.1, 0.45))),
        beta_a=draw(st.sampled_from((1.0, 0.5, 3.0))),
        beta_b=draw(st.sampled_from((9.0, 1.0))),
    )
    cfg = McmcConfig(
        n_samples=draw(st.integers(0, 40)),
        burn_in=draw(st.integers(0, 30)),
        lag=draw(st.integers(1, 3)),
        flip_prob_tau=draw(st.sampled_from(taus)),
        kernel_mix_weight=draw(st.sampled_from((0.0, 0.3, 0.8, 1.0))),
        step_sizes_upsilon=draw(st.sampled_from(((0.005, 0.02, 0.08), (0.2, 0.45)))),
        seed=seed,
    )
    return pop, hyper, cfg


@settings(deadline=None, max_examples=150)
@given(cer_cases())
def test_step_matches_reference(case):
    pop, hyper, cfg = case
    assert_same_trace(fit_cer_cer(pop, hyper, cfg), reference_fit_cer_cer(pop, hyper, cfg))


def test_step_matches_reference_at_paper_scale():
    rng = spawn_rng(53)
    mode = LabelledGraph.from_vector(50, (rng.random(n_pairs(50)) < 0.1).astype(np.uint8))
    mat = cer_sample_matrix(CerParams(mode=mode, alpha=0.01), 10, rng)
    pop = GraphPopulation(tuple(LabelledGraph.from_vector(50, row) for row in mat))
    hyper = CerCerHyper(g0=LabelledGraph(50), alpha0=0.1)
    cfg = McmcConfig(n_samples=300, burn_in=1500, lag=5, seed=53)
    got = fit_cer_cer(pop, hyper, cfg)
    assert_same_trace(got, reference_fit_cer_cer(pop, hyper, cfg))
    assert got.accept_counts["flip"][0] > 0 and got.accept_counts["empirical"][1] > 0
