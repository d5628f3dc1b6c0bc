"""The SN/SN exchange sampler against a step-by-step reference.

``reference_fit_sn_sn`` makes one exchange iteration per ``step()`` call and
reads the recorded state from a ``state()`` closure, with the RNG calls and
float expressions of the sampler. ``fit_sn_sn`` must reproduce its traces
exactly: graphs, the bits of every gamma and log kernel, and the accept
counts. The cases cover exact auxiliary draws (N <= 5) and inner chains
(N = 7), both metrics, both transforms, both gamma priors, the pure flip and
pure empirical mode kernels, and a run that keeps no sample.
"""

from math import log

import numpy as np
import pytest

from conftest import run_reference_chain
from graphpop.errors import DomainError, NonFiniteLogRatioError
from graphpop.graphs import majority_vote, n_pairs
from graphpop.inference import (
    ExponentialPrior,
    McmcConfig,
    SnSnHyper,
    TruncatedUniformPrior,
    _EmpiricalKernel,
    _MetricEngine,
    fit_sn_sn,
    reflected_walk,
    snf_mh_matrix,
    spawn_rng,
)
from graphpop.metrics import MetricSpec
from test_cer_step import _population, assert_same_trace


def reference_fit_sn_sn(pop, hyper, cfg, alpha_tilde):
    if not 0.0 < alpha_tilde < 0.5:
        raise DomainError(f"alpha_tilde={alpha_tilde} outside (0, 0.5)")
    n_vertices = pop.n_vertices
    if hyper.g0.n_vertices != n_vertices:
        raise DomainError("prior mode lives on a different vertex set than the data")
    ne = n_pairs(n_vertices)
    n = len(pop)
    tau = cfg.resolved_tau(ne)
    aux_steps = cfg.resolved_aux_steps(ne)
    rng = spawn_rng(cfg.seed)
    engine = _MetricEngine(hyper.metric, n_vertices)
    phi = hyper.metric.apply_phi

    data = pop.to_matrix()
    g0_vec = hyper.g0.to_vector()
    empirical = _EmpiricalKernel(data)
    lw_aux = log(alpha_tilde) - log(1.0 - alpha_tilde)

    mode_vec = majority_vote(pop).to_vector()
    gamma = hyper.gamma0

    def data_energy(mvec):
        return float(phi(engine.dist_to(data, mvec)).sum())

    def prior_energy(mvec):
        return float(phi(engine.dist_to(g0_vec[None, :], mvec)[0]))

    s_data = data_energy(mode_vec)
    e_prior = prior_energy(mode_vec)
    aux, aux_d = snf_mh_matrix(mode_vec, gamma, engine, n, aux_steps, tau, rng)
    s_aux = float(phi(aux_d).sum())
    s_aux_h = int(np.count_nonzero(aux != mode_vec))

    def step():
        nonlocal mode_vec, gamma, s_aux, s_aux_h, s_data, e_prior
        key, cand, log_q_diff = empirical.mode_move(mode_vec, cfg.kernel_mix_weight, tau, rng)
        gamma_c = reflected_walk(gamma, 0.0, None, cfg.step_sizes_upsilon, rng)

        aux_c, aux_dc = snf_mh_matrix(cand, gamma_c, engine, n, aux_steps, tau, rng)
        s_aux_c = float(phi(aux_dc).sum())
        s_aux_h_c = int(np.count_nonzero(aux_c != cand))
        s_data_c = data_energy(cand)
        e_prior_c = prior_energy(cand)

        log_ratio = (
            lw_aux * (s_aux_h_c - s_aux_h)
            + (-hyper.gamma0 * (e_prior_c - e_prior))
            + (hyper.gamma_prior.log_pdf(gamma_c) - hyper.gamma_prior.log_pdf(gamma))
            + (-gamma_c * s_data_c + gamma * s_data)
            + (-gamma * s_aux + gamma_c * s_aux_c)
            + log_q_diff
        )
        if np.isnan(log_ratio):
            raise NonFiniteLogRatioError("exchange ratio is NaN")
        accepted = log(rng.random()) < log_ratio
        if accepted:
            mode_vec, gamma = cand, gamma_c
            s_aux, s_aux_h = s_aux_c, s_aux_h_c
            s_data, e_prior = s_data_c, e_prior_c
        return ((key, accepted),)

    def state():
        logk = -hyper.gamma0 * e_prior + hyper.gamma_prior.log_pdf(gamma) - gamma * s_data
        return mode_vec, gamma, logk

    return run_reference_chain(cfg, ("flip", "empirical"), step, state, "gamma", n_vertices)


STEPS = (0.1, 0.4)

# (N, n, metric, gamma prior, gamma0, McmcConfig overrides)
CASES = {
    "hamming-n4-exact": (4, 6, MetricSpec(), ExponentialPrior(1.0), 1.5, {}),
    "diffusion-square-n5": (
        5, 5, MetricSpec("diffusion", 0.7, "square"), ExponentialPrior(1.0), 0.5, {},
    ),
    "hamming-square-n7-inner": (7, 5, MetricSpec(phi="square"), ExponentialPrior(1.0), 0.4, {}),
    "diffusion-n7-truncated-uniform": (
        7, 4, MetricSpec("diffusion"), TruncatedUniformPrior(4.0), 2.5, {"aux_inner_steps": 60},
    ),
    "flip-kernel-only": (4, 6, MetricSpec(), ExponentialPrior(1.0), 1.5, {"kernel_mix_weight": 1.0}),
    "empirical-kernel-only": (
        5, 5, MetricSpec("diffusion", 0.7), ExponentialPrior(1.0), 1.5, {"kernel_mix_weight": 0.0},
    ),
    "no-samples": (5, 5, MetricSpec(), ExponentialPrior(1.0), 1.5, {"n_samples": 0, "burn_in": 30}),
}


@pytest.mark.parametrize("case", CASES, ids=list(CASES))
def test_fit_matches_step_by_step_reference(case):
    n_vertices, n_graphs, metric, prior, gamma0, overrides = CASES[case]
    seed = 17 + n_vertices
    pop = _population(n_vertices, n_graphs, 0.3, seed)
    g0 = _population(n_vertices, 1, 0.2, seed + 1).graphs[0]
    hyper = SnSnHyper(g0=g0, gamma0=gamma0, metric=metric, gamma_prior=prior)
    knobs = {"n_samples": 25, "burn_in": 6, "lag": 2, "step_sizes_upsilon": STEPS, "seed": seed}
    cfg = McmcConfig(**{**knobs, **overrides})
    got = fit_sn_sn(pop, hyper, cfg, 0.15)
    assert_same_trace(got, reference_fit_sn_sn(pop, hyper, cfg, 0.15))
    assert list(got.accept_counts) == ["flip", "empirical"]
    accepted, proposed = np.sum(list(got.accept_counts.values()), axis=0)
    assert proposed == cfg.burn_in + cfg.n_samples * cfg.lag
    assert accepted > 0
