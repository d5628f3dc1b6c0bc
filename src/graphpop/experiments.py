"""Replicated simulation studies: concentration, prediction and robustness.

Every study draws a fresh truth per replicate, simulates data, fits the chosen
hierarchical model and aggregates over replicates. Replicates are deterministic
given (seed, sample size, replicate index) and independent. With
``n_threads`` > 1 they run at once in that many worker processes (the fits are
pure-Python loops, so threads would share one interpreter lock); rows are
aggregated in replicate order, so the output does not depend on the count.

Scales default to desk size (tens of replicates, short chains). The
paper-scale regimes are reachable through the same configuration but take
CPU-days.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from itertools import repeat
from math import exp, lgamma, log, sqrt
from typing import Optional, Sequence

import numpy as np

from .diagnostics import (
    Chi2Config,
    DegreeQuantile,
    StatisticSpec,
    bayes_chi2_checks,
    posterior_predictive_checks,
    predictive_draws,
)
from .errors import DomainError, InvalidSpecError
from .graphs import (
    GeneratorSpec,
    GraphPopulation,
    LabelledGraph,
    edge_matrix,
    majority_vote,
    n_pairs,
    sample_generator,
)
from .inference import (
    CerCerHyper,
    McmcConfig,
    SnSnHyper,
    Trace,
    _MetricEngine,
    derive_seed,
    fit_cer_cer,
    fit_sn_sn,
    plugin_alpha_tilde,
    posterior_summary,
    sample_matrix,
    snf_mh_matrix,
    spawn_rng,
)
from .metrics import MetricSpec, cross_distances
from .models import CerParams, SnfParams, _sorted_quantile


@dataclass(frozen=True)
class StudyConfig:
    """Shared configuration for the simulation studies.

    ``data_alpha``/``data_gamma`` are the true dispersion of the simulated data
    and double as the prior concentration hyperparameters, mirroring the
    simulation regimes. Study-specific fields (test set size, predictive draw
    count, misspecification parameters, diagnostic knobs) are ignored by the
    studies that do not use them. ``n_threads`` is how many replicates run at
    once, each in its own worker process; 1 runs them in this process.
    """

    generator: GeneratorSpec
    model: str = "cer"  # "cer" | "snf"
    n_vertices: int = 50
    sample_sizes: tuple[int, ...] = (3, 5, 7, 10)
    n_replicates: int = 20
    epsilons: tuple[float, ...] = (1.0, 2.0, 3.0)
    delta: float = 0.05
    seed: int = 0
    data_alpha: float = 0.01
    data_gamma: Optional[float] = None  # default: log((1-alpha)/alpha) at data_alpha
    metric: MetricSpec = MetricSpec()
    mcmc: McmcConfig = McmcConfig(n_samples=250, burn_in=10_000, lag=5)
    alpha_tilde: Optional[float] = None  # SNF plug-in; None derives it per fit
    # Prediction study.
    test_size: int = 20
    n_predictive: int = 20
    # Robustness study.
    misspecification: str = "dependence"  # "none" | "dependence" | "metric"
    persist_p: float = 0.9
    flip_p: float = 0.5
    statistics: tuple[StatisticSpec, ...] = (
        DegreeQuantile(0.1),
        DegreeQuantile(0.5),
        DegreeQuantile(0.9),
    )
    ppc_draws: int = 200
    chi2_sims: int = 300
    chi2_max_draws: int = 100
    nominal_level: float = 0.05
    chi2_threshold: float = 0.5
    n_threads: int = 1

    def __post_init__(self):
        object.__setattr__(self, "sample_sizes", tuple(self.sample_sizes))
        object.__setattr__(self, "epsilons", tuple(self.epsilons))
        object.__setattr__(self, "statistics", tuple(self.statistics))
        if self.model not in ("cer", "snf"):
            raise InvalidSpecError(f"model must be 'cer' or 'snf', got {self.model!r}")
        if self.n_replicates < 1:
            raise InvalidSpecError("n_replicates must be at least 1")
        if any(e <= 0 for e in self.epsilons):
            raise InvalidSpecError("epsilons must be positive")
        if not 0.0 < self.delta < 1.0:
            raise InvalidSpecError("delta must lie in (0, 1)")
        if self.misspecification not in ("none", "dependence", "metric"):
            raise InvalidSpecError(f"unknown misspecification {self.misspecification!r}")
        if not 0.0 < self.data_alpha < 0.5:
            raise InvalidSpecError("data_alpha must lie in (0, 0.5)")

    @property
    def resolved_gamma(self) -> float:
        if self.data_gamma is not None:
            return self.data_gamma
        return float(np.log((1.0 - self.data_alpha) / self.data_alpha))


def _fit_once(
    cfg: StudyConfig, pop: GraphPopulation, g0: LabelledGraph, fit_seed: int
) -> Trace:
    mcmc = replace(cfg.mcmc, seed=fit_seed)
    cer_hyper = CerCerHyper(g0=g0, alpha0=cfg.data_alpha)
    if cfg.model == "cer":
        return fit_cer_cer(pop, cer_hyper, mcmc)
    hyper = SnSnHyper(g0=g0, gamma0=cfg.resolved_gamma, metric=cfg.metric)
    alpha_tilde = cfg.alpha_tilde
    if alpha_tilde is None:
        alpha_tilde = plugin_alpha_tilde(pop, cer_hyper, mcmc)
    return fit_sn_sn(pop, hyper, mcmc, alpha_tilde)


def _model_params(cfg: StudyConfig, mode: LabelledGraph, theta: Optional[float] = None):
    """The study's model centred at ``mode``; ``theta`` replaces the data dispersion."""
    if cfg.model == "cer":
        return CerParams(mode, cfg.data_alpha if theta is None else theta)
    return SnfParams(mode, cfg.resolved_gamma if theta is None else theta, cfg.metric)


def _simulate_truth_and_data(
    cfg: StudyConfig, n: int, rng: np.random.Generator
) -> tuple[LabelledGraph, LabelledGraph, GraphPopulation]:
    """Draw the true mode, a prior mode perturbed from it, and n observations."""
    truth = sample_generator(cfg.generator, cfg.n_vertices, rng)
    params = _model_params(cfg, truth)
    g0_vec = sample_matrix(params, 1, rng, cfg.mcmc)[0]
    data = sample_matrix(params, n, rng, cfg.mcmc)
    g0 = LabelledGraph.from_vector(cfg.n_vertices, g0_vec)
    pop = GraphPopulation(
        tuple(LabelledGraph.from_vector(cfg.n_vertices, row) for row in data)
    )
    return truth, g0, pop


def _fit_replicate(cfg: StudyConfig, n: int, r: int) -> tuple[LabelledGraph, GraphPopulation, Trace]:
    """Replicate ``r`` at sample size ``n``: the truth, its data and the fit to them."""
    rng = spawn_rng(derive_seed(cfg.seed, n, r))
    truth, g0, pop = _simulate_truth_and_data(cfg, n, rng)
    return truth, pop, _fit_once(cfg, pop, g0, derive_seed(cfg.seed, n, r, 1))


def _model_metric(cfg: StudyConfig) -> MetricSpec:
    return MetricSpec(kind="hamming") if cfg.model == "cer" else cfg.metric


def _distances_to(cfg: StudyConfig, graphs: Sequence[LabelledGraph], g: LabelledGraph):
    """Raw distances under the model's metric from each of ``graphs`` to ``g``."""
    mat = edge_matrix(graphs, n_pairs(cfg.n_vertices))
    return cross_distances(g.to_vector()[None], mat, _model_metric(cfg), cfg.n_vertices)[0]


def _run_replicates(cfg: StudyConfig, worker, tasks: Sequence) -> list:
    """``worker(cfg, task)`` for each task, in task order.

    With ``n_threads`` > 1 the tasks run in a pool of worker processes, so
    ``worker`` must be a module-level function; each task seeds itself, so the
    results equal a serial run's.
    """
    n_workers = min(cfg.n_threads, len(tasks))
    if n_workers <= 1:
        return [worker(cfg, task) for task in tasks]
    # Imported here: multiprocessing costs start-up time that only a pool needs.
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=n_workers)
    try:
        return list(pool.map(worker, repeat(cfg), tasks))
    finally:
        # After a replicate raises, drop the queued ones; either way the
        # workers are joined before this returns.
        pool.shutdown(cancel_futures=True)


def _per_sample_size(cfg: StudyConfig, worker) -> list[tuple[int, list]]:
    """Run ``worker`` over every (n, r) task in one pool; each n with its results."""
    tasks = [(n, r) for n in cfg.sample_sizes for r in range(cfg.n_replicates)]
    results = _run_replicates(cfg, worker, tasks)
    reps = cfg.n_replicates
    return [(n, results[i * reps : (i + 1) * reps]) for i, n in enumerate(cfg.sample_sizes)]


def binomial_ci_half_width(fraction: float, count: int) -> float:
    return 1.96 * sqrt(max(fraction * (1.0 - fraction), 0.0) / count) if count else 0.0


# ---------------------------------------------------------------------------
# Concentration study
# ---------------------------------------------------------------------------


def _concentration_replicate(cfg: StudyConfig, task: tuple[int, int]):
    truth, _, trace = _fit_replicate(cfg, *task)
    graphs = [*trace.graphs, posterior_summary(trace).mode_graph]
    dists = _distances_to(cfg, graphs, truth)
    inside = {eps: float((dists[:-1] <= eps).mean()) >= 1.0 - cfg.delta for eps in cfg.epsilons}
    return inside, float(dists[-1])


def concentration_study(cfg: StudyConfig) -> list[dict]:
    """Posterior concentration around the true mode as the sample size grows.

    Per replicate, reports whether at least 1-delta of the kept posterior mass
    lies within each epsilon-ball of the truth, plus the distance from the
    posterior mode estimate to the truth. Rows aggregate over replicates.
    """
    rows = []
    for n, results in _per_sample_size(cfg, _concentration_replicate):
        mode_dists = [d for _, d in results]
        for eps in cfg.epsilons:
            frac = float(np.mean([res[0][eps] for res in results]))
            rows.append(
                {
                    "n": n,
                    "generator": type(cfg.generator).__name__,
                    "epsilon": eps,
                    "fraction_concentrated": frac,
                    "ci_half_width": binomial_ci_half_width(frac, cfg.n_replicates),
                    "mean_mode_distance": float(np.mean(mode_dists)),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Majority-vote comparison
# ---------------------------------------------------------------------------


def _comparison_replicate(cfg: StudyConfig, task: tuple[int, int]):
    truth, pop, trace = _fit_replicate(cfg, *task)
    mode_est = posterior_summary(trace).mode_graph
    d_model, d_mv = _distances_to(cfg, [mode_est, majority_vote(pop)], truth)
    return float(d_model), float(d_mv)


def majority_vote_comparison(cfg: StudyConfig) -> list[dict]:
    """Point-estimate accuracy of the posterior mode versus the majority vote."""
    for n in cfg.sample_sizes:
        if n % 2 == 0:
            raise InvalidSpecError("majority-vote comparison requires odd sample sizes")
    rows = []
    for n, results in _per_sample_size(cfg, _comparison_replicate):
        for eps in cfg.epsilons:
            model_frac = float(np.mean([dm <= eps for dm, _ in results]))
            mv_frac = float(np.mean([dv <= eps for _, dv in results]))
            rows.append(
                {
                    "n": n,
                    "generator": type(cfg.generator).__name__,
                    "epsilon": eps,
                    "majority_vote_fraction": mv_frac,
                    "model_fraction": model_frac,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Prediction study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredictionResult:
    psi_delta: float
    rho_delta: float

    def __post_init__(self):
        if self.psi_delta < 0 or self.rho_delta < 0:
            raise DomainError("radii must be nonnegative")

    @property
    def ratio(self) -> float:
        return self.psi_delta / self.rho_delta


def binomial_quantile(q: float, n: int, p: float) -> int:
    """Smallest k with P(Binomial(n, p) <= k) >= q, for 0 < p < 1.

    The CDF is summed from k = 0 with pmfs from ``math.lgamma``, so no scipy
    module loads. Only k = n reaches q >= 1, which the rounded sum may reach
    earlier or never, so that level is answered directly.
    """
    if q >= 1.0:
        return n
    log_p, log_q = log(p), log(1.0 - p)
    log_nfact = lgamma(n + 1)
    cdf = 0.0
    for k in range(n + 1):
        cdf += exp(log_nfact - lgamma(k + 1) - lgamma(n - k + 1) + k * log_p + (n - k) * log_q)
        if cdf >= q:
            return k
    return n


def model_contour_radius(cfg: StudyConfig, truth: LabelledGraph, rng) -> float:
    """Smallest radius whose model ball around the truth holds >= 1-delta mass.

    Exact for the CER family (a Binomial quantile of the Hamming distance);
    Monte Carlo under the configured metric for the SNF.
    """
    ne = n_pairs(cfg.n_vertices)
    if cfg.model == "cer":
        return float(binomial_quantile(1.0 - cfg.delta, ne, cfg.data_alpha))
    steps, tau = cfg.mcmc.resolved_aux_steps(ne), cfg.mcmc.resolved_tau(ne)
    engine = _MetricEngine(cfg.metric, cfg.n_vertices)
    # Each draw comes with its distance to the truth (the SNF's mode).
    _, dists = snf_mh_matrix(
        truth.to_vector(), cfg.resolved_gamma, engine, 2000, steps, tau, rng
    )
    return float(_sorted_quantile(np.sort(dists), 1.0 - cfg.delta))


def _prediction_replicate(cfg: StudyConfig, r: int) -> dict[int, PredictionResult]:
    max_n = max(cfg.sample_sizes)
    rng = spawn_rng(derive_seed(cfg.seed, r))
    truth, g0, full = _simulate_truth_and_data(cfg, max_n + cfg.test_size, rng)
    test = full.to_matrix()[max_n:]
    rho = model_contour_radius(cfg, truth, rng)
    if rho == 0.0:
        raise DomainError(
            f"model contour radius rho_delta = 0: at least 1 - delta = {1.0 - cfg.delta:g} "
            "of the model mass sits on its mode, so the ratio psi_delta / rho_delta is "
            "undefined; use a smaller delta or a larger data_alpha"
        )
    out = {}
    for n in cfg.sample_sizes:
        train = GraphPopulation(full.graphs[:n])
        trace = _fit_once(cfg, train, g0, derive_seed(cfg.seed, r, n, 1))
        pred_rng = spawn_rng(derive_seed(cfg.seed, r, n, 2))
        idx = pred_rng.integers(len(trace), size=cfg.n_predictive)
        draws = predictive_draws(trace, idx, partial(_model_params, cfg), 1, pred_rng, cfg.mcmc)
        preds = np.stack([d[0] for d in draws])
        minima = cross_distances(preds, test, _model_metric(cfg), cfg.n_vertices).min(axis=1)
        psi = float(_sorted_quantile(np.sort(minima), 1.0 - cfg.delta))
        out[n] = PredictionResult(psi, rho)
    return out


def prediction_study(cfg: StudyConfig) -> list[dict]:
    """Covering radius of the predictive relative to the model contour radius.

    Per replicate, one sample of size max(sample_sizes) + test_size is drawn
    and partitioned: each training size n uses the first n graphs, and all
    share the held-out test set, so ratios at different n are compared on
    common data. The covering radius estimate is the 1-delta quantile over
    predictive draws of the minimum distance to the test set.
    """
    results = _run_replicates(cfg, _prediction_replicate, range(cfg.n_replicates))
    rows = []
    for n in cfg.sample_sizes:
        per_n = [res[n] for res in results]
        rows.append(
            {
                "n": n,
                "generator": type(cfg.generator).__name__,
                "psi_delta": float(np.mean([p.psi_delta for p in per_n])),
                "rho_delta": float(np.mean([p.rho_delta for p in per_n])),
                "ratio": float(np.mean([p.ratio for p in per_n])),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Markov misspecification generator and robustness study
# ---------------------------------------------------------------------------


def dynamic_markov_sample(
    g_init: LabelledGraph,
    persist_p: float,
    flip_p: float,
    n: int,
    rng: np.random.Generator,
) -> GraphPopulation:
    """Markov chain of graphs: each edge indicator persists w.p. persist_p, else
    is resampled Bernoulli(flip_p), independently across edges given the
    previous graph. The chain starts at ``g_init``.
    """
    if not 0.0 <= persist_p <= 1.0 or not 0.0 <= flip_p <= 1.0:
        raise DomainError("persist_p and flip_p must lie in [0, 1]")
    if n < 1:
        raise DomainError("need at least one graph")
    ne = g_init.n_pairs
    current = g_init.to_vector()
    graphs = [g_init]
    for _ in range(n - 1):
        keep = rng.random(ne) < persist_p
        fresh = (rng.random(ne) < flip_p).astype(np.uint8)
        current = np.where(keep, current, fresh).astype(np.uint8)
        graphs.append(LabelledGraph.from_vector(g_init.n_vertices, current))
    return GraphPopulation(tuple(graphs))


def _misspecified_data(
    cfg: StudyConfig, n: int, rng: np.random.Generator
) -> tuple[LabelledGraph, GraphPopulation]:
    truth = sample_generator(cfg.generator, cfg.n_vertices, rng)
    if cfg.misspecification == "none":
        params = _model_params(cfg, truth)
    elif cfg.misspecification == "dependence":
        return truth, dynamic_markov_sample(truth, cfg.persist_p, cfg.flip_p, n, rng)
    elif cfg.model == "cer":  # "metric": generate from the other family
        diffusion = MetricSpec(kind="diffusion", t=cfg.metric.t)
        params = SnfParams(truth, cfg.resolved_gamma, diffusion)
    else:
        params = CerParams(truth, cfg.data_alpha)
    mat = sample_matrix(params, n, rng, cfg.mcmc)
    pop = GraphPopulation(
        tuple(LabelledGraph.from_vector(cfg.n_vertices, row) for row in mat)
    )
    return truth, pop


def _robustness_replicate(cfg: StudyConfig, task: tuple[int, int]) -> dict[str, tuple[bool, bool]]:
    """Whether each diagnostic rejects the fit to one replicate, per statistic.

    The statistics share one replicate population per posterior draw, in the
    predictive check and in the chi-squared, so they are common random
    numbers: their rejections are correlated within a replicate, while each
    statistic's rejection rate keeps its distribution.
    """
    n, r = task
    fit_metric = None if cfg.model == "cer" else cfg.metric
    knobs = dict(inner_steps=cfg.mcmc.aux_inner_steps, tau=cfg.mcmc.flip_prob_tau)
    n_bins = min(5, n)
    chi2_cfg = Chi2Config(tuple(np.linspace(0.0, 1.0, n_bins + 1)))
    rng = spawn_rng(derive_seed(cfg.seed, n, r))
    truth, pop = _misspecified_data(cfg, n, rng)
    g0_vec = sample_matrix(CerParams(truth, cfg.data_alpha), 1, rng, cfg.mcmc)[0]
    g0 = LabelledGraph.from_vector(cfg.n_vertices, g0_vec)
    trace = _fit_once(cfg, pop, g0, derive_seed(cfg.seed, n, r, 1))
    stats = cfg.statistics
    ppcs = posterior_predictive_checks(
        trace, cfg.model, pop, stats, cfg.ppc_draws, rng, metric=fit_metric, **knobs
    )
    chi2s = bayes_chi2_checks(
        trace,
        cfg.model,
        pop,
        stats,
        chi2_cfg,
        rng,
        metric=fit_metric,
        n_sims=cfg.chi2_sims,
        max_draws=cfg.chi2_max_draws,
        **knobs,
    )
    return {
        stat.name: (
            ppc.tail_prob < cfg.nominal_level,
            chi2.exceedance_fraction > cfg.chi2_threshold,
        )
        for stat, ppc, chi2 in zip(stats, ppcs, chi2s)
    }


def robustness_study(cfg: StudyConfig) -> list[dict]:
    """Rejection rates of both diagnostics under the configured misspecification.

    The prior mode is centred at a perturbation of the data's starting graph,
    as in the other studies. Rejection means a posterior predictive tail
    probability below the nominal level, or a chi-squared exceedance fraction
    above the configured threshold. The chi-squared binning coarsens to n
    equal bins when n falls below the default five; it needs two bins, so every
    sample size must be at least 2.
    """
    if any(n < 2 for n in cfg.sample_sizes):
        raise InvalidSpecError("robustness study requires sample sizes of at least 2")
    rows = []
    for n, results in _per_sample_size(cfg, _robustness_replicate):
        for stat in cfg.statistics:
            ppc_rate = float(np.mean([res[stat.name][0] for res in results]))
            chi2_rate = float(np.mean([res[stat.name][1] for res in results]))
            rows.append(
                {
                    "model": cfg.model,
                    "misspecification": cfg.misspecification,
                    "n": n,
                    "statistic": stat.name,
                    "ppc_rejection_rate": ppc_rate,
                    "chi2_rejection_rate": chi2_rate,
                }
            )
    return rows
