"""Model-fit diagnostics: posterior predictive checks and the Bayesian chi-squared.

Both diagnostics reduce a network to a univariate summary (degree quantiles by
default). Replicate populations are simulated per posterior draw: exactly for
the CER family and for the SNF at N <= 5, and through inner Metropolis chains
for the SNF above that. Checked together, several statistics share each draw's
population. The model CDF needed by the chi-squared has no closed form for
either family, so it is estimated by Monte Carlo; a randomized probability
integral transform repairs the discreteness of the statistic before binning.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .errors import DomainError, EmptyTraceError, TooFewObservationsError
from .graphs import GraphPopulation, LabelledGraph, n_pairs, pair_positions
from .inference import McmcConfig, Trace, _MetricEngine, sample_matrix, snf_mh_matrix
from .metrics import MetricSpec
from .models import SnfParams, _sorted_quantile


# ---------------------------------------------------------------------------
# Univariate network statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeQuantile:
    q: float

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise DomainError(f"quantile level {self.q} outside [0, 1]")

    @property
    def name(self) -> str:
        return f"degree_q{self.q:g}"


@dataclass(frozen=True)
class EdgeCount:
    name: str = "edge_count"


@dataclass(frozen=True)
class MeanDegree:
    name: str = "mean_degree"


StatisticSpec = Union[DegreeQuantile, EdgeCount, MeanDegree]


@lru_cache(maxsize=32)
def _incidence(n_vertices: int) -> np.ndarray:
    """(n_pairs, n_vertices) 0/1 matrix mapping edge indicators to degree sums.

    float32: degrees are integers below N < 2^24, which float32 sums exactly in
    any order, at about half the cost of a float64 product.
    """
    ii, jj = pair_positions(n_vertices)
    m = np.zeros((n_pairs(n_vertices), n_vertices), dtype=np.float32)
    m[np.arange(len(ii)), ii] = 1.0
    m[np.arange(len(jj)), jj] = 1.0
    return m


def _statistic_rows(
    stats: tuple[StatisticSpec, ...], mat: np.ndarray, n_vertices: int
) -> list[np.ndarray]:
    """Each statistic on every row of an edge-indicator matrix, in the order given.

    The degree quantiles share one incidence product and one sort of the
    degree rows, whatever their number.
    """
    sorted_degrees = None
    out = []
    for stat in stats:
        if isinstance(stat, EdgeCount):
            out.append(mat.sum(axis=1).astype(np.float64))
        elif isinstance(stat, MeanDegree):
            out.append(2.0 * mat.sum(axis=1) / n_vertices)
        else:
            if sorted_degrees is None:
                degrees = mat.astype(np.float32) @ _incidence(n_vertices)
                sorted_degrees = np.sort(degrees, axis=1)
            out.append(_sorted_quantile(sorted_degrees, stat.q))
    return out


def statistic_values(stat: StatisticSpec, mat: np.ndarray, n_vertices: int) -> np.ndarray:
    """Evaluate the statistic on every row of an edge-indicator matrix."""
    return _statistic_rows((stat,), mat, n_vertices)[0]


def predictive_draws(
    trace: Trace, idx, params_of: Callable, size: int, rng: np.random.Generator, mcmc: McmcConfig
) -> Iterator[np.ndarray]:
    """Replicate edge matrices drawn from the model at the kept samples ``idx``.

    The fitted model is the pair ``(params_of, mcmc)``, as in every check below:
    for each index in order, yields ``size`` draws from the ``CerParams`` or
    ``SnfParams`` that ``params_of(mode, scalar)`` builds at that sample, SNF
    chain draws taking ``mcmc``'s inner steps and tau. Draws are made lazily, so a consumer may use
    ``rng`` between two of them without changing either stream. SNF draws
    share one ``_MetricEngine``, built at the first of them: ``params_of``
    keeps the metric and the vertex count, and building an engine per draw
    cost more than an exact draw at N <= 5.
    """
    engine = None
    for i in idx:
        params = params_of(trace.graphs[i], float(trace.params[i]))
        if engine is None and isinstance(params, SnfParams):
            engine = _MetricEngine(params.metric, params.mode.n_vertices)
        yield sample_matrix(params, size, rng, mcmc, engine)


# ---------------------------------------------------------------------------
# Posterior predictive check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PpcResult:
    eta0: float
    draws: np.ndarray
    tail_prob: float


def posterior_predictive_checks(
    trace: Trace,
    params_of: Callable,
    pop: GraphPopulation,
    stats: tuple[StatisticSpec, ...],
    k_draws: int,
    rng: np.random.Generator,
    mcmc: McmcConfig = McmcConfig(n_samples=0),
) -> list[PpcResult]:
    """Two-sided tail probability of each observed statistic under the predictive.

    The fitted model is ``(params_of, mcmc)``, as in ``predictive_draws``; the
    default ``mcmc`` runs SNF chain draws with 20*N_e inner steps at tau = 1/N_e.
    For each of ``k_draws`` posterior draws, one replicate population of the
    observed size is simulated from the fitted model, and every statistic is
    evaluated on it and averaged over its networks; each result compares the
    observed value against its replicates. RNG order: the ``k_draws`` trace
    indices, then one replicate population per draw. The statistics take no
    draws, so the stream does not depend on their number.
    """
    if len(trace) == 0:
        raise EmptyTraceError("posterior predictive check needs a non-empty trace")
    if k_draws < 100:
        raise DomainError("k_draws must be at least 100 for a usable tail estimate")
    n_vertices = pop.n_vertices
    eta0 = [float(v.mean()) for v in _statistic_rows(stats, pop.to_matrix(), n_vertices)]
    idx = rng.integers(len(trace), size=k_draws)
    reps = predictive_draws(trace, idx, params_of, len(pop), rng, mcmc)
    draws = np.empty((len(stats), k_draws))
    for j, rep in enumerate(reps):
        draws[:, j] = [v.mean() for v in _statistic_rows(stats, rep, n_vertices)]
    out = []
    for e, d in zip(eta0, draws):
        p_hi = float((d >= e).mean())
        p_lo = float((d <= e).mean())
        out.append(PpcResult(e, d, min(1.0, 2.0 * min(p_hi, p_lo))))
    return out


def posterior_predictive_check(
    trace: Trace,
    params_of: Callable,
    pop: GraphPopulation,
    stat: StatisticSpec,
    k_draws: int,
    rng: np.random.Generator,
    mcmc: McmcConfig = McmcConfig(n_samples=0),
) -> PpcResult:
    """``posterior_predictive_checks`` for one statistic, of the model ``(params_of, mcmc)``."""
    return posterior_predictive_checks(trace, params_of, pop, (stat,), k_draws, rng, mcmc)[0]


# ---------------------------------------------------------------------------
# Bayesian chi-squared
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Chi2Config:
    """Partition of [0, 1) into at least two bins; defaults to five equal bins."""

    bin_edges: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "bin_edges", tuple(self.bin_edges))
        e = self.bin_edges
        if len(e) < 3 or e[0] != 0.0 or e[-1] != 1.0:
            raise DomainError("bin edges must start at 0 and end at 1, with at least two bins")
        if any(b <= a for a, b in zip(e, e[1:])):
            raise DomainError("bin edges must be strictly increasing")

    @property
    def n_bins(self) -> int:
        return len(self.bin_edges) - 1


@dataclass(frozen=True)
class Chi2Result:
    rb_values: np.ndarray
    exceedance_fraction: float
    threshold: float


def randomized_pit(
    y_obs: np.ndarray, sim_values: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Randomized probability integral transform against an empirical CDF.

    For a discrete statistic the plain PIT is non-uniform; drawing uniformly
    between the left and right CDF limits at each observation restores
    uniformity under a correctly specified model.
    """
    sims = np.sort(np.asarray(sim_values))
    m = len(sims)
    f_left = np.searchsorted(sims, y_obs, side="left") / m
    f_right = np.searchsorted(sims, y_obs, side="right") / m
    return f_left + rng.random(len(y_obs)) * (f_right - f_left)


def rb_statistic(pit_values: np.ndarray, cfg: Chi2Config) -> float:
    """Binned discrepancy sum_k (C_k - n p_k)^2 / (n p_k) of PIT values."""
    edges = np.asarray(cfg.bin_edges)
    # Keep values inside [0, 1) so the top bin is closed. Bin k holds
    # edges[k] <= u < edges[k+1], as in np.histogram, at a fraction of its cost.
    u = np.clip(pit_values, 0.0, np.nextafter(1.0, 0.0))
    counts = np.bincount(np.searchsorted(edges, u, "right") - 1, minlength=len(edges) - 1)
    n = len(pit_values)
    p_k = np.diff(edges)
    return float((((counts - n * p_k) ** 2) / (n * p_k)).sum())


def chi2_quantile(q, df):
    """Quantile function of chi-squared with ``df`` degrees of freedom.

    The same expression as ``scipy.stats.chi2.ppf``, so the values are equal,
    but it loads only ``scipy.special``, on first call: importing
    ``scipy.stats`` would cost every command about a second at start-up.
    """
    from scipy.special import gammaincinv

    return 2.0 * gammaincinv(df / 2, q)


# 0.95 quantiles of chi-squared at df 1-4, equal to ``chi2_quantile(0.95, df)``:
# a chi-squared with at most five bins, as in the robustness study, loads no
# scipy module.
_CHI2_95 = {1: 3.841458820694124, 2: 5.991464547107979, 3: 7.814727903251179, 4: 9.487729036781154}


def bayes_chi2_checks(
    trace: Trace,
    params_of: Callable,
    pop: GraphPopulation,
    stats: tuple[StatisticSpec, ...],
    cfg: Chi2Config,
    rng: np.random.Generator,
    mcmc: McmcConfig = McmcConfig(n_samples=0),
    n_sims: int = 500,
    max_draws: Optional[int] = None,
) -> list[Chi2Result]:
    """Binned goodness-of-fit statistic R^B per posterior draw, for each statistic.

    The fitted model is ``(params_of, mcmc)``, as in ``predictive_draws``; the
    default ``mcmc`` runs SNF chain draws with 20*N_e inner steps at tau = 1/N_e.
    Per draw, ``n_sims`` networks are simulated once, and the model CDF of
    every statistic is estimated from them; randomized PIT values of the
    observations are binned, and R^B sums the squared standardized
    discrepancies between bin counts and their expectations. Reported
    alongside is the fraction of draws whose R^B exceeds the 0.95 quantile of
    chi-squared with D-1 degrees of freedom. RNG order: the trace indices when
    ``max_draws`` subsamples, then per draw one simulated population followed
    by one PIT uniform vector per statistic, in the order given.
    """
    if len(trace) == 0:
        raise EmptyTraceError("the Bayesian chi-squared needs a non-empty trace")
    if n_sims < 10:
        raise DomainError("n_sims must be at least 10 for a usable model CDF")
    if max_draws is not None and max_draws < 1:
        raise DomainError("max_draws must be at least 1")
    n = len(pop)
    if n < cfg.n_bins:
        raise TooFewObservationsError(
            f"{n} observations cannot fill {cfg.n_bins} bins meaningfully"
        )
    n_vertices = pop.n_vertices
    y_obs = _statistic_rows(stats, pop.to_matrix(), n_vertices)
    if max_draws is not None and len(trace) > max_draws:
        draw_idx = rng.integers(len(trace), size=max_draws)
    else:
        draw_idx = np.arange(len(trace))
    # Lazy: each population is drawn before its PITs take uniforms from the same rng.
    sims = predictive_draws(trace, draw_idx, params_of, n_sims, rng, mcmc)
    rb = np.empty((len(stats), len(draw_idx)))
    for j, s in enumerate(sims):
        for i, (y, v) in enumerate(zip(y_obs, _statistic_rows(stats, s, n_vertices))):
            rb[i, j] = rb_statistic(randomized_pit(y, v, rng), cfg)
    df = cfg.n_bins - 1
    threshold = _CHI2_95[df] if df in _CHI2_95 else float(chi2_quantile(0.95, df))
    return [Chi2Result(r, float((r > threshold).mean()), threshold) for r in rb]


def bayes_chi2(
    trace: Trace,
    params_of: Callable,
    pop: GraphPopulation,
    stat: StatisticSpec,
    cfg: Chi2Config,
    rng: np.random.Generator,
    mcmc: McmcConfig = McmcConfig(n_samples=0),
    n_sims: int = 500,
    max_draws: Optional[int] = None,
) -> Chi2Result:
    """``bayes_chi2_checks`` for one statistic, of the model ``(params_of, mcmc)``."""
    return bayes_chi2_checks(trace, params_of, pop, (stat,), cfg, rng, mcmc, n_sims, max_draws)[0]


# ---------------------------------------------------------------------------
# Gamma profiling and trace health
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaProfileRow:
    gamma: float
    q1: float
    median: float
    q3: float
    whisker_low: float
    whisker_high: float
    mean: float


def gamma_profile(
    mode: LabelledGraph,
    metric: MetricSpec,
    gammas,
    draws_per_gamma: int,
    cfg: McmcConfig,
    rng: np.random.Generator,
) -> list[GammaProfileRow]:
    """Distribution of d(., mode) under the SNF across a grid of gamma values.

    Summaries are box-plot ready (quartiles plus Tukey whiskers). The profile
    informs step-size scales and prior mass placement for gamma.
    """
    gammas = list(gammas)
    if not gammas:
        raise DomainError("gamma grid must be nonempty")
    ne = n_pairs(mode.n_vertices)
    tau = cfg.resolved_tau(ne)
    steps = cfg.resolved_aux_steps(ne)
    engine = _MetricEngine(metric, mode.n_vertices)
    mode_vec = mode.to_vector()
    rows = []
    for gamma in gammas:
        states, dists = snf_mh_matrix(
            mode_vec, float(gamma), engine, draws_per_gamma, steps, tau, rng
        )
        ranked = np.sort(dists)
        q1, med, q3 = (_sorted_quantile(ranked, q) for q in (0.25, 0.5, 0.75))
        iqr = q3 - q1
        inside = dists[(dists >= q1 - 1.5 * iqr) & (dists <= q3 + 1.5 * iqr)]
        rows.append(
            GammaProfileRow(
                float(gamma),
                float(q1),
                float(med),
                float(q3),
                float(inside.min()),
                float(inside.max()),
                float(dists.mean()),
            )
        )
    return rows


def suggest_gamma_steps(
    mode: LabelledGraph,
    metric: MetricSpec,
    cfg: McmcConfig,
    rng: np.random.Generator,
    draws_per_gamma: int = 200,
) -> tuple[float, float, float]:
    """Heuristic gamma random-walk scales from the distance-vs-gamma profile.

    Finds the smallest profiled gamma at which the median distance drops below
    half its near-uniform value and keys the step sizes to that scale.
    """
    grid = [2.0**k for k in range(-6, 7)]
    rows = gamma_profile(mode, metric, grid, draws_per_gamma, cfg, rng)
    base = rows[0].median
    scale = grid[-1]
    for row in rows:
        if base > 0 and row.median <= 0.5 * base:
            scale = row.gamma
            break
    return (0.02 * scale, 0.1 * scale, 0.5 * scale)


@dataclass(frozen=True)
class TraceHealth:
    acceptance_rates: dict[str, float]
    autocorrelation: Optional[np.ndarray]  # lags 1..50; None when undefined
    distinct_graphs: int


def trace_health(trace: Trace) -> TraceHealth:
    """Descriptive trace summaries: acceptance rates, scalar ACF, distinct modes."""
    if len(trace) == 0:
        raise EmptyTraceError("cannot summarize an empty trace")
    x = trace.params
    var = x.var()
    if len(x) < 2 or np.ptp(x) == 0 or var == 0:
        acf = None
    else:
        centred = x - x.mean()
        max_lag = min(50, len(x) - 1)
        acf = np.array(
            [
                float((centred[: len(x) - k] * centred[k:]).sum() / (len(x) * var))
                for k in range(1, max_lag + 1)
            ]
        )
    distinct = len({g.edge_bits for g in trace.graphs})
    return TraceHealth(trace.acceptance_rates(), acf, distinct)
