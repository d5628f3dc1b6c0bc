"""The two model families on graph space and their exact small-N machinery.

The centred Erdos-Renyi (CER) family flips each edge indicator of a mode graph
independently with probability alpha < 1/2. The spherical network family (SNF)
is the Boltzmann form p(G) proportional to exp(-gamma * phi(d(G, mode))) for a
configurable metric. On enumerable spaces (N <= 5) both families admit exact
partition functions, entropies and Frechet means, which serve as oracles for
the samplers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, log

import numpy as np

from .errors import DomainError, EmptyPopulationError, InternalInconsistencyError, SizeMismatchError
from .graphs import GraphPopulation, LabelledGraph, bernoulli_bits, n_pairs, space_matrix
from .graphs import enumerate_graph_space
from .metrics import MetricSpec, cross_distances, hamming


@dataclass(frozen=True)
class CerParams:
    """Mode graph and flip probability alpha, constrained to (0, 1/2)."""

    mode: LabelledGraph
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5:
            raise DomainError(f"alpha={self.alpha} outside the open interval (0, 0.5)")


@dataclass(frozen=True)
class SnfParams:
    """Mode graph, concentration gamma > 0 and the metric/phi pair."""

    mode: LabelledGraph
    gamma: float
    metric: MetricSpec = MetricSpec()

    def __post_init__(self):
        if self.gamma <= 0:
            raise DomainError(f"gamma={self.gamma} must be positive")


def cer_log_pmf(g: LabelledGraph, params: CerParams) -> float:
    """Exact normalized log-pmf: d_H log(alpha) + (N_e - d_H) log(1 - alpha)."""
    d = hamming(g, params.mode)
    ne = params.mode.n_pairs
    return d * log(params.alpha) + (ne - d) * log(1.0 - params.alpha)


def cer_sample(params: CerParams, rng: np.random.Generator) -> LabelledGraph:
    """One draw: every edge indicator of the mode flipped independently w.p. alpha."""
    return LabelledGraph.from_vector(params.mode.n_vertices, cer_sample_matrix(params, 1, rng)[0])


def cer_sample_matrix(params: CerParams, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` draws stacked as a (count, n_pairs) uint8 edge-indicator matrix.

    The flip bits stream through ``bernoulli_bits``'s fixed buffer and the mode
    is XORed into them in place, so peak memory is the output plus 2 MiB,
    whatever ``count``.
    """
    vec = params.mode.to_vector()
    out = bernoulli_bits(rng, params.alpha, (count, vec.shape[0]))
    out ^= vec
    return out


def cer_entropy(alpha: float, n_vertices: int) -> float:
    """Closed-form CER entropy -N_e [(1-a) log(1-a) + a log a]."""
    if not 0.0 < alpha <= 0.5:
        raise DomainError(f"alpha={alpha} outside (0, 0.5]")
    ne = n_pairs(n_vertices)
    return -ne * ((1.0 - alpha) * log(1.0 - alpha) + alpha * log(alpha))


def cer_to_snf_gamma(alpha: float) -> float:
    """Concentration gamma = log((1-alpha)/alpha) matching CER(alpha) within the SNF.

    With the Hamming metric and identity phi, SNF(mode, gamma) has the same pmf
    as CER(mode, alpha).
    """
    if not 0.0 < alpha < 0.5:
        raise DomainError(f"alpha={alpha} outside the open interval (0, 0.5)")
    return log((1.0 - alpha) / alpha)


def snf_log_kernel(g: LabelledGraph, params: SnfParams) -> float:
    """Unnormalized log kernel -gamma * phi(d_G(g, mode))."""
    if g.n_vertices != params.mode.n_vertices:
        raise SizeMismatchError(g.n_vertices, params.mode.n_vertices)
    return -params.gamma * params.metric.phi_distance(g, params.mode)


@dataclass(frozen=True)
class ExactDistribution:
    """A fully enumerated distribution on graph space.

    ``space`` is the complete enumeration in increasing bit-set order, so the
    graph with edge bits b sits at index b; ``log_probs`` is aligned with it
    and normalized (log-sum-exp equal to 0 within 1e-10).
    """

    space: tuple[LabelledGraph, ...]
    log_probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "space", tuple(self.space))
        lp = np.asarray(self.log_probs, dtype=np.float64)
        object.__setattr__(self, "log_probs", lp)
        if len(self.space) != lp.shape[0]:
            raise ValueError("space and log_probs must align")
        total = _logsumexp(lp)
        if abs(total) > 1e-10:
            raise InternalInconsistencyError(f"log-probs sum to exp({total}) != 1")

    @property
    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)

    def log_prob_of(self, g: LabelledGraph) -> float:
        return float(self.log_probs[g.edge_bits])

    def entropy(self) -> float:
        p = self.probs
        return float(-(p * self.log_probs).sum())


def _logsumexp(x: np.ndarray) -> float:
    m = x.max()
    return float(m + np.log(np.exp(x - m).sum()))


def _sorted_quantile(rows: np.ndarray, q: float) -> np.ndarray:
    """``np.quantile(rows, q, axis=-1)`` of rows already sorted ascending.

    ``rows`` is one sorted vector (the result is 0-d) or a matrix of them.
    numpy's linear method: the level sits at position (N - 1)·q between the
    entries a and b around it, and is read as a + (b - a)·t for a fraction
    t < 0.5, else as b - (b - a)·(1 - t), so the values are the same bits.
    ``np.quantile`` itself would load ``numpy.ma``, about 15 ms of start-up.
    """
    last = rows.shape[-1] - 1
    pos = last * q
    if pos >= last:
        return rows[..., last].astype(np.float64)
    lo = int(pos)
    t = pos - lo
    a = rows[..., lo].astype(np.float64)
    b = rows[..., lo + 1].astype(np.float64)
    d = b - a
    return a + d * t if t < 0.5 else b - d * (1 - t)


@lru_cache(maxsize=32)
def _space_distance_table(n_vertices: int, kind: str, t: float) -> np.ndarray:
    """All pairwise raw distances over the enumerated space; read-only, cached."""
    mat = space_matrix(n_vertices)
    table = cross_distances(mat, mat, MetricSpec(kind, t=t), n_vertices)
    table.flags.writeable = False
    return table


def space_distances(mode: LabelledGraph, metric: MetricSpec) -> np.ndarray:
    """Raw distances from every graph of the enumerated space to ``mode``."""
    table = _space_distance_table(mode.n_vertices, metric.kind, metric.t)
    return table[mode.edge_bits]


def snf_exact(params: SnfParams) -> ExactDistribution:
    """Exact SNF distribution by enumeration (N <= 5), with log-sum-exp normalization.

    For the Hamming metric the partition function is cross-checked against the
    combinatorial closed form sum_h C(N_e, h) exp(-gamma phi(h)).
    """
    space = enumerate_graph_space(params.mode.n_vertices)
    dist = space_distances(params.mode, params.metric)
    log_kernels = -params.gamma * params.metric.apply_phi(dist)
    log_z = _logsumexp(log_kernels)
    if params.metric.kind == "hamming":
        ne = params.mode.n_pairs
        terms = [
            log(comb(ne, h)) - params.gamma * float(params.metric.apply_phi(float(h)))
            for h in range(ne + 1)
        ]
        log_z_closed = _logsumexp(np.array(terms))
        if abs(log_z - log_z_closed) > 1e-8:
            raise InternalInconsistencyError(
                f"enumerated log Z {log_z} disagrees with closed form {log_z_closed}"
            )
    return ExactDistribution(space, log_kernels - log_z)


def cer_exact(params: CerParams) -> ExactDistribution:
    """Exact CER distribution by enumeration (N <= 5)."""
    space = enumerate_graph_space(params.mode.n_vertices)
    dist = space_distances(params.mode, MetricSpec(kind="hamming"))
    ne = params.mode.n_pairs
    log_probs = dist * log(params.alpha) + (ne - dist) * log(1.0 - params.alpha)
    return ExactDistribution(space, log_probs)


def snf_entropy_exact(params: SnfParams) -> float:
    """Entropy of the exact SNF, computed two ways and cross-checked.

    The identity log Z + gamma E[phi(d)] must agree with the direct
    -sum p log p within 1e-8; the direct value is returned.
    """
    dist = space_distances(params.mode, params.metric)
    energies = params.metric.apply_phi(dist)
    log_kernels = -params.gamma * energies
    log_z = _logsumexp(log_kernels)
    probs = np.exp(log_kernels - log_z)
    via_identity = log_z + params.gamma * float((probs * energies).sum())
    direct = float(-(probs * (log_kernels - log_z)).sum())
    if abs(via_identity - direct) > 1e-8:
        raise InternalInconsistencyError(
            f"entropy identity {via_identity} disagrees with direct value {direct}"
        )
    return direct


def sample_frechet_mean(
    pop: GraphPopulation,
    metric: MetricSpec,
    candidates: list[LabelledGraph] | None = None,
) -> LabelledGraph:
    """Minimizer of sum_i d(G_i, psi)^2 over the space (N <= 5) or a candidate set.

    Without ``candidates`` the search is exhaustive over the enumerated space,
    available only for N <= 5. With ``candidates`` the argmin is restricted to
    them (the large-N fallback). Ties break to the smallest bit-set.
    """
    if len(pop) == 0:
        raise EmptyPopulationError("cannot take the Frechet mean of nothing")
    n = pop.n_vertices
    if candidates is None:
        table = _space_distance_table(n, metric.kind, metric.t)
        data_rows = np.array([g.edge_bits for g in pop])
        objective = (table[data_rows] ** 2).sum(axis=0)
        return LabelledGraph(n, int(np.argmin(objective)))
    cand = GraphPopulation(tuple(sorted(candidates, key=lambda g: g.edge_bits)))
    if cand.n_vertices != n:
        raise SizeMismatchError(n, cand.n_vertices)
    dists = cross_distances(cand.to_matrix(), pop.to_matrix(), metric, n)
    # Python floats summed in data order: the bits of the per-pair sum.
    objective = np.array([sum(d**2 for d in row) for row in dists.tolist()])
    return cand[int(np.argmin(objective))]


def frechet_mean_of_distribution(dist: ExactDistribution, metric: MetricSpec) -> LabelledGraph:
    """Minimizer over the space of E[d(G, psi)^2] under an exact distribution."""
    n = dist.space[0].n_vertices
    table = _space_distance_table(n, metric.kind, metric.t)
    objective = dist.probs @ (table**2)
    return dist.space[int(np.argmin(objective))]


def frechet_objective(pop: GraphPopulation, metric: MetricSpec, candidate: LabelledGraph) -> float:
    """The sum of squared distances minimized by the sample Frechet mean."""
    if candidate.n_vertices != pop.n_vertices:
        raise SizeMismatchError(pop.n_vertices, candidate.n_vertices)
    dists = cross_distances(candidate.to_vector()[None], pop.to_matrix(), metric, pop.n_vertices)
    return float(sum(d**2 for d in dists[0].tolist()))
