"""Graph metrics and the spectral machinery behind them.

Two metrics are supported: the Hamming distance between edge bit-sets, and a
diffusion dissimilarity defined as the squared Frobenius norm of the difference
of heat kernels exp(-tL). The squared form is used verbatim; it is symmetric,
nonnegative and zero only at equality, but the triangle inequality is not
relied upon anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EigDecompositionFailureError, SizeMismatchError
from .graphs import (
    GraphPopulation,
    LabelledGraph,
    bits_to_vector,
    n_pairs,
    pair_positions,
)


def hamming(g1: LabelledGraph, g2: LabelledGraph) -> int:
    """Number of vertex pairs whose edge indicators disagree."""
    if g1.n_vertices != g2.n_vertices:
        raise SizeMismatchError(g1.n_vertices, g2.n_vertices)
    return (g1.edge_bits ^ g2.edge_bits).bit_count()


def laplacian(g: LabelledGraph) -> np.ndarray:
    """Combinatorial Laplacian: degrees on the diagonal, -A off it."""
    a = g.to_adjacency().astype(np.float64)
    return np.diag(a.sum(axis=1)) - a


def heat_kernels(mat: np.ndarray, n_vertices: int, t: float) -> np.ndarray:
    """exp(-tL) for every row of a (k, n_pairs) uint8 edge matrix, as a (k, N, N) stack.

    One batched symmetric eigendecomposition covers all k Laplacians; row i
    equals ``heat_kernel`` of the graph with edge vector ``mat[i]`` bit for bit.
    """
    k = mat.shape[0]
    ii, jj = pair_positions(n_vertices)
    adj = np.zeros((k, n_vertices, n_vertices), dtype=np.float64)
    adj[:, ii, jj] = mat
    adj[:, jj, ii] = mat
    # Degrees go onto a zero matrix before subtracting, as in ``laplacian``:
    # negating the adjacency would write -0.0 where it has 0.0 and change bits.
    lap = np.zeros_like(adj)
    diag = np.arange(n_vertices)
    lap[:, diag, diag] = adj.sum(axis=2)
    lap -= adj
    try:
        eigvals, eigvecs = np.linalg.eigh(lap)
    except np.linalg.LinAlgError as exc:
        raise EigDecompositionFailureError(str(exc)) from exc
    # matmul, not einsum: it reproduces the single-matrix product bit for bit.
    kernels = (eigvecs * np.exp(-t * eigvals)[:, None, :]) @ eigvecs.swapaxes(1, 2)
    return 0.5 * (kernels + kernels.swapaxes(1, 2))


@lru_cache(maxsize=4096)
def _heat_kernel_cached(n_vertices: int, edge_bits: int, t: float) -> np.ndarray:
    vec = bits_to_vector(edge_bits, n_pairs(n_vertices))
    kernel = heat_kernels(vec[None, :], n_vertices, t)[0]
    kernel.flags.writeable = False
    return kernel


def heat_kernel(g: LabelledGraph, t: float) -> np.ndarray:
    """exp(-tL) via symmetric eigendecomposition; rows sum to 1 for every t > 0.

    Results are cached per (graph, t); the returned array is read-only.
    """
    if t <= 0:
        raise ValueError("diffusion time t must be positive")
    return _heat_kernel_cached(g.n_vertices, g.edge_bits, float(t))


def diffusion_distance(g1: LabelledGraph, g2: LabelledGraph, t: float = 1.0) -> float:
    """Squared Frobenius norm of the heat-kernel difference at diffusion time t."""
    if g1.n_vertices != g2.n_vertices:
        raise SizeMismatchError(g1.n_vertices, g2.n_vertices)
    diff = heat_kernel(g1, t) - heat_kernel(g2, t)
    return float((diff * diff).sum())


@dataclass(frozen=True)
class MetricSpec:
    """Choice of graph metric plus the increasing transform applied in model kernels.

    ``kind`` is "hamming" or "diffusion" (the latter with diffusion time ``t``);
    ``phi`` is "identity" or "square". ``distance`` returns the raw metric; the
    transform is applied separately by the model kernels.
    """

    kind: str = "hamming"
    t: float = 1.0
    phi: str = "identity"

    def __post_init__(self):
        if self.kind not in ("hamming", "diffusion"):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.phi not in ("identity", "square"):
            raise ValueError(f"unknown phi {self.phi!r}")
        if self.t <= 0:
            raise ValueError("diffusion time t must be positive")

    def distance(self, g1: LabelledGraph, g2: LabelledGraph) -> float:
        if self.kind == "hamming":
            return float(hamming(g1, g2))
        return diffusion_distance(g1, g2, self.t)

    def apply_phi(self, x):
        if self.phi == "identity":
            return x
        return np.square(x) if isinstance(x, np.ndarray) else x * x

    def phi_distance(self, g1: LabelledGraph, g2: LabelledGraph) -> float:
        return float(self.apply_phi(self.distance(g1, g2)))


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric nonnegative matrix of pairwise raw distances with zero diagonal."""

    values: np.ndarray
    ids: tuple[str, ...] | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("distance matrix must be square")
        if np.abs(v - v.T).max(initial=0.0) > 1e-12:
            raise ValueError("distance matrix must be symmetric within 1e-12")
        if np.abs(np.diag(v)).max(initial=0.0) != 0.0:
            raise ValueError("distance matrix diagonal must be zero")
        if v.min(initial=0.0) < 0:
            raise ValueError("distances must be nonnegative")

    @property
    def size(self) -> int:
        return self.values.shape[0]


def distance_matrix(pop: GraphPopulation, metric: MetricSpec) -> DistanceMatrix:
    """All pairwise raw distances d_G (phi not applied), one evaluation per pair."""
    n = len(pop)
    out = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            d = metric.distance(pop[i], pop[j])
            out[i, j] = d
            out[j, i] = d
    return DistanceMatrix(out, ids=pop.ids)


def classical_mds(dmat: DistanceMatrix, dim: int) -> np.ndarray:
    """Torgerson scaling: double-center the squared distances and eigendecompose.

    Returns n x dim coordinates scaled by the square root of the eigenvalues;
    dimensions with nonpositive eigenvalues are clamped to zero.
    """
    n = dmat.size
    if not 1 <= dim <= n - 1:
        raise ValueError(f"dim must be in [1, {n - 1}]")
    d2 = dmat.values**2
    j = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * j @ d2 @ j
    try:
        eigvals, eigvecs = np.linalg.eigh(b)
    except np.linalg.LinAlgError as exc:
        raise EigDecompositionFailureError(str(exc)) from exc
    order = np.argsort(eigvals)[::-1][:dim]
    vals = np.clip(eigvals[order], 0.0, None)
    return eigvecs[:, order] * np.sqrt(vals)
