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
from math import ceil, factorial, log2

import numpy as np

from .errors import EigDecompositionFailureError, SizeMismatchError
from .graphs import (
    GraphPopulation,
    LabelledGraph,
    _pack,
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


def _diagonals(stack: np.ndarray) -> np.ndarray:
    """Writable (..., N) view of the diagonals of a C-contiguous (..., N, N) stack."""
    n = stack.shape[-1]
    return stack.reshape(*stack.shape[:-2], n * n)[..., :: n + 1]


def _laplacians(mat: np.ndarray, n_vertices: int, out: np.ndarray | None = None) -> np.ndarray:
    """Combinatorial Laplacians of every row of a (k, n_pairs) uint8 edge matrix, as (k, N, N).

    They are written into ``out``, a C-contiguous (k, N, N) float64 array, if given.
    """
    k, n = mat.shape[0], n_vertices
    ii, jj = pair_positions(n)
    lap = np.empty((k, n, n)) if out is None else out
    lap.fill(0.0)
    adj = lap.reshape(k, n * n)
    adj[:, ii * n + jj] = mat
    adj[:, jj * n + ii] = mat
    deg = lap.sum(axis=2)
    # The adjacency is subtracted from zero and the degrees written over the
    # diagonal's zeros, as in ``laplacian``: negating it would write -0.0
    # where ``laplacian`` has 0.0 and change bits.
    np.subtract(0.0, lap, out=lap)
    _diagonals(lap)[...] = deg
    return lap


def heat_kernels(mat: np.ndarray, n_vertices: int, t: float) -> np.ndarray:
    """exp(-tL) for every row of a (k, n_pairs) uint8 edge matrix, as a (k, N, N) stack.

    One batched symmetric eigendecomposition covers all k Laplacians; row i
    equals ``heat_kernel`` of the graph with edge vector ``mat[i]`` bit for bit.
    """
    try:
        eigvals, eigvecs = np.linalg.eigh(_laplacians(mat, n_vertices))
    except np.linalg.LinAlgError as exc:
        raise EigDecompositionFailureError(str(exc)) from exc
    # matmul, not einsum: it reproduces the single-matrix product bit for bit.
    kernels = (eigvecs * np.exp(-t * eigvals)[:, None, :]) @ eigvecs.swapaxes(1, 2)
    return 0.5 * (kernels + kernels.swapaxes(1, 2))


# Degree-11 Taylor polynomial of exp, evaluated by Paterson-Stockmeyer as
# P0 + X^4 (P1 + X^4 P2) with Pj = c[4j] I + c[4j+1] X + c[4j+2] X^2 +
# c[4j+3] X^3. After scaling, ||X||_1 <= 1/4, so the truncation error is at
# most (1/4)^12 / 12! * e^(1/4) < 2e-16 in the 1-norm (Moler & Van Loan 2003).
# Against degree 15 at ||X||_1 <= 1/2 this takes one more squaring and one
# product less, and the batch holds one (k, N, N) array less.
_TAYLOR_THETA = 0.25
_TAYLOR_C = np.array([1.0 / factorial(i) for i in range(12)])
_PS_POWERS = _TAYLOR_C.reshape(3, 4)[:, 1:].copy()  # coefficients of X, X^2, X^3 per block
_PS_IDENTITY = _TAYLOR_C.reshape(3, 4)[:, 0].copy()  # coefficient of I per block
# (k, N, N) arrays a Taylor batch holds at once: X, X^2, X^3 and the three blocks.
_TAYLOR_SLOTS = 6


def taylor_workspace(k: int, n_vertices: int) -> np.ndarray:
    """A buffer that ``taylor_heat_kernels`` can reuse for batches of up to ``k`` rows."""
    return np.empty(_TAYLOR_SLOTS * k * n_vertices * n_vertices)


def taylor_heat_kernels(
    mat: np.ndarray, n_vertices: int, t: float, work: np.ndarray | None = None
) -> np.ndarray:
    """exp(-tL) for every row of a (k, n_pairs) uint8 edge matrix, by scaling and squaring.

    -tL is scaled by 2^-s with s chosen from the exact ||tL||_1 = 2t * (max
    degree) so that its 1-norm is at most 1/4, a degree-11 Taylor polynomial
    is evaluated with five batched products, and the result is squared s times.
    It agrees with ``heat_kernels`` to ~1e-14 per entry but not bit for bit,
    so it is meant for decisions that ``heat_kernels`` can re-check.

    Every (k, N, N) array of the call lives in ``work``, a buffer from
    ``taylor_workspace`` for at least k rows (a fresh one if None), so a call
    with a reused buffer allocates no such array. The result is a
    C-contiguous view into the buffer, valid until the buffer is next used.
    """
    k, n = mat.shape[0], n_vertices
    if work is None:
        work = taylor_workspace(k, n)
    slots = work[: _TAYLOR_SLOTS * k * n * n].reshape(_TAYLOR_SLOTS, k, n, n)
    powers, blocks = slots[:3], slots[3:]
    x = _laplacians(mat, n, out=powers[0])
    norm = 2.0 * t * _diagonals(x).max(initial=0.0)
    s = max(0, ceil(log2(norm / _TAYLOR_THETA))) if norm > 0.0 else 0
    np.multiply(x, -t / 2.0**s, out=x)
    np.matmul(x, x, out=powers[1])
    np.matmul(powers[1], x, out=powers[2])
    np.matmul(_PS_POWERS, powers.reshape(3, -1), out=blocks.reshape(3, -1))
    _diagonals(blocks)[...] += _PS_IDENTITY[:, None, None]
    # The blocks hold all that X and X^3 were needed for: X^4 takes X's slot,
    # and the Horner steps and squarings alternate between the other two.
    x4 = np.matmul(powers[1], powers[1], out=powers[0])
    a, b = powers[1], powers[2]
    np.matmul(blocks[2], x4, out=b)
    b += blocks[1]
    np.matmul(b, x4, out=a)
    a += blocks[0]
    for _ in range(s):
        np.matmul(a, a, out=b)
        a, b = b, a
    return a


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


def kernel_chunk(n_vertices: int) -> int:
    """Rows per stack of (rows, N, N) float64 kernels that keeps it within 256 KiB (at least 1)."""
    return max(1, (1 << 15) // max(1, n_vertices * n_vertices))


def _kernel_distances(kernels, kernel, work, out) -> None:
    """out[i] = squared Frobenius norm of kernels[i] - kernel, as ``diffusion_distance`` sums it.

    ``work``, C-contiguous and shaped like the (k, N, N) ``kernels``, may be ``kernels`` itself.
    """
    np.subtract(kernels, kernel, out=work)
    np.square(work, out=work)
    work.reshape(work.shape[0], -1).sum(axis=1, out=out)


def cross_distances(
    rows: np.ndarray, others: np.ndarray, metric: MetricSpec, n_vertices: int
) -> np.ndarray:
    """(k, m) raw distances between rows of (k, n_pairs) and (m, n_pairs) uint8 edge matrices.

    Entry (i, j) is ``metric.distance`` of graphs ``rows[i]`` and ``others[j]``, bit for bit.
    Hamming counts are popcounts of XORed ``graphs._pack`` words. Under diffusion ``rows`` is one
    ``heat_kernels`` stack and ``others`` is scored in 256 KiB stacks (``kernel_chunk``);
    if ``rows is others``, one stack of all rows serves both sides.
    """
    out = np.empty((rows.shape[0], others.shape[0]))
    if metric.kind == "hamming":
        packed = _pack(others)
        for i, row in enumerate(_pack(rows)):
            out[i] = np.bitwise_count(packed ^ row).sum(axis=1)
        return out
    row_kernels = None if rows is others else heat_kernels(rows, n_vertices, metric.t)
    step = max(1, others.shape[0] if rows is others else kernel_chunk(n_vertices))
    for lo in range(0, others.shape[0], step):
        kernels = heat_kernels(others[lo : lo + step], n_vertices, metric.t)
        work = np.empty_like(kernels)
        for i, kernel in enumerate(kernels if row_kernels is None else row_kernels):
            _kernel_distances(kernels, kernel, work, out[i, lo : lo + step])
    return out


def distance_matrix(pop: GraphPopulation, metric: MetricSpec) -> DistanceMatrix:
    """All pairwise raw distances d_G (phi not applied)."""
    mat = pop.to_matrix()
    return DistanceMatrix(cross_distances(mat, mat, metric, pop.n_vertices), ids=pop.ids)


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
