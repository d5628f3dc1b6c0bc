"""Labelled simple graphs on a fixed vertex set, stored as upper-triangular bit-sets.

Edge bit ``p`` corresponds to the vertex pair ``(i, j)``, ``0 <= i < j < N``, in
row-major order over the strict upper triangle, so Hamming distances are XOR
popcounts and the space of all graphs on N vertices is the integer range
``[0, 2^{N(N-1)/2})``. Only this module maps edge vectors to bits (rows of
uint64 words: ``_pack``) and decides which spaces can be enumerated (``space_matrix``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    EmptyPopulationError,
    InvalidSpecError,
    NonBinaryEntryError,
    NonSymmetricError,
    NonZeroDiagonalError,
    SizeMismatchError,
    SpaceTooLargeError,
)

# Exhaustive enumeration is capped at 2^10 = 1024 graphs (N = 5).
MAX_ENUMERABLE_VERTICES = 5


def n_pairs(n_vertices: int) -> int:
    """Number of vertex pairs N(N-1)/2, i.e. the length of the edge bit-set."""
    return n_vertices * (n_vertices - 1) // 2


def pair_index(i: int, j: int, n_vertices: int) -> int:
    """Row-major upper-triangular position of the pair (i, j), 0-based, i < j."""
    if not 0 <= i < j < n_vertices:
        raise ValueError(f"pair ({i}, {j}) is not an ordered pair on {n_vertices} vertices")
    return i * n_vertices - i * (i + 1) // 2 + (j - i - 1)


@lru_cache(maxsize=32)
def pair_positions(n_vertices: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (I, J) so that bit p encodes the pair (I[p], J[p]); read-only, cached."""
    ii, jj = np.triu_indices(n_vertices, 1)
    ii.flags.writeable = False
    jj.flags.writeable = False
    return ii, jj


@dataclass(frozen=True)
class LabelledGraph:
    """Simple undirected graph on vertices {0, ..., n_vertices-1}.

    ``edge_bits`` packs the strict upper triangle of the adjacency matrix into a
    single integer; bit ``pair_index(i, j, n)`` is 1 iff the edge (i, j) exists.
    Instances are immutable and hashable.
    """

    n_vertices: int
    edge_bits: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_vertices", int(self.n_vertices))
        object.__setattr__(self, "edge_bits", int(self.edge_bits))
        if self.n_vertices < 1:
            raise ValueError("a graph needs at least one vertex")
        if not 0 <= self.edge_bits < (1 << n_pairs(self.n_vertices)):
            raise ValueError("edge_bits outside the valid bit-set range")

    @property
    def n_pairs(self) -> int:
        return n_pairs(self.n_vertices)

    @property
    def n_edges(self) -> int:
        return self.edge_bits.bit_count()

    def has_edge(self, i: int, j: int) -> bool:
        if i == j:
            return False
        if i > j:
            i, j = j, i
        return bool((self.edge_bits >> pair_index(i, j, self.n_vertices)) & 1)

    def edges(self) -> list[tuple[int, int]]:
        """Sorted list of 0-based edge pairs (i, j), i < j."""
        ii, jj = pair_positions(self.n_vertices)
        on = np.flatnonzero(bits_to_vector(self.edge_bits, self.n_pairs))
        return list(zip(ii[on].tolist(), jj[on].tolist()))

    def to_vector(self) -> np.ndarray:
        """Edge indicators as a uint8 vector of length n_pairs."""
        return bits_to_vector(self.edge_bits, self.n_pairs)

    def to_adjacency(self) -> np.ndarray:
        a = np.zeros((self.n_vertices, self.n_vertices), dtype=np.int64)
        ii, jj = pair_positions(self.n_vertices)
        vec = bits_to_vector(self.edge_bits, self.n_pairs)
        a[ii, jj] = vec
        a[jj, ii] = vec
        return a

    def degree_sequence(self) -> np.ndarray:
        return self.to_adjacency().sum(axis=1)

    @classmethod
    def from_edges(cls, n_vertices: int, edges: Sequence[tuple[int, int]]) -> "LabelledGraph":
        bits = 0
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop ({i}, {j}) not allowed")
            if i > j:
                i, j = j, i
            bits |= 1 << pair_index(i, j, n_vertices)
        return cls(n_vertices, bits)

    @classmethod
    def from_vector(cls, n_vertices: int, vec: np.ndarray) -> "LabelledGraph":
        return cls(n_vertices, vector_to_bits(vec))


# Bulk Bernoulli draws stream their uniforms through at most this many float64s
# (2 MiB), however large the output.
BERNOULLI_BUFFER = 1 << 18


def bernoulli_bits(rng: np.random.Generator, p: float, shape) -> np.ndarray:
    """``(rng.random(shape) < p).astype(np.uint8)`` without the float64 block.

    ``p`` is a scalar. The uniforms are drawn in C order into one reused buffer
    of at most ``BERNOULLI_BUFFER`` doubles, so the result and the generator's
    state afterwards equal the one-shot draw's bit for bit, and the peak is
    the uint8 output plus 2 MiB.
    """
    out = np.empty(shape, dtype=np.uint8)
    flat = out.reshape(-1).view(np.bool_)
    buf = np.empty(min(flat.size, BERNOULLI_BUFFER))
    for lo in range(0, flat.size, BERNOULLI_BUFFER):
        u = buf[: flat.size - lo]
        rng.random(out=u)
        np.less(u, p, out=flat[lo : lo + BERNOULLI_BUFFER])
    return out


def bits_to_vector(bits: int, length: int) -> np.ndarray:
    """Bit-set as a uint8 vector of length ``length``; entry p is bit p."""
    bits = int(bits)
    if bits >> length:
        raise ValueError(f"bit-set does not fit in {length} bits")
    raw = bits.to_bytes((length + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=length, bitorder="little")


def edge_matrix(graphs: Sequence[LabelledGraph], length: int) -> np.ndarray:
    """Edge vectors of ``graphs`` stacked as a C-contiguous (len, length) uint8 matrix.

    Row k equals ``graphs[k].to_vector()``; the bit-sets are unpacked in one
    call rather than one per graph.
    """
    width = (length + 7) // 8
    raw = b"".join(g.edge_bits.to_bytes(width, "little") for g in graphs)
    return _unpack(np.frombuffer(raw, dtype=np.uint8).reshape(len(graphs), width), length)


def vector_to_bits(vec: np.ndarray) -> int:
    """Bit-set whose bit p is set iff entry p of ``vec`` is nonzero."""
    packed = np.packbits(np.asarray(vec) != 0, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _pack(rows: np.ndarray) -> np.ndarray:
    """Uint8 edge rows packed as ceil(N_e / 64) uint64 words per row, zero-padded.

    Entry p is bit p % 64 of little-endian word p // 64: the ``edge_bits`` layout.
    """
    out = np.zeros((rows.shape[0], -(-rows.shape[1] // 64)), dtype=np.uint64)
    out.view(np.uint8)[:, : -(-rows.shape[1] // 8)] = np.packbits(rows, axis=1, bitorder="little")
    return out


def _unpack(words: np.ndarray, ne: int) -> np.ndarray:
    """The (rows, ne) uint8 edge rows of C-contiguous packed rows ``words`` (words or bytes)."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=ne, bitorder="little")


def from_adjacency(matrix) -> LabelledGraph:
    """Build a graph from a dense 0/1 adjacency matrix.

    The matrix must be square, symmetric, binary and hollow; violations raise
    errors naming the offending entry.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidSpecError(f"adjacency matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    for i in range(n):
        if a[i, i] != 0:
            raise NonZeroDiagonalError(i)
        for j in range(i + 1, n):
            if a[i, j] not in (0, 1):
                raise NonBinaryEntryError(i, j, a[i, j])
            if a[j, i] not in (0, 1):
                raise NonBinaryEntryError(j, i, a[j, i])
            if a[i, j] != a[j, i]:
                raise NonSymmetricError(i, j)
    return LabelledGraph(n, vector_to_bits(a[pair_positions(n)]))


def enumerate_graph_space(n_vertices: int) -> list[LabelledGraph]:
    """All 2^{N(N-1)/2} labelled graphs on N vertices, in increasing bit-set order."""
    return [LabelledGraph(n_vertices, bits) for bits in range(len(space_matrix(n_vertices)))]


@lru_cache(maxsize=None)
def space_matrix(n_vertices: int) -> np.ndarray:
    """The space as (2^N_e, N_e) uint8 rows, row b ``bits_to_vector(b, N_e)``; read-only, cached."""
    if n_vertices < 1:
        raise ValueError("a graph needs at least one vertex")
    if n_vertices > MAX_ENUMERABLE_VERTICES:
        raise SpaceTooLargeError(n_vertices, MAX_ENUMERABLE_VERTICES)
    ne = n_pairs(n_vertices)
    mat = _unpack(np.arange(1 << ne, dtype=np.uint64)[:, None], ne)
    mat.flags.writeable = False
    return mat


@dataclass(frozen=True)
class GraphPopulation:
    """An ordered collection of graphs on a common vertex set.

    Duplicates are allowed; ``ids`` are optional per-graph labels.
    """

    graphs: tuple[LabelledGraph, ...]
    ids: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "graphs", tuple(self.graphs))
        if len(self.graphs) == 0:
            raise EmptyPopulationError("population must contain at least one graph")
        n = self.graphs[0].n_vertices
        for g in self.graphs:
            if g.n_vertices != n:
                raise SizeMismatchError(n, g.n_vertices)
        if self.ids is not None:
            object.__setattr__(self, "ids", tuple(self.ids))
            if len(self.ids) != len(self.graphs):
                raise ValueError("ids and graphs must have equal length")

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self):
        return iter(self.graphs)

    def __getitem__(self, k) -> LabelledGraph:
        return self.graphs[k]

    @property
    def n_vertices(self) -> int:
        return self.graphs[0].n_vertices

    def to_matrix(self) -> np.ndarray:
        """Stacked edge-indicator matrix of shape (n_graphs, n_pairs)."""
        return edge_matrix(self.graphs, self.graphs[0].n_pairs)

    def edge_frequencies(self) -> np.ndarray:
        """Per-position empirical edge inclusion frequency."""
        return self.to_matrix().mean(axis=0)


def majority_vote(pop: GraphPopulation) -> LabelledGraph:
    """Graph holding every edge present in strictly more than half the population.

    Ties at exactly half (even population sizes) resolve to edge absent.
    """
    counts = pop.to_matrix().sum(axis=0)
    vec = (2 * counts > len(pop)).astype(np.uint8)
    return LabelledGraph.from_vector(pop.n_vertices, vec)


# ---------------------------------------------------------------------------
# Random graph generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErdosRenyi:
    """Independent edges with common inclusion probability p."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise InvalidSpecError(f"inclusion probability {self.p} outside [0, 1]")


@dataclass(frozen=True)
class StochasticBlockModel:
    """K blocks with categorical memberships and within/between edge probabilities."""

    n_blocks: int
    membership_probs: tuple[float, ...]
    within_p: float
    between_p: float

    def __post_init__(self):
        object.__setattr__(self, "membership_probs", tuple(self.membership_probs))
        if self.n_blocks < 1:
            raise InvalidSpecError("need at least one block")
        if len(self.membership_probs) != self.n_blocks:
            raise InvalidSpecError("membership_probs length must equal n_blocks")
        if any(p < 0 for p in self.membership_probs):
            raise InvalidSpecError("membership probabilities must be nonnegative")
        if abs(sum(self.membership_probs) - 1.0) > 1e-9:
            raise InvalidSpecError("membership probabilities must sum to 1")
        for name in ("within_p", "between_p"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidSpecError(f"{name}={v} outside [0, 1]")


@dataclass(frozen=True)
class SmallWorld:
    """Ring lattice with ``lattice_degree`` neighbours per vertex, single-pass rewiring.

    ``lattice_degree`` counts total ring neighbours per vertex (2 means one on
    each side) and must be even and positive. Each lattice edge (i, i+d) is
    visited once in canonical order; with probability ``rewire_p`` the far
    endpoint is redrawn uniformly among vertices creating neither a self-loop
    nor a duplicate edge.
    """

    lattice_degree: int
    rewire_p: float

    def __post_init__(self):
        if self.lattice_degree < 2 or self.lattice_degree % 2 != 0:
            raise InvalidSpecError("lattice_degree must be a positive even integer")
        if not 0.0 <= self.rewire_p <= 1.0:
            raise InvalidSpecError(f"rewire_p={self.rewire_p} outside [0, 1]")


@dataclass(frozen=True)
class RandomGeometric:
    """Uniform points in the unit square, edges between pairs within ``radius``."""

    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise InvalidSpecError("radius must be positive")


GeneratorSpec = Union[ErdosRenyi, StochasticBlockModel, SmallWorld, RandomGeometric]


def sample_generator(spec: GeneratorSpec, n_vertices: int, rng: np.random.Generator) -> LabelledGraph:
    """One draw from the given random-graph generator on n_vertices vertices."""
    return LabelledGraph.from_vector(n_vertices, sample_generator_matrix(spec, n_vertices, 1, rng)[0])


def sample_generator_matrix(
    spec: GeneratorSpec, n_vertices: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` generator draws stacked as a (count, n_pairs) uint8 edge-indicator matrix.

    Rows are drawn one after another, except that Erdos-Renyi rows, which
    share one edge probability, are one ``bernoulli_bits`` draw, which reads
    the same uniforms in the same order. So ``count`` calls with count = 1
    give the same rows and leave the generator in the same state.
    """
    if n_vertices < 1:
        raise InvalidSpecError("n_vertices must be >= 1")
    if isinstance(spec, ErdosRenyi):
        return bernoulli_bits(rng, spec.p, (count, n_pairs(n_vertices)))
    out = np.empty((count, n_pairs(n_vertices)), dtype=np.uint8)
    for row in out:
        row[:] = _generator_vector(spec, n_vertices, rng)
    return out


def _generator_vector(spec: GeneratorSpec, n_vertices: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(spec, StochasticBlockModel):
        blocks = rng.choice(spec.n_blocks, size=n_vertices, p=spec.membership_probs)
        ii, jj = pair_positions(n_vertices)
        probs = np.where(blocks[ii] == blocks[jj], spec.within_p, spec.between_p)
        return (rng.random(len(probs)) < probs).astype(np.uint8)
    if isinstance(spec, SmallWorld):
        return _small_world_vector(spec, n_vertices, rng)
    if isinstance(spec, RandomGeometric):
        pts = rng.random((n_vertices, 2))
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        ii, jj = pair_positions(n_vertices)
        return (dist[ii, jj] <= spec.radius).astype(np.uint8)
    raise InvalidSpecError(f"unknown generator spec {spec!r}")


def _small_world_vector(spec: SmallWorld, n_vertices: int, rng: np.random.Generator) -> np.ndarray:
    half = spec.lattice_degree // 2
    if half >= n_vertices - half:
        raise InvalidSpecError("lattice_degree too large for this vertex count")
    edges: set[tuple[int, int]] = set()
    for d in range(1, half + 1):
        for i in range(n_vertices):
            j = (i + d) % n_vertices
            edges.add((min(i, j), max(i, j)))
    for d in range(1, half + 1):
        for i in range(n_vertices):
            j = (i + d) % n_vertices
            e = (min(i, j), max(i, j))
            if e not in edges:
                continue  # already rewired away by an earlier visit
            if rng.random() >= spec.rewire_p:
                continue
            candidates = [
                k
                for k in range(n_vertices)
                if k != i and (min(i, k), max(i, k)) not in edges
            ]
            if not candidates:
                continue
            k = candidates[rng.integers(len(candidates))]
            edges.remove(e)
            edges.add((min(i, k), max(i, k)))
    vec = np.zeros(n_pairs(n_vertices), dtype=np.uint8)
    for i, j in edges:
        vec[pair_index(i, j, n_vertices)] = 1
    return vec
