import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from graphpop.errors import SizeMismatchError
from graphpop.graphs import GraphPopulation, LabelledGraph, enumerate_graph_space
from graphpop.metrics import (
    DistanceMatrix,
    MetricSpec,
    classical_mds,
    diffusion_distance,
    distance_matrix,
    hamming,
    heat_kernel,
    heat_kernels,
    laplacian,
)


class TestHamming:
    def test_identity(self):
        g = LabelledGraph.from_edges(4, [(0, 1), (1, 2)])
        assert hamming(g, g) == 0

    def test_empty_vs_complete(self):
        empty = LabelledGraph(3, 0)
        complete = LabelledGraph(3, 0b111)
        assert hamming(empty, complete) == 3

    def test_matches_entrywise_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g1, g2 = random_graph(5, rng), random_graph(5, rng)
            a1, a2 = g1.to_adjacency(), g2.to_adjacency()
            brute = int((a1 != a2).sum()) // 2  # upper triangle only
            assert hamming(g1, g2) == brute

    def test_popcount_equivalence(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            g1, g2 = random_graph(4, rng), random_graph(4, rng)
            assert hamming(g1, g2) == (g1.edge_bits ^ g2.edge_bits).bit_count()

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            hamming(LabelledGraph(3, 0), LabelledGraph(4, 0))


class TestLaplacian:
    def test_empty_graph(self):
        assert np.array_equal(laplacian(LabelledGraph(3, 0)), np.zeros((3, 3)))

    def test_single_edge(self):
        got = laplacian(LabelledGraph.from_edges(2, [(0, 1)]))
        assert np.array_equal(got, np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_triangle(self):
        got = laplacian(LabelledGraph(3, 0b111))
        assert np.array_equal(np.diag(got), np.full(3, 2.0))
        assert np.allclose(got.sum(axis=1), 0.0)

    def test_row_sums_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = random_graph(5, rng)
            assert np.allclose(laplacian(g).sum(axis=1), 0.0, atol=1e-12)


class TestHeatKernel:
    def test_empty_graph_gives_identity(self):
        for t in (0.1, 1.0, 10.0):
            assert np.allclose(heat_kernel(LabelledGraph(4, 0), t), np.eye(4), atol=1e-12)

    def test_two_node_closed_form(self):
        # Eigenvalues of the single-edge Laplacian are {0, 2}; diagonalizing by
        # hand gives K = 0.5 * [[1+e^{-2t}, 1-e^{-2t}], [1-e^{-2t}, 1+e^{-2t}]].
        g = LabelledGraph.from_edges(2, [(0, 1)])
        e = math.exp(-2.0)
        expected = 0.5 * np.array([[1 + e, 1 - e], [1 - e, 1 + e]])
        assert np.allclose(heat_kernel(g, 1.0), expected, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_graph(5, rng)
            for t in (0.5, 1.0, 3.0):
                assert np.abs(heat_kernel(g, t).sum(axis=1) - 1.0).max() < 1e-10

    def test_small_t_limit_is_identity(self):
        rng = np.random.default_rng(4)
        g = random_graph(5, rng)
        k = heat_kernel(g, 1e-8)
        assert np.linalg.norm(k - np.eye(5), ord="fro") < 1e-6

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            heat_kernel(LabelledGraph(3, 0), 0.0)


def _reference_heat_kernel(g, t):
    # The single-matrix eigendecomposition route, kept as the bit-level reference.
    eigvals, eigvecs = np.linalg.eigh(laplacian(g))
    kernel = (eigvecs * np.exp(-t * eigvals)) @ eigvecs.T
    return 0.5 * (kernel + kernel.T)


class TestHeatKernels:
    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(1, 20),
        k=st.integers(1, 6),
        p=st.floats(0.0, 1.0),
        t=st.sampled_from([0.3, 1.0, 2.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_single_graph_kernels(self, n, k, p, t, seed):
        rng = np.random.default_rng(seed)
        mat = (rng.random((k, n * (n - 1) // 2)) < p).astype(np.uint8)
        stack = heat_kernels(mat, n, t)
        assert stack.shape == (k, n, n)
        for row, kernel in zip(mat, stack):
            g = LabelledGraph.from_vector(n, row)
            assert np.array_equal(kernel, heat_kernel(g, t))
            assert np.array_equal(kernel, _reference_heat_kernel(g, t))

    def test_cached_kernel_is_read_only(self):
        k = heat_kernel(LabelledGraph.from_edges(3, [(0, 1)]), 1.0)
        assert not k.flags.writeable


class TestDiffusionDistance:
    def test_identity(self):
        rng = np.random.default_rng(5)
        g = random_graph(4, rng)
        assert diffusion_distance(g, g, 1.0) == 0.0

    def test_two_node_closed_form(self):
        # Kernel difference has off/on-diagonal entries +/- (1-e^{-2})/2; the
        # squared Frobenius norm is 4 * ((1-e^{-2})/2)^2 = (1-e^{-2})^2.
        empty = LabelledGraph(2, 0)
        edge = LabelledGraph.from_edges(2, [(0, 1)])
        expected = (1.0 - math.exp(-2.0)) ** 2
        assert abs(diffusion_distance(empty, edge, 1.0) - expected) < 1e-12
        assert abs(expected - 0.7476450724155088) < 1e-15

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            g1, g2 = random_graph(4, rng), random_graph(4, rng)
            assert diffusion_distance(g1, g2, 1.0) == diffusion_distance(g2, g1, 1.0)


class TestMetricAxiomsOnFullSpace:
    def test_hamming_axioms_at_n4(self):
        space = enumerate_graph_space(4)
        size = len(space)
        d = np.zeros((size, size))
        for i in range(size):
            for j in range(i + 1, size):
                d[i, j] = d[j, i] = hamming(space[i], space[j])
        assert d.min() >= 0
        assert np.array_equal(d, d.T)
        assert np.all((d == 0) == np.eye(size, dtype=bool))
        for k in range(size):
            assert np.all(d <= d[:, [k]] + d[[k], :] + 1e-12)

    def test_diffusion_axioms_at_n4(self):
        space = enumerate_graph_space(4)
        size = len(space)
        d = np.zeros((size, size))
        for i in range(size):
            for j in range(i + 1, size):
                d[i, j] = d[j, i] = diffusion_distance(space[i], space[j], 1.0)
        assert d.min() >= 0
        assert np.allclose(d, d.T)
        off_diag = d + np.eye(size)
        assert off_diag.min() > 0  # zero iff equal


class TestDistanceMatrix:
    def test_identical_population(self):
        g = LabelledGraph.from_edges(3, [(0, 1)])
        dm = distance_matrix(GraphPopulation((g, g, g)), MetricSpec())
        assert np.array_equal(dm.values, np.zeros((3, 3)))

    def test_two_graphs(self):
        g1 = LabelledGraph.from_edges(3, [(0, 1)])
        g2 = LabelledGraph.from_edges(3, [(0, 1), (1, 2)])
        dm = distance_matrix(GraphPopulation((g1, g2)), MetricSpec())
        assert dm.values[0, 1] == dm.values[1, 0] == 1.0

    def test_matches_pairwise_calls(self):
        rng = np.random.default_rng(7)
        graphs = tuple(random_graph(5, rng) for _ in range(5))
        pop = GraphPopulation(graphs)
        dm = distance_matrix(pop, MetricSpec())
        for i in range(5):
            for j in range(5):
                if i != j:
                    assert dm.values[i, j] == hamming(graphs[i], graphs[j])

    def test_phi_not_applied(self):
        g1, g2 = LabelledGraph(3, 0), LabelledGraph(3, 0b111)
        dm = distance_matrix(GraphPopulation((g1, g2)), MetricSpec(phi="square"))
        assert dm.values[0, 1] == 3.0  # raw distance, not 9


class TestClassicalMds:
    def test_zero_matrix(self):
        dm = DistanceMatrix(np.zeros((4, 4)))
        assert np.allclose(classical_mds(dm, 2), 0.0)

    def test_collinear_points(self):
        dm = DistanceMatrix(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]))
        coords = classical_mds(dm, 1)[:, 0]
        gaps = np.abs(np.diff(coords))
        assert np.allclose(gaps, 1.0, atol=1e-10)

    def test_euclidean_roundtrip(self):
        rng = np.random.default_rng(8)
        pts = rng.random((6, 2))
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        coords = classical_mds(DistanceMatrix(d), 2)
        d2 = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))
        assert np.abs(d - d2).max() < 1e-8

    def test_dim_guard(self):
        dm = DistanceMatrix(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            classical_mds(dm, 3)
