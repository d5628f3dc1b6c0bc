"""Taylor heat kernels and the inner-chain decisions taken on them.

``taylor_heat_kernels`` is a scaling-and-squaring approximation of
``heat_kernels``; ``snf_mh_matrix`` decides on it and re-decides near-ties on
eigh kernels, so its states and distances must stay those of the eigh-only
reference step loop.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from graphpop import inference, metrics
from graphpop.errors import InternalInconsistencyError
from graphpop.graphs import LabelledGraph
from graphpop.inference import _MetricEngine, snf_mh_matrix, spawn_rng
from graphpop.metrics import MetricSpec, heat_kernels, laplacian, taylor_heat_kernels
from test_inference import _reference_snf_mh


def _edge_matrix(rng, k, n, p):
    return (rng.random((k, n * (n - 1) // 2)) < p).astype(np.uint8)


class TestTaylorHeatKernels:
    @settings(deadline=None, max_examples=80)
    @given(
        n=st.integers(1, 20),
        k=st.integers(1, 6),
        p=st.floats(0.0, 1.0),
        t=st.sampled_from([0.05, 0.3, 1.0, 2.5, 10.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_eigh_kernels(self, n, k, p, t, seed):
        mat = _edge_matrix(np.random.default_rng(seed), k, n, p)
        approx = taylor_heat_kernels(mat, n, t)
        assert approx.shape == (k, n, n)
        assert np.abs(approx - heat_kernels(mat, n, t)).max() <= 1e-12

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("t", [0.05, 1.0, 10.0])
    def test_matches_eigh_kernels_at_n50(self, p, t):
        mat = _edge_matrix(np.random.default_rng(50), 3, 50, p)
        assert np.abs(taylor_heat_kernels(mat, 50, t) - heat_kernels(mat, 50, t)).max() <= 1e-12

    def test_laplacians_match_the_single_graph_builder(self):
        rng = np.random.default_rng(7)
        mat = _edge_matrix(rng, 5, 9, 0.4)
        laps = metrics._laplacians(mat, 9)
        for row, lap in zip(mat, laps):
            ref = laplacian(LabelledGraph.from_vector(9, row))
            assert np.array_equal(lap, ref)
            # No -0.0 anywhere: bits, not just values, match.
            assert not np.signbit(lap[lap == 0.0]).any()


class TestMetricEngine:
    N = 9

    def _engine_and_mode(self, metric=MetricSpec(kind="diffusion", t=0.7)):
        rng = spawn_rng(40)
        return _MetricEngine(metric, self.N), random_graph(self.N, rng, p=0.3).to_vector(), rng

    def test_mode_kernel_is_computed_once_per_mode(self, monkeypatch):
        engine, mode_vec, rng = self._engine_and_mode()
        calls = []

        def counting(mat, n, t):
            calls.append(mat.tobytes())
            return metrics.heat_kernels(mat, n, t)

        monkeypatch.setattr(inference, "heat_kernels", counting)
        mat = np.stack([random_graph(self.N, rng).to_vector() for _ in range(4)])
        first = engine.dist_to(mat, mode_vec)
        assert np.array_equal(engine.dist_to(mat, mode_vec.copy()), first)
        assert len(calls) == 1
        other = mode_vec ^ 1
        engine.dist_to(mat, other)
        engine.dist_to(mat, other)
        assert len(calls) == 2

    def test_chunked_rows_equal_one_batch(self):
        engine, mode_vec, rng = self._engine_and_mode()
        mat = np.stack([random_graph(self.N, rng).to_vector() for _ in range(7)])
        whole = engine.dist_to(mat, mode_vec)
        engine.chunk = 2
        assert np.array_equal(engine.dist_to(mat, mode_vec), whole)

    @pytest.mark.parametrize("n", [15, 50])
    def test_taylor_batches_allocate_no_kernel_stack(self, n):
        # Once warmed up, a batch of a chunk of rows is scored in the engine's
        # workspace and turned into distances in place, bit for bit as the
        # kernel's own fresh arrays would give.
        engine = _MetricEngine(MetricSpec(kind="diffusion", t=1.0), n)
        rng = spawn_rng(42)
        mode_vec = random_graph(n, rng, p=0.1).to_vector()
        rows = _edge_matrix(rng, engine.chunk, n, 0.1)
        fresh = engine.dist_to(rows, mode_vec, lambda m, n_, t: taylor_heat_kernels(m, n_, t))
        engine.dist_to(rows, mode_vec, taylor_heat_kernels)
        tracemalloc.start()
        try:
            for _ in range(10):
                got = engine.dist_to(rows, mode_vec, taylor_heat_kernels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, fresh)
        assert peak < engine.chunk * n * n * 8  # one (k, N, N) float64 array

    @pytest.mark.parametrize(
        "metric, n",
        [
            (MetricSpec(kind="diffusion", t=0.7), 9),
            (MetricSpec(kind="hamming"), 9),
            (MetricSpec(kind="diffusion", t=0.7), 4),
        ],
    )
    def test_distance_is_symmetric_bit_for_bit(self, metric, n):
        rng = spawn_rng(41)
        engine = _MetricEngine(metric, n)
        a, b = (random_graph(n, rng, p=0.4).to_vector() for _ in range(2))
        assert engine.dist_to(a[None, :], b)[0] == engine.dist_to(b[None, :], a)[0]


class TestTaylorDecisions:
    N_VERTICES, N_CHAINS, STEPS = 8, 6, 40
    TAU = 1.0 / 28

    CASES = [
        (MetricSpec(kind="diffusion", t=1.0), 4.0),
        (MetricSpec(kind="diffusion", t=0.3, phi="square"), 30.0),
        (MetricSpec(kind="diffusion", t=5.0), 0.5),
    ]

    def _run(self, metric, gamma, with_start):
        rng = spawn_rng(51)
        mode_vec = random_graph(self.N_VERTICES, rng, p=0.3).to_vector()
        start = None
        if with_start:
            start = np.stack(
                [random_graph(self.N_VERTICES, rng).to_vector() for _ in range(self.N_CHAINS)]
            )
        engine = _MetricEngine(metric, self.N_VERTICES)
        args = (self.N_CHAINS, self.STEPS, self.TAU)
        got = snf_mh_matrix(mode_vec, gamma, engine, *args, spawn_rng(52), start)
        ref = _reference_snf_mh(
            mode_vec, gamma, metric, self.N_VERTICES, *args, spawn_rng(52), start
        )
        initial = np.tile(mode_vec, (self.N_CHAINS, 1)) if start is None else start
        assert not np.array_equal(got[0], initial)
        return got, ref

    @pytest.mark.parametrize("metric, gamma", CASES)
    @pytest.mark.parametrize("with_start", [False, True])
    def test_forced_fallback_equals_reference(self, monkeypatch, metric, gamma, with_start):
        # An infinite band sends every decision to eigh distances. The Taylor
        # kernels are then offset far off, and must not matter.
        monkeypatch.setattr(inference, "TAYLOR_BAND", float("inf"))
        monkeypatch.setattr(
            inference,
            "taylor_heat_kernels",
            lambda mat, n, t: metrics.taylor_heat_kernels(mat, n, t) + 0.25,
        )
        (states, d), (ref_states, ref_d) = self._run(metric, gamma, with_start)
        assert np.array_equal(states, ref_states)
        assert np.array_equal(d, ref_d)

    @pytest.mark.parametrize("metric, gamma", CASES)
    def test_taylor_decisions_equal_reference(self, metric, gamma):
        (states, d), (ref_states, ref_d) = self._run(metric, gamma, False)
        assert np.array_equal(states, ref_states)
        assert np.array_equal(d, ref_d)

    def test_offset_taylor_kernel_raises(self, monkeypatch):
        # Heat kernels are stochastic matrices, so an offset on every entry
        # cancels from the distance to first order; one on the diagonal does not.
        monkeypatch.setattr(
            inference,
            "taylor_heat_kernels",
            lambda mat, n, t: metrics.taylor_heat_kernels(mat, n, t) + 1e-6 * np.eye(n),
        )
        with pytest.raises(InternalInconsistencyError, match="decision band"):
            self._run(MetricSpec(kind="diffusion", t=1.0), 4.0, False)
