"""SNF draws against the enumeration oracle ``snf_exact``.

At N <= 5 ``snf_mh_matrix`` draws exactly from the categorical law over the
enumerated space. Above N = 5 it runs flip-kernel Metropolis chains; forcing
that path on an N = 4 engine keeps an oracle on the chain code.

Every bound is sampling noise only. With n draws the expected total variation
between the empirical and the true law is at most 1/2 sum_i sqrt(p_i (1 - p_i)
/ n) (Jensen on each |p_hat_i - p_i|), and one draw moves the TV by at most
1/n, so by McDiarmid it exceeds that by sqrt(log(1/delta) / (2 n)) with
probability at most delta.
"""

from math import log, sqrt

import numpy as np
import pytest

from graphpop.graphs import LabelledGraph
from graphpop.inference import _MetricEngine, snf_mh_matrix, spawn_rng
from graphpop.metrics import MetricSpec
from graphpop.models import SnfParams, snf_exact

DELTA = 1e-6


def _tv_bound(probs: np.ndarray, n: int) -> float:
    return 0.5 * float(np.sqrt(probs * (1.0 - probs) / n).sum()) + sqrt(log(1.0 / DELTA) / (2 * n))


def _empirical_tv(engine: _MetricEngine, states: np.ndarray, probs: np.ndarray) -> float:
    counts = np.bincount(engine.row_bits(states).astype(np.int64), minlength=probs.size)
    return 0.5 * float(np.abs(counts / states.shape[0] - probs).sum())


def _mode(n_vertices: int) -> LabelledGraph:
    return LabelledGraph.from_edges(n_vertices, [(0, 1), (1, 2)])


EXACT_CASES = [
    (n, MetricSpec(kind=kind, phi=phi), gamma)
    for n in (3, 4, 5)
    for kind, phi, gamma in (("hamming", "identity", 1.0), ("diffusion", "identity", 4.0))
] + [(4, MetricSpec(kind="diffusion", phi="square"), 2.0)]


class TestExactDraws:
    N_DRAWS = 100_000

    @pytest.mark.parametrize(
        "n_vertices, metric, gamma",
        EXACT_CASES,
        ids=[f"n{n}-{m.kind}-{m.phi}" for n, m, _ in EXACT_CASES],
    )
    def test_draws_follow_snf_exact(self, n_vertices, metric, gamma):
        mode = _mode(n_vertices)
        engine = _MetricEngine(metric, n_vertices)
        assert engine.small
        probs = snf_exact(SnfParams(mode, gamma, metric)).probs
        states, d = snf_mh_matrix(
            mode.to_vector(), gamma, engine, self.N_DRAWS, 1, 0.5, spawn_rng(11)
        )
        assert states.dtype == np.uint8 and states.shape == (self.N_DRAWS, mode.n_pairs)
        assert _empirical_tv(engine, states, probs) <= _tv_bound(probs, self.N_DRAWS)
        drawn = engine.row_bits(states).astype(np.int64)
        assert np.array_equal(d, engine.table[mode.edge_bits][drawn])

    @pytest.mark.parametrize("kind", ["hamming", "diffusion"])
    def test_steps_tau_and_start_do_not_act(self, kind):
        engine = _MetricEngine(MetricSpec(kind=kind), 5)
        mode_vec = _mode(5).to_vector()
        start = np.random.default_rng(3).integers(0, 2, (50, engine.ne), dtype=np.uint8)
        runs = [
            snf_mh_matrix(mode_vec, 2.0, engine, 50, steps, tau, spawn_rng(12), st)
            for steps, tau, st in ((1, 0.5, None), (200, 0.1, None), (7, 0.01, start))
        ]
        for states, d in runs[1:]:
            assert np.array_equal(states, runs[0][0])
            assert np.array_equal(d, runs[0][1])

    def test_single_vertex_draws_are_empty_graphs(self):
        engine = _MetricEngine(MetricSpec(), 1)
        states, d = snf_mh_matrix(np.zeros(0, np.uint8), 1.0, engine, 4, 1, 0.5, spawn_rng(0))
        assert states.shape == (4, 0) and np.array_equal(d, np.zeros(4))


class TestChainPathOracle:
    """The large-N chain path (``_run_proposals``) forced on an N = 4 engine."""

    N_CHAINS = 20_000

    @pytest.mark.parametrize("kind, gamma", [("hamming", 1.0), ("diffusion", 4.0)])
    def test_chain_endpoints_follow_snf_exact(self, kind, gamma):
        metric = MetricSpec(kind=kind)
        mode = _mode(4)
        engine = _MetricEngine(metric, 4)
        engine.small = False
        probs = snf_exact(SnfParams(mode, gamma, metric)).probs
        bound = _tv_bound(probs, self.N_CHAINS)
        tau = 1.0 / engine.ne
        # 20 N_e steps leave the chain law within ~1e-6 of the target in TV
        # (powers of the 64-state transition matrix), so only noise remains.
        # One step from the mode is ~0.67 away, which the bound must reject.
        for steps, within in ((20 * engine.ne, True), (1, False)):
            states, d = snf_mh_matrix(
                mode.to_vector(), gamma, engine, self.N_CHAINS, steps, tau, spawn_rng(13)
            )
            assert (_empirical_tv(engine, states, probs) <= bound) == within
            drawn = engine.row_bits(states).astype(np.int64)
            assert np.allclose(d, engine.table[mode.edge_bits][drawn], rtol=0, atol=1e-12)
