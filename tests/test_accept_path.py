"""Accept-path batches in ``snf_mh_matrix``.

Each chain runs through its own non-empty proposals, and one distance batch
scores up to w of a chain's next proposals along the path on which it accepts
them all, w set by the running acceptance and the engine's chunk of rows.
Every decision must still see the candidate, current state and log u of the
sequential step loop, so states and distances must equal the reference
loop's bit for bit, while the kernel is called far less often.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from graphpop import inference, metrics
from graphpop.inference import _MetricEngine, snf_mh_matrix, spawn_rng
from graphpop.metrics import MetricSpec
from test_inference import _reference_snf_mh


def _run_both(metric, n, gamma, n_chains, steps, seed, with_start, engine=None):
    rng = spawn_rng(seed)
    mode_vec = random_graph(n, rng, p=0.3).to_vector()
    start = None
    if with_start:
        start = np.stack([random_graph(n, rng).to_vector() for _ in range(n_chains)])
    engine = engine or _MetricEngine(metric, n)
    assert not engine.small
    tau = 1.0 / engine.ne
    got = snf_mh_matrix(mode_vec, gamma, engine, n_chains, steps, tau, spawn_rng(seed + 1), start)
    ref = _reference_snf_mh(
        mode_vec, gamma, metric, n, n_chains, steps, tau, spawn_rng(seed + 1), start
    )
    return got, ref


def _assert_same(got, ref):
    assert got[0].dtype == np.uint8
    assert np.array_equal(got[0], ref[0])
    assert np.array_equal(got[1], ref[1])


class TestEqualsSequentialLoop:
    @settings(deadline=None, max_examples=60)
    @given(
        kind=st.sampled_from(["hamming", "diffusion"]),
        n=st.integers(6, 10),
        n_chains=st.integers(1, 8),
        steps=st.integers(0, 60),
        gamma=st.sampled_from([0.05, 0.5, 4.0, 30.0, 300.0]),
        t=st.sampled_from([0.3, 1.0, 5.0]),
        phi=st.sampled_from(["identity", "square"]),
        with_start=st.booleans(),
        seed=st.integers(0, 2**31),
    )
    def test_bit_identical_to_reference(
        self, kind, n, n_chains, steps, gamma, t, phi, with_start, seed
    ):
        metric = MetricSpec(kind=kind, t=t, phi=phi)
        _assert_same(*_run_both(metric, n, gamma, n_chains, steps, seed, with_start))

    def test_hamming_across_proposal_blocks(self):
        # 4M mask entries / (10 chains * 1225 pairs) = 342 steps per block.
        metric = MetricSpec(kind="hamming")
        (states, d), ref = _run_both(metric, 50, 1.0, 10, 400, 61, False)
        assert (1 << 22) // (10 * 1225) < 400
        assert d.max() > 0
        _assert_same((states, d), ref)

    def test_hamming_across_mask_sub_chunks(self, monkeypatch):
        # One block of 1000 steps, its masks drawn in sub-chunks of whole
        # steps of at most MASK_CHUNK entries: 58 steps of 20 chains * 28 pairs.
        blocks, draws = [], []
        real_block, real_bits = inference._proposal_block, inference.bernoulli_bits

        def block(rng, tau, m, *args):
            blocks.append(m)
            return real_block(rng, tau, m, *args)

        def bits(rng, p, shape):
            draws.append(shape[0] * shape[1])
            return real_bits(rng, p, shape)

        monkeypatch.setattr(inference, "_proposal_block", block)
        monkeypatch.setattr(inference, "bernoulli_bits", bits)
        metric = MetricSpec(kind="hamming")
        (states, d), ref = _run_both(metric, 8, 1.0, 20, 1000, 65, False)
        assert blocks == [1000]
        assert len(draws) == 18 and max(draws) <= inference.MASK_CHUNK
        assert d.max() > 0
        _assert_same((states, d), ref)

    @pytest.mark.parametrize("gamma", [0.5, 4.0])
    @pytest.mark.parametrize("phi", ["identity", "square"])
    def test_wide_band_ties_inside_windows(self, monkeypatch, gamma, phi):
        # With a wide band many decisions are near-ties, so windows end before
        # a tie and the next one re-decides it at its head on eigh distances.
        monkeypatch.setattr(inference, "TAYLOR_BAND", 0.05)
        redecided = []
        real = inference._decide_on_eigh

        def spy(rows, *args):
            redecided.append(len(rows))
            return real(rows, *args)

        monkeypatch.setattr(inference, "_decide_on_eigh", spy)
        metric = MetricSpec(kind="diffusion", t=1.0, phi=phi)
        _assert_same(*_run_both(metric, 8, gamma, 6, 80, 62, False))
        assert sum(redecided) > 0

    def test_rows_per_batch_stay_within_the_chunk(self):
        metric = MetricSpec(kind="diffusion", t=1.0)
        engine = _MetricEngine(metric, 8)
        engine.chunk = 5
        rows = []
        real = engine.dist_to

        def recording(mat, mode_vec, kernels=metrics.heat_kernels):
            rows.append(mat.shape[0])
            return real(mat, mode_vec, kernels)

        engine.dist_to = recording
        # Two chains fit two proposals each in a chunk of 5 rows, one alone five.
        _assert_same(*_run_both(metric, 8, 0.5, 2, 80, 63, False, engine))
        assert max(rows) == 5


class TestFewerKernelBatches:
    N, CHAINS, STEPS = 8, 6, 300

    def _count(self, monkeypatch, gamma):
        calls, rows = [], []
        real = metrics.taylor_heat_kernels

        def counting(mat, n, t):
            calls.append(1)
            rows.append(mat.shape[0])
            return real(mat, n, t)

        monkeypatch.setattr(inference, "taylor_heat_kernels", counting)
        metric = MetricSpec(kind="diffusion", t=1.0)
        _assert_same(*_run_both(metric, self.N, gamma, self.CHAINS, self.STEPS, 64, False))
        ne = self.N * (self.N - 1) // 2
        masks = spawn_rng(65).random((self.STEPS, self.CHAINS, ne)) < 1.0 / ne
        moving = masks.any(axis=2)
        return len(calls), sum(rows), int(moving.any(axis=1).sum()), int(moving.sum())

    def test_high_acceptance_halves_the_batches(self, monkeypatch):
        # At gamma = 0.5 these chains accept 98% of their proposals.
        calls, _, moving_steps, _ = self._count(monkeypatch, 0.5)
        assert calls <= moving_steps / 2

    def test_low_acceptance_wastes_few_rows(self, monkeypatch):
        # At gamma = 300 almost every proposal is rejected, so windows are one
        # proposal long and nearly every scored row is a decision.
        _, rows, _, proposals = self._count(monkeypatch, 300.0)
        assert rows <= 1.1 * proposals
