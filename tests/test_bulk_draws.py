"""Bulk Bernoulli draws through a fixed buffer: the same stream, bounded memory.

``graphs.bernoulli_bits`` must give the bits and leave the generator state of
the one-shot ``(rng.random(shape) < p).astype(np.uint8)`` at any buffer size.
Its two bulk callers, ``models.cer_sample_matrix`` and
``inference.snf_mh_matrix``, must then peak at their output plus a few MiB,
whatever the draw count. ``tracemalloc`` sees numpy's array allocations.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from graphpop import graphs, inference
from graphpop.graphs import bernoulli_bits, n_pairs
from graphpop.inference import _MetricEngine, snf_mh_matrix
from graphpop.metrics import MetricSpec, taylor_workspace
from graphpop.models import CerParams, cer_sample_matrix

MIB = 1 << 20


def one_shot(rng, p, shape):
    return (rng.random(shape) < p).astype(np.uint8)


def assert_same_draw(p, shape, seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = bernoulli_bits(rng, p, shape), one_shot(ref, p, shape)
    assert got.dtype == np.uint8 and got.flags.c_contiguous
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    assert rng.bit_generator.state == ref.bit_generator.state
    # The streams stay in step after the call.
    assert rng.random() == ref.random()


shapes = st.lists(st.integers(0, 6), min_size=1, max_size=3).map(tuple)


@settings(max_examples=200, deadline=None)
@given(
    shape=shapes,
    p=st.sampled_from([0.0, 1e-3, 0.3, 0.5, 1.0]),
    buffer=st.sampled_from([1, 7, None]),
    seed=st.integers(0, 2**32 - 1),
)
def test_equals_the_one_shot_draw(shape, p, buffer, seed):
    with pytest.MonkeyPatch.context() as mp:
        if buffer is not None:
            mp.setattr(graphs, "BERNOULLI_BUFFER", buffer)
        assert_same_draw(p, shape, seed)


@pytest.mark.parametrize("buffer", [1, 7, 100])
@pytest.mark.parametrize("shape", [(0,), (0, 5), (5, 0), (3, 0, 4), (2, 3, 0)])
def test_zero_length_axes_draw_nothing(shape, buffer, monkeypatch):
    monkeypatch.setattr(graphs, "BERNOULLI_BUFFER", buffer)
    assert_same_draw(0.4, shape, 11)


@pytest.mark.parametrize(
    "shape", [(3, 100_000), (2, 300_000), (7, 3, 1225), (600_001,)], ids=str
)
def test_default_buffer_across_chunk_boundaries(shape):
    assert_same_draw(0.1, shape, 5)


def traced_peak(fn):
    """``fn()`` and the peak bytes tracemalloc saw allocated while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cer_sample_matrix_peaks_at_its_output_plus_the_buffer():
    rng = np.random.default_rng(3)
    params = CerParams(random_graph(50, rng, p=0.1), 0.1)
    out, peak = traced_peak(lambda: cer_sample_matrix(params, 20_000, rng))
    assert out.shape == (20_000, n_pairs(50))
    assert peak <= out.nbytes + 4 * MIB


def test_snf_inner_chains_peak_below_16_mib_under_hamming():
    rng = np.random.default_rng(4)
    engine = _MetricEngine(MetricSpec(kind="hamming"), 50)
    mode = random_graph(50, rng, p=0.1).to_vector()
    (states, d), peak = traced_peak(
        lambda: snf_mh_matrix(mode, 4.6, engine, 10, 1000, 1.0 / engine.ne, rng)
    )
    assert states.shape == (10, engine.ne) and d.shape == (10,)
    assert peak <= 16 * MIB


@pytest.mark.parametrize(
    "metric, n_vertices, steps",
    [(MetricSpec(kind="hamming"), 50, 1000), (MetricSpec(kind="diffusion", t=1.0), 15, 2100)],
    ids=["hamming-n50", "diffusion-n15"],
)
def test_snf_inner_chains_hold_one_proposal_block(metric, n_vertices, steps):
    # A block is held once, bit-packed, beside the prefix XOR of its non-empty
    # masks (~63% of it at tau = 1/N_e), and is freed before the chains run.
    # While it is drawn, its masks stream through one sub-chunk; while the
    # chains run, a diffusion engine adds its Taylor workspace.
    rng = np.random.default_rng(4)
    engine = _MetricEngine(metric, n_vertices)
    mode = random_graph(n_vertices, rng, p=0.1).to_vector()
    n_chains = 10
    (states, d), peak = traced_peak(
        lambda: snf_mh_matrix(mode, 4.6, engine, n_chains, steps, 1.0 / engine.ne, rng)
    )
    assert states.shape == (n_chains, engine.ne) and d.shape == (n_chains,)
    # Three blocks of 342 steps at N = 50, one of 2100 steps at N = 15.
    masks = min(steps, (1 << 22) // (n_chains * engine.ne)) * n_chains
    packed = masks * -(-engine.ne // 64) * 8
    prefix = packed + packed // masks  # every mask non-empty, after a zero row
    log_u = 8 * masks
    index = 2 * 8 * masks  # chain and row of each non-empty mask
    sub_chunk = 9 * inference.MASK_CHUNK  # its uniforms and bits
    workspace = 0
    if metric.kind == "diffusion":
        workspace = taylor_workspace(engine.chunk, n_vertices).nbytes
    drawing = packed + prefix + log_u + index + sub_chunk
    running = prefix + log_u + workspace
    # A uint8 block (1 byte a mask entry) or a 2 MiB uniform buffer exceeds this.
    assert peak <= max(drawing, running) + MIB // 4
