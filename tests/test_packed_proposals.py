"""Bit-packed proposal blocks in ``snf_mh_matrix``.

A block's flip masks, the prefix XOR of its non-empty ones and the chain
states are held as ceil(N_e / 64) uint64 words per row. Rows of more than one
word must step bit for bit like the reference loop, on both the one-proposal
and the window path, and the packed block bounds the inner chains' memory.
"""

import numpy as np
import pytest

from conftest import random_graph
from graphpop import metrics
from graphpop.inference import _MetricEngine, _pack, _unpack, snf_mh_matrix, spawn_rng
from graphpop.metrics import MetricSpec
from test_accept_path import _assert_same, _run_both
from test_bulk_draws import MIB, traced_peak


@pytest.mark.parametrize("ne", [1, 63, 64, 65, 66, 120, 1225])
def test_pack_round_trips_across_word_boundaries(ne):
    rows = (np.random.default_rng(ne).random((5, ne)) < 0.5).astype(np.uint8)
    words = _pack(rows)
    assert words.dtype == np.uint64 and words.shape == (5, -(-ne // 64))
    assert np.array_equal(_unpack(words, ne), rows)
    # Bit p of a row is entry p: the layout of LabelledGraph.edge_bits.
    bits = [sum(int(w) << (64 * i) for i, w in enumerate(row)) for row in words]
    assert bits == [int("".join(map(str, row[::-1])), 2) for row in rows]


@pytest.mark.parametrize("with_start", [False, True], ids=["from-mode", "from-start"])
@pytest.mark.parametrize(
    "metric, gamma",
    [(MetricSpec(kind="hamming"), 0.3), (MetricSpec(kind="diffusion", t=1.0), 2.0)],
    ids=["hamming", "diffusion"],
)
@pytest.mark.parametrize("n", [12, 16], ids=["n12-66-pairs", "n16-120-pairs"])
def test_multi_word_rows_match_the_reference_loop(n, metric, gamma, with_start):
    engine = _MetricEngine(metric, n)
    assert engine.ne > 64
    rows = []
    real = engine.dist_to

    def recording(mat, mode_vec, kernels=metrics.heat_kernels):
        rows.append(mat.shape[0])
        return real(mat, mode_vec, kernels)

    engine.dist_to = recording
    n_chains = 4
    (states, d), ref = _run_both(metric, n, gamma, n_chains, 150, 70 + n, with_start, engine)
    _assert_same((states, d), ref)
    # Both paths ran: batches of more rows than chains are accept-path windows.
    assert max(rows) > n_chains and min(rows) <= n_chains


@pytest.mark.parametrize("kind", ["hamming", "diffusion"])
def test_zero_chains_draw_nothing(kind):
    engine = _MetricEngine(MetricSpec(kind=kind), 8)
    states, d = snf_mh_matrix(np.zeros(28, np.uint8), 1.0, engine, 0, 50, 0.1, spawn_rng(0))
    assert states.shape == (0, 28) and d.shape == (0,)


@pytest.mark.parametrize(
    "metric, n_vertices, n_chains, steps",
    [
        (MetricSpec(kind="hamming"), 50, 10, 1000),
        (MetricSpec(kind="diffusion", t=1.0), 15, 20, 2100),
    ],
    ids=["hamming-n50", "diffusion-n15"],
)
def test_inner_chains_peak_below_4_mib(metric, n_vertices, n_chains, steps):
    # Unpacked, a block of 4M uint8 masks beside its prefix XOR peaked at 6.9
    # and 7.8 MiB; as bits the peak is the block and, under diffusion, the
    # Taylor workspace.
    rng = np.random.default_rng(4)
    engine = _MetricEngine(metric, n_vertices)
    mode = random_graph(n_vertices, rng, p=0.1).to_vector()
    (states, d), peak = traced_peak(
        lambda: snf_mh_matrix(mode, 4.6, engine, n_chains, steps, 1.0 / engine.ne, rng)
    )
    assert states.shape == (n_chains, engine.ne) and d.shape == (n_chains,)
    assert peak <= 4 * MIB
