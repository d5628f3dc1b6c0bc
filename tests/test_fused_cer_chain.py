"""The fused CER/CER chain against numpy's draws and the step-by-step reference.

``fit_cer_cer`` draws each iteration's kernel, mask and mode-decision uniforms
in one ``rng.random(out=)`` call and its step-size index from raw 64-bit words
(``inference._bounded_indices``). Both must reproduce the separate
``Generator.random`` and ``Generator.integers`` calls of the reference chain in
``test_cer_step.py`` bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpop.inference import CerCerHyper, McmcConfig, _bounded_indices, fit_cer_cer
from test_cer_step import _population, assert_same_trace, reference_fit_cer_cer

# 2^31 + 1 and 3 * 2^30 reject 50% and 25% of 32-bit halves, so Lemire's
# redraw runs on most calls.
INDEX_BOUNDS = (1, 2, 3, 7, 2**31 + 1, 3 * 2**30)


@pytest.mark.parametrize("k", INDEX_BOUNDS)
@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1])
def test_index_stream_matches_integers_interleaved_with_doubles(k, seed):
    """``_bounded_indices`` against ``Generator.integers(k)`` and ``random()`` in turn.

    The emulation keeps the spare 32-bit half itself, where numpy keeps it in
    the bit generator, so it is valid only while nothing else draws 32-bit
    values from that generator; here only doubles are drawn between indices.
    """
    want_rng = np.random.Generator(np.random.PCG64(seed))
    got_rng = np.random.Generator(np.random.PCG64(seed))
    indices = _bounded_indices(got_rng.bit_generator, k)
    for i in range(600):
        assert next(indices) == want_rng.integers(k)
        # Vary the doubles between indices: 0, 1 or 2 of them.
        for _ in range(i % 3):
            assert got_rng.random() == want_rng.random()
    assert got_rng.random(16).tobytes() == want_rng.random(16).tobytes()


def test_one_step_size_draws_nothing():
    rng = np.random.Generator(np.random.PCG64(3))
    before = rng.bit_generator.state
    indices = _bounded_indices(rng.bit_generator, 1)
    assert [next(indices) for _ in range(5)] == [0] * 5
    assert rng.bit_generator.state == before


@st.composite
def fused_cases(draw):
    """Corners of the fused draws: one step size or 4-6, N = 1 (a buffer of two
    doubles), and kernel weights 0 and 1 (one kernel only)."""
    n_vertices = draw(st.sampled_from((1, 1, 2, 3, 5, 8)))
    taus = (0.05, 0.3, 0.9) if n_vertices <= 2 else (None, 0.05, 0.3, 0.9)
    seed = draw(st.integers(0, 2**32 - 1))
    pop = _population(n_vertices, draw(st.integers(1, 6)), draw(st.sampled_from((0.1, 0.5, 0.9))), seed)
    g0 = _population(n_vertices, 1, draw(st.sampled_from((0.0, 0.3, 1.0))), seed + 1).graphs[0]
    hyper = CerCerHyper(
        g0=g0,
        alpha0=draw(st.sampled_from((0.01, 0.1, 0.45))),
        beta_a=draw(st.sampled_from((1.0, 0.5, 3.0))),
        beta_b=draw(st.sampled_from((9.0, 1.0))),
    )
    step = st.floats(min_value=1e-4, max_value=0.49)
    upsilons = draw(st.one_of(st.tuples(step), st.lists(step, min_size=4, max_size=6).map(tuple)))
    cfg = McmcConfig(
        n_samples=draw(st.integers(0, 40)),
        burn_in=draw(st.integers(0, 30)),
        lag=draw(st.integers(1, 3)),
        flip_prob_tau=draw(st.sampled_from(taus)),
        kernel_mix_weight=draw(st.sampled_from((0.0, 1.0, 0.5))),
        step_sizes_upsilon=upsilons,
        seed=seed,
    )
    return pop, hyper, cfg


@settings(deadline=None, max_examples=150)
@given(fused_cases())
def test_fused_chain_matches_reference(case):
    pop, hyper, cfg = case
    assert_same_trace(fit_cer_cer(pop, hyper, cfg), reference_fit_cer_cer(pop, hyper, cfg))

