"""Properties of the distance matrix and of the scalar random walk.

``distance_matrix`` must be exactly symmetric with an exactly zero diagonal
(``DistanceMatrix`` rejects anything else), under both metrics and whatever
the graphs. ``reflected_walk`` must stay inside its bounds, by reflecting
x + noise once at the boundary it crosses.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpop.graphs import GraphPopulation, LabelledGraph, n_pairs
from graphpop.inference import reflected_walk
from graphpop.metrics import MetricSpec, distance_matrix

METRICS = st.one_of(
    st.just(MetricSpec(kind="hamming")),
    st.floats(0.05, 5.0).map(lambda t: MetricSpec(kind="diffusion", t=t)),
)


@st.composite
def populations(draw, max_vertices=8, max_graphs=6):
    n = draw(st.integers(1, max_vertices))
    top = (1 << n_pairs(n)) - 1
    # Repeats are likely at small N, so equal graphs meet off the diagonal too.
    bits = draw(st.lists(st.integers(0, top), min_size=1, max_size=max_graphs))
    return GraphPopulation(tuple(LabelledGraph(n, b) for b in bits))


@settings(deadline=None, max_examples=60)
@given(populations(), METRICS)
def test_distance_matrix_is_symmetric_with_zero_diagonal(pop, metric):
    d = distance_matrix(pop, metric).values
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    for i in range(len(pop)):
        for j in range(len(pop)):
            assert metric.distance(pop[j], pop[i]) == d[i, j]
            if pop[i] == pop[j]:
                assert d[i, j] == 0.0


UPSILONS = st.lists(st.floats(0.001, 0.99), min_size=1, max_size=4)


@st.composite
def walk_cases(draw):
    lower = draw(st.floats(-10.0, 10.0))
    bounded = draw(st.booleans())
    fractions = draw(UPSILONS)
    if bounded:
        width = draw(st.floats(0.01, 10.0))
        upper = lower + width
        upsilons = tuple(f * width for f in fractions)
        x = lower + draw(st.floats(0.001, 0.999)) * width
    else:
        upper = None
        upsilons = tuple(f * 10.0 for f in fractions)
        x = lower + draw(st.floats(0.001, 20.0))
    return x, lower, upper, upsilons, draw(st.integers(0, 2**32 - 1))


@settings(deadline=None, max_examples=200)
@given(walk_cases())
def test_reflected_walk_reflects_once_into_its_bounds(case):
    x, lower, upper, upsilons, seed = case
    y = reflected_walk(x, lower, upper, upsilons, np.random.default_rng(seed))
    assert lower <= y and (upper is None or y <= upper)
    # Replay the walk's draws: a step size, then Unif(-u, u) noise.
    replay = np.random.default_rng(seed)
    u = upsilons[replay.integers(len(upsilons))]
    free = x + replay.uniform(-u, u)
    if free < lower:
        expected = 2.0 * lower - free
    elif upper is not None and free > upper:
        expected = 2.0 * upper - free
    else:
        expected = free
    assert y == expected
