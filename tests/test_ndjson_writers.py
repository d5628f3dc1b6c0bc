"""Population and trace writers against ``json.dumps`` of the same records.

The writers assemble each line from a cached table of "[i,j]" pair texts;
every line must have the bytes of the compact ``json.dumps`` of its record,
and the readers must return what was written.
"""

import json
import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpop import io as gio
from graphpop.graphs import GraphPopulation, LabelledGraph, n_pairs
from graphpop.inference import McmcConfig, Trace

IDS = st.one_of(
    st.none(),
    st.text(max_size=8),
    st.sampled_from(['q"uote', "back\\slash", "é-ü", "雪", "\udc80", "new\nline", ""]),
)
FLOATS = st.one_of(
    st.sampled_from((-0.0, 0.0, 1e-300, -1e-300, 5e-324, math.inf, -math.inf, math.nan)),
    st.floats(allow_nan=False),
)


@st.composite
def graph_lists(draw, max_graphs=6):
    n_vertices = draw(st.integers(1, 60))
    ne = n_pairs(n_vertices)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graphs = []
    for _ in range(draw(st.integers(1, max_graphs))):
        density = draw(st.sampled_from((0.0, 0.05, 0.5, 1.0)))
        graphs.append(LabelledGraph.from_vector(n_vertices, rng.random(ne) < density))
    return n_vertices, graphs


def _edges(g):
    return [[i + 1, j + 1] for i, j in g.edges()]


def _dumps(rec):
    return json.dumps(rec, separators=(",", ":")) + "\n"


def _written(write, read, obj):
    """The bytes ``write`` puts in a file, and what ``read`` makes of them."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.ndjson")
        write(obj, path)
        with open(path, "rb") as fh:
            return fh.read(), read(path)


@settings(deadline=None, max_examples=80)
@given(graph_lists(), st.booleans(), st.data())
def test_population_bytes_match_json_dumps(case, with_ids, data):
    _, graphs = case
    ids = tuple(data.draw(IDS) for _ in graphs) if with_ids else None
    pop = GraphPopulation(tuple(graphs), ids)
    raw, back = _written(gio.write_population, gio.read_population, pop)
    names = ids if with_ids else tuple(f"g{k + 1}" for k in range(len(graphs)))
    want = "".join(
        _dumps({"id": gid, "n": g.n_vertices, "edges": _edges(g)}) for gid, g in zip(names, graphs)
    )
    assert raw == want.encode("utf-8")
    assert back.graphs == pop.graphs
    assert back.ids == tuple(str(gid) for gid in names)


@settings(deadline=None, max_examples=80)
@given(graph_lists(), st.data())
def test_trace_bytes_match_json_dumps(case, data):
    n_vertices, graphs = case
    params = np.array([data.draw(FLOATS) for _ in graphs])
    log_kernels = np.array([data.draw(FLOATS) for _ in graphs])
    trace = Trace(
        graphs=graphs,
        params=params,
        log_kernels=log_kernels,
        param_name="alpha",
        n_vertices=n_vertices,
        accept_counts={"flip": (1, 2)},
        config=McmcConfig(n_samples=len(graphs), seed=3),
    )
    raw, back = _written(gio.write_trace, gio.read_trace, trace)
    samples = raw.decode("utf-8").splitlines(keepends=True)[1:]
    want = [
        _dumps({"iter": it, "edges": _edges(g), "param": float(p), "log_kernel": float(lk)})
        for it, (g, p, lk) in enumerate(zip(graphs, params, log_kernels))
    ]
    assert samples == want
    assert back.graphs == graphs
    for got, wrote in ((back.params, params), (back.log_kernels, log_kernels)):
        assert np.array_equal(got, wrote, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(wrote))


def test_empty_trace_has_header_only():
    trace = Trace([], np.zeros(0), np.zeros(0), "alpha", 1, config=McmcConfig(n_samples=0))
    raw, back = _written(gio.write_trace, gio.read_trace, trace)
    assert raw.count(b"\n") == 1
    assert len(back) == 0
