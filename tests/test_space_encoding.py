"""graphs.py owns the graph-space encoding.

One bit codec (``graphs._pack``/``graphs._unpack``), one table of the
enumerated space (``graphs.space_matrix``) and one size limit
(``MAX_ENUMERABLE_VERTICES``). Each consumer must give what it gave when it
built these itself, and no other module may rebuild them.
"""

import ast
import os
import re

import numpy as np
import pytest

from conftest import random_graph
from graphpop import graphs
from graphpop.errors import SpaceTooLargeError
from graphpop.graphs import (
    GraphPopulation,
    LabelledGraph,
    bits_to_vector,
    edge_matrix,
    enumerate_graph_space,
    n_pairs,
)
from graphpop.inference import _MetricEngine, snf_mh_matrix, spawn_rng
from graphpop.metrics import MetricSpec, cross_distances, hamming
from graphpop.models import (
    CerParams,
    SnfParams,
    _space_distance_table,
    cer_exact,
    sample_frechet_mean,
    snf_entropy_exact,
    snf_exact,
    space_distances,
)
from test_bulk_draws import MIB, traced_peak

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "graphpop")
METRICS = [
    MetricSpec(kind="hamming"),
    MetricSpec(kind="diffusion", t=0.7),
    MetricSpec(kind="diffusion", t=1.0),
]


def _shift_and_mask(n_vertices):
    """The space table each metric engine used to build for itself."""
    ne = n_pairs(n_vertices)
    bits = np.arange(1 << ne)[:, None] >> np.arange(ne)
    return (bits & 1).astype(np.uint8)


class TestSpaceMatrix:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equals_the_enumerated_graphs_and_the_shift_and_mask_table(self, n):
        mat = graphs.space_matrix(n)
        assert mat.dtype == np.uint8 and mat.flags.c_contiguous
        assert np.array_equal(mat, edge_matrix(enumerate_graph_space(n), n_pairs(n)))
        assert np.array_equal(mat, _shift_and_mask(n))
        assert not mat.flags.writeable
        assert graphs.space_matrix(n) is mat

    @pytest.mark.parametrize("n", [4, 5])
    def test_the_engine_reads_the_shared_matrix(self, n):
        assert _MetricEngine(MetricSpec(), n).states is graphs.space_matrix(n)

    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: f"{m.kind}-{m.t}")
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_distance_table_equals_cross_distances_of_the_enumerated_graphs(self, n, metric):
        mat = edge_matrix(enumerate_graph_space(n), n_pairs(n))
        assert np.array_equal(
            _space_distance_table(n, metric.kind, metric.t), cross_distances(mat, mat, metric, n)
        )

    @pytest.mark.parametrize("kind", ["hamming", "diffusion"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_exact_draws_are_the_picked_graphs(self, n, kind):
        engine = _MetricEngine(MetricSpec(kind=kind), n)
        mode = random_graph(n, spawn_rng(n))
        states, d = snf_mh_matrix(mode.to_vector(), 2.0, engine, 200, 1, 0.5, spawn_rng(7))
        # The inverse-CDF pick of snf_mh_matrix, redone on the same stream.
        dvec = engine.table[mode.edge_bits]
        logw = -2.0 * engine.metric.apply_phi(dvec)
        cdf = np.exp(logw - logw.max()).cumsum()
        cdf /= cdf[-1]
        pick = np.searchsorted(cdf, spawn_rng(7).random(200), side="right")
        assert np.array_equal(states, np.array([bits_to_vector(b, n_pairs(n)) for b in pick]))
        assert np.array_equal(d, dvec[pick])


class TestSpaceTooLarge:
    MODE = LabelledGraph(6, 0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda m: snf_exact(SnfParams(m, 1.0)),
            lambda m: cer_exact(CerParams(m, 0.2)),
            lambda m: snf_entropy_exact(SnfParams(m, 1.0)),
            lambda m: space_distances(m, MetricSpec()),
            lambda m: sample_frechet_mean(GraphPopulation((m,)), MetricSpec()),
        ],
        ids=["snf_exact", "cer_exact", "snf_entropy_exact", "space_distances", "frechet_mean"],
    )
    def test_raises_the_enumeration_error(self, call):
        with pytest.raises(SpaceTooLargeError) as expected:
            enumerate_graph_space(6)
        with pytest.raises(SpaceTooLargeError, match=f"^{re.escape(str(expected.value))}$"):
            call(self.MODE)


class TestHammingWords:
    @pytest.mark.parametrize("n", [1, 12], ids=["n1-no-words", "n12-66-pairs"])
    def test_equals_the_pair_by_pair_hamming(self, n):
        rng = spawn_rng(n)
        rows = [random_graph(n, rng, p=rng.uniform(0.1, 0.9)) for _ in range(5)]
        others = [random_graph(n, rng, p=rng.uniform(0.1, 0.9)) for _ in range(7)]
        got = cross_distances(
            edge_matrix(rows, n_pairs(n)), edge_matrix(others, n_pairs(n)), MetricSpec(), n
        )
        assert np.array_equal(got, np.array([[hamming(g, h) for h in others] for g in rows]))


def test_cross_distances_scores_others_in_bounded_stacks():
    rng = spawn_rng(4)
    others = np.stack([random_graph(50, rng, p=0.1).to_vector() for _ in range(1000)])
    row = random_graph(50, rng, p=0.1).to_vector()[None]
    metric = MetricSpec(kind="diffusion", t=1.0)
    out, peak = traced_peak(lambda: cross_distances(row, others, metric, 50))
    # One stack of all 1000 kernels would be 19 MiB before eigh's temporaries.
    assert peak <= 4 * MIB
    head = cross_distances(row, others[:20], metric, 50)
    assert np.array_equal(out[:, :20], head)


def _offences(module, tree):
    limit = graphs.MAX_ENUMERABLE_VERTICES
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name in ("packbits", "unpackbits"):
            yield f"{module}:{node.lineno} calls {name}"
        if name == "SpaceTooLargeError":
            args = node.args[1:] + [k.value for k in node.keywords if k.arg == "limit"]
            own_cap = (
                len(args) == 1
                and isinstance(args[0], ast.Constant)
                and isinstance(args[0].value, int)
                and args[0].value < limit
            )
            if not own_cap:
                yield f"{module}:{node.lineno} checks the enumeration limit itself"


def test_only_graphs_py_encodes_the_graph_space():
    # graphs.py is the one module that packs edge bits or checks the
    # enumeration limit; other modules may only raise a smaller cap of their own.
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "graphs.py":
            with open(os.path.join(SRC, name)) as fh:
                found += _offences(name, ast.parse(fh.read(), name))
    assert found == []
