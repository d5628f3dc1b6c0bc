"""`simulate` draws and writes its population a block of rows at a time.

Whatever the block size (``io.CHUNK_ENTRIES``), ``population.ndjson`` must have
the bytes of one ``sample_matrix`` call (or of per-graph ``sample_generator``
calls) at the same seed, written as compact ``json.dumps`` lines; a failed run
must leave no population file; and the peak memory of a CER run must not grow
with the number of graphs.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from graphpop import inference
from graphpop import io as gio
from graphpop.cli import main
from graphpop.errors import DomainError
from graphpop.graphs import (
    ErdosRenyi,
    GraphPopulation,
    LabelledGraph,
    RandomGeometric,
    SmallWorld,
    StochasticBlockModel,
    edge_matrix,
    n_pairs,
    sample_generator,
    sample_generator_matrix,
)
from graphpop.inference import McmcConfig, Trace, sample_matrix, spawn_rng
from graphpop.metrics import MetricSpec
from graphpop.models import CerParams, SnfParams
from test_bulk_draws import MIB, traced_peak

N_GRAPHS = 20
SEED = 13

MODELS = {
    "cer": (5, "alpha=0.2\n"),
    "snf-exact": (5, "gamma=1.5\n"),
    "snf-exact-diffusion": (4, "gamma=2.0\nmetric=diffusion\n"),
    "snf-chains": (6, "gamma=1.0\ninner_steps=30\n"),
}
GENERATORS = {
    "er": ("p=0.3\n", ErdosRenyi(0.3)),
    "sbm": ("n_blocks=2\nwithin_p=0.5\nbetween_p=0.1\n", StochasticBlockModel(2, (0.5, 0.5), 0.5, 0.1)),
    "sw": ("lattice_degree=4\nrewire_p=0.3\n", SmallWorld(4, 0.3)),
    "rgg": ("radius=0.3\n", RandomGeometric(0.3)),
}


def _lines(mat: np.ndarray, n_vertices: int) -> bytes:
    """The compact json.dumps record of each row, ids g1, g2, ..."""
    ii, jj = np.triu_indices(n_vertices, 1)
    out = []
    for k, row in enumerate(mat):
        edges = [[int(ii[p]) + 1, int(jj[p]) + 1] for p in np.flatnonzero(row)]
        rec = {"id": f"g{k + 1}", "n": n_vertices, "edges": edges}
        out.append(json.dumps(rec, separators=(",", ":")) + "\n")
    return "".join(out).encode("utf-8")


def _write_mode(tmp_path, n_vertices: int) -> LabelledGraph:
    mode = random_graph(n_vertices, spawn_rng(3), p=0.4)
    gio.write_adjacency_csv(mode, str(tmp_path / "mode.csv"))
    return mode


def _simulate(tmp_path, text: str) -> int:
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(text)
    return main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])


def _model_case(tmp_path, case: str):
    """(config text, expected bytes) of a model case."""
    n, extra = MODELS[case]
    mode = _write_mode(tmp_path, n)
    kind = "cer" if case == "cer" else "snf"
    text = f"kind={kind}\nn_vertices={n}\nn_graphs={N_GRAPHS}\nseed={SEED}\nmode={tmp_path / 'mode.csv'}\n"
    values = gio.parse_config_text(text + extra, gio.SIM_SCHEMA)
    if kind == "cer":
        params = CerParams(mode, values["alpha"])
    else:
        metric = MetricSpec(kind=values["metric"], t=values["t"], phi=values["phi"])
        params = SnfParams(mode, values["gamma"], metric)
    knobs = McmcConfig(n_samples=0, aux_inner_steps=values["inner_steps"])
    mat = sample_matrix(params, N_GRAPHS, spawn_rng(SEED), knobs)
    return text + extra, _lines(mat, n)


def _rows(rows: int, ne: int):
    """The CHUNK_ENTRIES value that makes blocks of ``rows`` rows."""
    return rows * ne


@pytest.mark.parametrize("rows", [1, 7, N_GRAPHS + 3])
@pytest.mark.parametrize("case", list(MODELS))
def test_model_draws_are_byte_identical_across_block_sizes(tmp_path, monkeypatch, case, rows):
    text, want = _model_case(tmp_path, case)
    monkeypatch.setattr(gio, "CHUNK_ENTRIES", _rows(rows, n_pairs(MODELS[case][0])))
    assert _simulate(tmp_path, text) == 0
    assert (tmp_path / "out" / "population.ndjson").read_bytes() == want


@pytest.mark.parametrize("rows", [1, 7, N_GRAPHS + 3])
@pytest.mark.parametrize("kind", list(GENERATORS))
def test_generator_draws_are_byte_identical_across_block_sizes(tmp_path, monkeypatch, kind, rows):
    extra, spec = GENERATORS[kind]
    n = 9
    rng = spawn_rng(SEED)
    want = _lines(np.stack([sample_generator(spec, n, rng).to_vector() for _ in range(N_GRAPHS)]), n)
    monkeypatch.setattr(gio, "CHUNK_ENTRIES", _rows(rows, n_pairs(n)))
    text = f"kind={kind}\nn_vertices={n}\nn_graphs={N_GRAPHS}\nseed={SEED}\n{extra}"
    assert _simulate(tmp_path, text) == 0
    assert (tmp_path / "out" / "population.ndjson").read_bytes() == want


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("rows", [1, 7, N_GRAPHS + 3])
def test_cer_draws_once_per_block(tmp_path, monkeypatch, rows):
    text, _ = _model_case(tmp_path, "cer")
    monkeypatch.setattr(gio, "CHUNK_ENTRIES", _rows(rows, n_pairs(5)))
    calls = _count_calls(monkeypatch, inference, "cer_sample_matrix")
    assert _simulate(tmp_path, text) == 0
    assert len(calls) == -(-N_GRAPHS // rows)


@pytest.mark.parametrize("case, per_block", [("snf-exact", True), ("snf-chains", False)])
def test_snf_draw_calls_and_one_engine(tmp_path, monkeypatch, case, per_block):
    # Exact draws (N <= 5) take one call per block on one shared engine; chain
    # draws (N > 5) are one call, whose rows are then written a block at a time.
    text, _ = _model_case(tmp_path, case)
    monkeypatch.setattr(gio, "CHUNK_ENTRIES", _rows(7, n_pairs(MODELS[case][0])))
    draws = _count_calls(monkeypatch, inference, "snf_mh_matrix")
    engines = _count_calls(monkeypatch, inference, "_MetricEngine")
    assert _simulate(tmp_path, text) == 0
    assert len(draws) == (-(-N_GRAPHS // 7) if per_block else 1)
    assert len(engines) == 1


def test_failed_draw_leaves_no_population_file(tmp_path, monkeypatch):
    text, _ = _model_case(tmp_path, "cer")
    monkeypatch.setattr(gio, "CHUNK_ENTRIES", _rows(7, n_pairs(5)))
    real = inference.cer_sample_matrix
    calls = []

    def fail_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise DomainError("injected failure of the second block's draw")
        return real(*args, **kwargs)

    monkeypatch.setattr(inference, "cer_sample_matrix", fail_second)
    assert _simulate(tmp_path, text) == 1
    assert len(calls) == 2
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == []


def test_failed_run_keeps_an_earlier_population_file(tmp_path, monkeypatch):
    # The rename happens after the last block: a failed rerun leaves the
    # previous run's file as it was.
    text, want = _model_case(tmp_path, "cer")
    assert _simulate(tmp_path, text) == 0
    monkeypatch.setattr(gio, "CHUNK_ENTRIES", _rows(7, n_pairs(5)))
    real = inference.cer_sample_matrix
    calls = []

    def fail_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise OSError("injected failure of the second block's draw")
        return real(*args, **kwargs)

    monkeypatch.setattr(inference, "cer_sample_matrix", fail_second)
    assert _simulate(tmp_path, text.replace(f"seed={SEED}", "seed=99")) == 1
    assert (tmp_path / "out" / "population.ndjson").read_bytes() == want
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["manifest.json", "population.ndjson"]


@pytest.mark.parametrize("rows", [1, 3, 100])
def test_population_and_trace_writers_across_block_sizes(tmp_path, monkeypatch, rows):
    n = 7
    rng = spawn_rng(21)
    graphs = [random_graph(n, rng, p=p) for p in (0.0, 0.3, 1.0, 0.5, 0.0, 0.2, 0.9)]
    pop = GraphPopulation(tuple(graphs), tuple(f"x{k}" for k in range(len(graphs))))
    trace = Trace(graphs, rng.random(len(graphs)), rng.random(len(graphs)), "alpha", n,
                  config=McmcConfig(n_samples=len(graphs)))
    written = {}
    for chunk in (None, _rows(rows, n_pairs(n))):
        if chunk is not None:
            monkeypatch.setattr(gio, "CHUNK_ENTRIES", chunk)
        gio.write_population(pop, str(tmp_path / "pop.ndjson"))
        gio.write_trace(trace, str(tmp_path / "trace.ndjson"))
        written[chunk] = ((tmp_path / "pop.ndjson").read_bytes(), (tmp_path / "trace.ndjson").read_bytes())
    assert written[None] == written[_rows(rows, n_pairs(n))]
    assert gio.read_population(str(tmp_path / "pop.ndjson")).graphs == pop.graphs


def test_population_blocks_on_one_vertex_have_no_edges(tmp_path):
    path = str(tmp_path / "pop.ndjson")
    gio.write_population(iter([np.zeros((2, 0), np.uint8), np.zeros((1, 0), np.uint8)]), path, 1)
    with open(path, encoding="utf-8") as fh:
        assert [json.loads(line) for line in fh] == [
            {"id": f"g{k}", "n": 1, "edges": []} for k in (1, 2, 3)
        ]


@settings(max_examples=60, deadline=None)
@given(n_vertices=st.integers(1, 20), count=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_edge_matrix_stacks_the_edge_vectors(n_vertices, count, seed):
    rng = np.random.default_rng(seed)
    graphs = [random_graph(n_vertices, rng, p=rng.random()) for _ in range(count)]
    got = edge_matrix(graphs, n_pairs(n_vertices))
    assert got.dtype == np.uint8 and got.flags.c_contiguous
    assert got.shape == (count, n_pairs(n_vertices))
    for row, g in zip(got, graphs):
        np.testing.assert_array_equal(row, g.to_vector())


@pytest.mark.parametrize("kind", list(GENERATORS))
def test_generator_matrix_equals_per_graph_draws(kind):
    spec = GENERATORS[kind][1]
    rng, ref = spawn_rng(8), spawn_rng(8)
    got = sample_generator_matrix(spec, 10, 5, rng)
    want = np.stack([sample_generator(spec, 10, ref).to_vector() for _ in range(5)])
    np.testing.assert_array_equal(got, want)
    assert rng.bit_generator.state == ref.bit_generator.state


def _cer_peak(tmp_path, count: int) -> int:
    out = tmp_path / f"out{count}"
    cfg = tmp_path / f"sim{count}.cfg"
    cfg.write_text(
        f"kind=cer\nn_vertices=50\nn_graphs={count}\nalpha=0.05\nseed=5\nmode={tmp_path / 'mode.csv'}\n"
    )
    rc, peak = traced_peak(lambda: main(["simulate", "--config", str(cfg), "--out", str(out)]))
    assert rc == 0
    with open(out / "population.ndjson", "rb") as fh:
        assert sum(1 for _ in fh) == count
    return peak


def test_cer_simulate_peak_is_flat_in_the_number_of_graphs(tmp_path):
    # One block of draws (CHUNK_ENTRIES uint8) beside bernoulli_bits' 2 MiB
    # buffer, then the block's edge texts (~0.9 MB at this density); 1 MiB
    # covers the texts, the pair table and the command's own small objects.
    gio.write_adjacency_csv(random_graph(50, spawn_rng(4), p=0.1), str(tmp_path / "mode.csv"))
    small = _cer_peak(tmp_path, 5_000)
    large = _cer_peak(tmp_path, 40_000)
    assert large <= small + MIB
    assert large <= gio.CHUNK_ENTRIES + 2 * MIB + MIB
