import json

import numpy as np
import pytest

from conftest import random_graph
from graphpop import io as gio
from graphpop.cli import main
from graphpop.errors import ConfigError, ParseError, SchemaError
from graphpop.graphs import GraphPopulation, LabelledGraph
from graphpop.inference import McmcConfig, Trace, spawn_rng
from graphpop.metrics import DistanceMatrix


def make_population(seed=0, n=4, n_vertices=5):
    rng = spawn_rng(seed)
    return GraphPopulation(
        tuple(random_graph(n_vertices, rng) for _ in range(n)),
        tuple(f"net{k}" for k in range(n)),
    )


class TestPopulationIo:
    def test_roundtrip(self, tmp_path):
        pop = make_population()
        path = tmp_path / "pop.ndjson"
        gio.write_population(pop, str(path))
        back = gio.read_population(str(path))
        assert back.graphs == pop.graphs
        assert back.ids == pop.ids

    def test_self_loop_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"id":"a","n":4,"edges":[[1,2]]}\n{"id":"b","n":4,"edges":[[3,3]]}\n')
        with pytest.raises(ParseError) as exc:
            gio.read_population(str(path))
        assert exc.value.line == 2

    def test_mixed_sizes_raise_schema_error(self, tmp_path):
        path = tmp_path / "mixed.ndjson"
        path.write_text('{"id":"a","n":10,"edges":[]}\n{"id":"b","n":12,"edges":[]}\n')
        with pytest.raises(SchemaError) as exc:
            gio.read_population(str(path))
        assert exc.value.field == "n"

    def test_edge_bounds_checked(self, tmp_path):
        path = tmp_path / "oob.ndjson"
        path.write_text('{"id":"a","n":3,"edges":[[1,4]]}\n')
        with pytest.raises(ParseError):
            gio.read_population(str(path))

    def test_one_based_indexing_on_disk(self, tmp_path):
        g = LabelledGraph.from_edges(3, [(0, 1)])
        pop = GraphPopulation((g,), ("x",))
        path = tmp_path / "pop.ndjson"
        gio.write_population(pop, str(path))
        rec = json.loads(path.read_text().strip())
        assert rec["edges"] == [[1, 2]]


class TestAdjacencyIo:
    def test_roundtrip(self, tmp_path):
        g = random_graph(6, spawn_rng(1))
        path = tmp_path / "adj.csv"
        gio.write_adjacency_csv(g, str(path))
        assert gio.read_adjacency_csv(str(path)) == g

    def test_bad_entry(self, tmp_path):
        path = tmp_path / "adj.csv"
        path.write_text("0,x\nx,0\n")
        with pytest.raises(ParseError):
            gio.read_adjacency_csv(str(path))


class TestTraceIo:
    def test_roundtrip_hundred_samples(self, tmp_path):
        rng = spawn_rng(2)
        cfg = McmcConfig(n_samples=100, burn_in=5, lag=2, seed=9)
        trace = Trace(
            graphs=[random_graph(4, rng) for _ in range(100)],
            params=rng.random(100) * 0.4 + 0.05,
            log_kernels=-rng.random(100) * 10,
            param_name="alpha",
            n_vertices=4,
            accept_counts={"flip": (30, 100), "empirical": (5, 40)},
            config=cfg,
        )
        path = tmp_path / "trace.ndjson"
        gio.write_trace(trace, str(path))
        back = gio.read_trace(str(path))
        assert back.graphs == trace.graphs
        assert np.array_equal(back.params, trace.params)
        assert np.array_equal(back.log_kernels, trace.log_kernels)
        assert back.param_name == "alpha"
        assert back.accept_counts == trace.accept_counts
        assert back.config == cfg

    def test_header_carries_config_hash(self, tmp_path):
        trace = Trace(
            graphs=[LabelledGraph(3, 0)],
            params=np.array([0.1]),
            log_kernels=np.array([0.0]),
            param_name="alpha",
            n_vertices=3,
            config=McmcConfig(n_samples=1, seed=4),
        )
        path = tmp_path / "trace.ndjson"
        gio.write_trace(trace, str(path))
        header = json.loads(path.read_text().splitlines()[0])
        assert header["type"] == "trace"
        assert len(header["config_hash"]) == 64


class TestMatrixOutputs:
    def test_distance_matrix_17_digits(self, tmp_path):
        values = np.array([[0.0, 1.0 / 3.0], [1.0 / 3.0, 0.0]])
        path = tmp_path / "d.csv"
        gio.write_distance_matrix(DistanceMatrix(values), str(path))
        text = path.read_text().splitlines()
        assert text[0].split(",")[1] == format(1.0 / 3.0, ".17g")
        parsed = float(text[0].split(",")[1])
        assert parsed == 1.0 / 3.0

    def test_mds_coords_header(self, tmp_path):
        path = tmp_path / "mds.csv"
        gio.write_mds_coords(["a", "b"], np.zeros((2, 2)), str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "id,x1,x2"
        assert lines[1].startswith("a,")


class TestAuxiliaryExports:
    def test_qq_csv(self, tmp_path):
        rng = spawn_rng(3)
        rb = rng.chisquare(4, size=50)
        path = tmp_path / "qq.csv"
        gio.write_qq_csv(rb, 4, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "chi2_quantile,rb_quantile"
        assert len(lines) == 51


class TestRunConfig:
    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("data=d.ndjson\nbogus_key=1\n")
        with pytest.raises(ConfigError) as exc:
            gio.read_config(str(path))
        assert "bogus_key" in str(exc.value)

    def test_missing_required(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("model=cer\n")
        with pytest.raises(ConfigError) as exc:
            gio.read_config(str(path))
        assert "data" in str(exc.value)

    def test_domain_validation(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("data=d.ndjson\nalpha0=0.7\n")
        with pytest.raises(ConfigError):
            gio.read_config(str(path))

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("data=a\ndata=b\n")
        with pytest.raises(ConfigError):
            gio.read_config(str(path))

    def test_defaults_and_comments(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("# comment\ndata=d.ndjson\n\nupsilons=0.01,0.05\n")
        cfg = gio.read_config(str(path))
        assert cfg["model"] == "cer"
        assert cfg["upsilons"] == (0.01, 0.05)
        assert cfg["lag"] == 2

    def test_config_hash_stable(self):
        h1 = gio.config_hash({"a": 1, "b": [1, 2]})
        h2 = gio.config_hash({"b": [1, 2], "a": 1})
        assert h1 == h2


def write_population_file(tmp_path, graphs, name="pop.ndjson"):
    pop = GraphPopulation(tuple(graphs), tuple(f"g{k}" for k in range(len(graphs))))
    path = tmp_path / name
    gio.write_population(pop, str(path))
    return path


class TestCli:
    def test_simulate_er(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("kind=er\nn_vertices=8\nn_graphs=5\np=0.3\nseed=1\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        pop = gio.read_population(str(out / "population.ndjson"))
        assert len(pop) == 5 and pop.n_vertices == 8
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["population.ndjson"]

    def test_simulate_snf_on_one_vertex_is_a_domain_error(self, tmp_path, capsys):
        mode = tmp_path / "mode.csv"
        gio.write_adjacency_csv(LabelledGraph(1, 0), str(mode))
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"kind=snf\nn_vertices=1\nn_graphs=3\nmode={mode}\n")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        parsed = json.loads(capsys.readouterr().err.strip())
        assert code == 1
        assert parsed["error"] == "DomainError"
        assert "flip_prob_tau" in parsed["message"]

    def test_fit_cer_degenerate_population(self, tmp_path):
        g = LabelledGraph.from_edges(4, [(0, 1), (2, 3)])
        data = write_population_file(tmp_path, [g, g, g])
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(f"data={data}\nout={tmp_path / 'fit_out'}\nseed=3\n")
        assert main(["fit-cer", "--config", str(cfg)]) == 0
        summary = json.loads((tmp_path / "fit_out" / "summary.json").read_text())
        assert summary["mode_edges"] == [[1, 2], [3, 4]]

    def test_distances_hamming(self, tmp_path):
        g1 = LabelledGraph.from_edges(3, [(0, 1)])
        g2 = LabelledGraph.from_edges(3, [(1, 2), (0, 2)])
        data = write_population_file(tmp_path, [g1, g2])
        out = tmp_path / "dist_out"
        assert main(["distances", "--data", str(data), "--metric", "hamming", "--out", str(out)]) == 0
        lines = (out / "distances.csv").read_text().splitlines()
        got = float(lines[0].split(",")[1])
        assert got == float((g1.edge_bits ^ g2.edge_bits).bit_count())

    def test_unknown_config_key_exit_code_and_stderr(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("data=x\nnot_a_key=2\n")
        code = main(["fit-cer", "--config", str(cfg)])
        err = capsys.readouterr().err.strip()
        assert code == 1
        parsed = json.loads(err)
        assert "not_a_key" in parsed["message"]

    def test_missing_data_file_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("data=/nonexistent/file.ndjson\n")
        assert main(["fit-cer", "--config", str(cfg)]) == 1

    def test_trace_files_byte_identical_across_runs(self, tmp_path):
        rng = spawn_rng(5)
        graphs = [random_graph(4, rng) for _ in range(4)]
        data = write_population_file(tmp_path, graphs)
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(f"data={data}\nn_samples=200\nburn_in=100\nseed=11\n")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["fit-cer", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["fit-cer", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "trace.ndjson").read_bytes() == (out2 / "trace.ndjson").read_bytes()

    def test_mds_command(self, tmp_path):
        rng = spawn_rng(6)
        graphs = [random_graph(5, rng) for _ in range(6)]
        data = write_population_file(tmp_path, graphs)
        out = tmp_path / "mds_out"
        assert main(["mds", "--data", str(data), "--metric", "hamming", "--dim", "2", "--out", str(out)]) == 0
        lines = (out / "mds.csv").read_text().splitlines()
        assert len(lines) == 7

    def test_frechet_command(self, tmp_path):
        g = LabelledGraph.from_edges(4, [(0, 1)])
        data = write_population_file(tmp_path, [g, g, g])
        out = tmp_path / "fm_out"
        assert main(["frechet", "--data", str(data), "--metric", "hamming", "--out", str(out)]) == 0
        assert gio.read_adjacency_csv(str(out / "frechet_mean.csv")) == g

    def test_fit_sn_and_diagnose_pipeline(self, tmp_path):
        rng = spawn_rng(7)
        mode = LabelledGraph.from_edges(3, [(0, 1)])
        graphs = [random_graph(3, rng, p=0.3) for _ in range(4)] + [mode]
        data = write_population_file(tmp_path, graphs)
        fit_out = tmp_path / "sn_out"
        cfg = tmp_path / "sn.cfg"
        cfg.write_text(
            f"data={data}\nmodel=snf\nmetric=hamming\nn_samples=150\nburn_in=100\n"
            "lag=1\nseed=13\ngamma_upsilons=0.1,0.5\nalpha_tilde=0.2\n"
        )
        assert main(["fit-sn", "--config", str(cfg), "--out", str(fit_out)]) == 0
        summary = json.loads((fit_out / "summary.json").read_text())
        assert summary["model"] == "snf"
        assert summary["alpha_tilde"] == 0.2

        diag_out = tmp_path / "diag_out"
        code = main(
            [
                "diagnose",
                "--data", str(data),
                "--trace", str(fit_out / "trace.ndjson"),
                "--model", "snf",
                "--metric", "hamming",
                "--stat", "degree_q0.9",
                "--k", "120",
                "--out", str(diag_out),
            ]
        )
        assert code == 0
        report = json.loads((diag_out / "diagnostics.json").read_text())
        assert 0.0 <= report["ppc_tail_prob"] <= 1.0

    def test_experiment_command(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(
            "study=concentration\ngenerator=er\np=0.2\nn_vertices=8\n"
            "sample_sizes=3\nn_replicates=2\nepsilons=1,2\ndata_alpha=0.05\n"
            "n_samples=100\nburn_in=300\nlag=1\nseed=5\n"
        )
        out = tmp_path / "study_out"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "study.csv").read_text().splitlines()
        assert lines[0].startswith("n,generator,epsilon")
        assert len(lines) == 3
