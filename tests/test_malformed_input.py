"""Malformed NDJSON input exits 1 with one JSON line, and the package has one version."""

import json
from pathlib import Path

import numpy as np
import pytest

import graphpop
from graphpop import io as gio
from graphpop.cli import main
from graphpop.errors import ParseError, SchemaError
from graphpop.graphs import GraphPopulation, LabelledGraph
from graphpop.inference import McmcConfig, Trace

GOOD_GRAPH = '{"id":"g1","n":3,"edges":[[1,2]]}'


def _trace():
    return Trace(
        graphs=[LabelledGraph.from_edges(3, [(0, 1)])] * 3,
        params=np.full(3, 0.1),
        log_kernels=np.zeros(3),
        param_name="alpha",
        n_vertices=3,
        config=McmcConfig(n_samples=3),
    )


def _write_inputs(tmp_path, population_text=None, edit_trace=None):
    data = tmp_path / "pop.ndjson"
    if population_text is None:
        gio.write_population(GraphPopulation((LabelledGraph(3, 1),) * 3), str(data))
    else:
        data.write_text(population_text)
    trace_path = tmp_path / "trace.ndjson"
    gio.write_trace(_trace(), str(trace_path))
    if edit_trace is not None:
        records = [json.loads(line) for line in trace_path.read_text().splitlines()]
        edit_trace(records)
        trace_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return data, trace_path


def _drop(index, key):
    def edit(records):
        del records[index][key]

    return edit


def _set(index, key, value):
    def edit(records):
        records[index][key] = value

    return edit


def _distances(tmp_path, data, trace_path):
    return ["distances", "--data", str(data), "--out", str(tmp_path / "o")]


def _diagnose(tmp_path, data, trace_path):
    return [
        "diagnose", "--data", str(data), "--trace", str(trace_path), "--model", "cer",
        "--stat", "edge_count", "--k", "100", "--chi2-sims", "10", "--max-draws", "1",
        "--out", str(tmp_path / "o"),
    ]


@pytest.mark.parametrize(
    "population_text, edit_trace, command, error",
    [
        ('{"id":"g1","n":3,"edges":5}\n', None, _distances, "ParseError"),
        ('{"id":"g1","n":3,"edges":[[1,2]]\n', None, _distances, "ParseError"),
        ("[1, 2]\n", None, _distances, "ParseError"),
        ('{"id":"g1","edges":[]}\n', None, _distances, "SchemaError"),
        (None, _drop(1, "log_kernel"), _diagnose, "SchemaError"),
        (None, _drop(2, "edges"), _diagnose, "SchemaError"),
        (None, _drop(0, "n_vertices"), _diagnose, "SchemaError"),
        (None, _drop(0, "param"), _diagnose, "SchemaError"),
        (None, _set(1, "param", None), _diagnose, "ParseError"),
        (None, _set(3, "log_kernel", [1.0]), _diagnose, "ParseError"),
        ('{"id":"g1","n":true,"edges":[]}\n', None, _distances, "SchemaError"),
        ('{"id":"g1","n":3,"edges":[[true,2]]}\n', None, _distances, "ParseError"),
        (None, _set(0, "n_vertices", True), _diagnose, "SchemaError"),
        (None, _set(1, "param", "0.25"), _diagnose, "ParseError"),
        (None, _set(2, "log_kernel", True), _diagnose, "ParseError"),
        (None, _set(1, "param", 10**400), _diagnose, "ParseError"),
        ('{"id":"g1","n":3,"edges":[[1,' + "9" * 5000 + "]]}\n", None, _distances, "ParseError"),
    ],
    ids=[
        "population-edges-not-a-list",
        "population-invalid-json",
        "population-not-an-object",
        "population-missing-n",
        "trace-sample-missing-log-kernel",
        "trace-sample-missing-edges",
        "trace-header-missing-n-vertices",
        "trace-header-missing-param",
        "trace-sample-null-param",
        "trace-sample-list-log-kernel",
        "population-bool-n",
        "population-bool-endpoint",
        "trace-header-bool-n-vertices",
        "trace-sample-string-param",
        "trace-sample-bool-log-kernel",
        "trace-sample-param-beyond-float-range",
        "population-endpoint-beyond-int-digit-limit",
    ],
)
def test_malformed_input_exits_one(tmp_path, capsys, population_text, edit_trace, command, error):
    data, trace_path = _write_inputs(tmp_path, population_text, edit_trace)
    assert main(command(tmp_path, data, trace_path)) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line)["error"] == error


class TestRecordReader:
    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "pop.ndjson"
        path.write_text(f"{GOOD_GRAPH}\n\n{{not json\n")
        with pytest.raises(ParseError) as exc:
            gio.read_population(str(path))
        assert exc.value.line == 3

    def test_non_list_edges_carry_the_line(self, tmp_path):
        path = tmp_path / "pop.ndjson"
        path.write_text(f'{GOOD_GRAPH}\n{{"id":"g2","n":3,"edges":5}}\n')
        with pytest.raises(ParseError) as exc:
            gio.read_population(str(path))
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "second_line",
        ['{"id":"g2","n":true,"edges":[]}', '{"id":"g2","n":4,"edges":[]}'],
        ids=["bool-n", "mixed-n"],
    )
    def test_vertex_count_errors_name_the_line(self, tmp_path, second_line):
        path = tmp_path / "pop.ndjson"
        path.write_text(f"{GOOD_GRAPH}\n{second_line}\n")
        with pytest.raises(SchemaError) as exc:
            gio.read_population(str(path))
        assert exc.value.field == "n" and "line 2" in str(exc.value)

    def test_missing_trace_key_names_the_field(self, tmp_path):
        _, trace_path = _write_inputs(tmp_path, edit_trace=_drop(2, "param"))
        with pytest.raises(SchemaError) as exc:
            gio.read_trace(str(trace_path))
        assert exc.value.field == "param" and "line 3" in str(exc.value)

    def test_trace_reader_skips_blank_lines(self, tmp_path):
        _, trace_path = _write_inputs(tmp_path)
        lines = trace_path.read_text().splitlines()
        trace_path.write_text("\n" + "\n\n".join(lines) + "\n\n")
        back = gio.read_trace(str(trace_path))
        assert len(back) == 3 and back.config == McmcConfig(n_samples=3)


def test_pyproject_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == graphpop.__version__


def test_manifest_carries_the_package_version(tmp_path):
    path = tmp_path / "manifest.json"
    gio.write_manifest(str(path), {}, 0, [], "start", "end")
    assert json.loads(path.read_text())["version"] == graphpop.__version__


def _set_config(key, value):
    def edit(records):
        records[0]["config"][key] = value

    return edit


@pytest.mark.parametrize(
    "edit_trace, field",
    [
        (_set_config("lag", "x"), "lag"),
        (_set_config("n_samples", 2.5), "n_samples"),
        (_set_config("seed", True), "seed"),
        (_set_config("flip_prob_tau", "0.1"), "flip_prob_tau"),
        (_set_config("step_sizes_upsilon", 0.1), "step_sizes_upsilon"),
        (_set_config("step_sizes_upsilon", [0.1, None]), "step_sizes_upsilon"),
        (_set_config("aux_inner_steps", [20]), "aux_inner_steps"),
        (_set(0, "config", 5), "config"),
        (_set(0, "accept_counts", 5), "accept_counts"),
        (_set(0, "accept_counts", {"flip": 3}), "accept_counts"),
        (_set(0, "accept_counts", {"flip": [1, 2, 3]}), "accept_counts"),
        (_set(0, "accept_counts", {"flip": [1, "2"]}), "accept_counts"),
        (_set(0, "n_vertices", 0), "n_vertices"),
    ],
    ids=[
        "lag-string",
        "n-samples-float",
        "seed-bool",
        "tau-string",
        "upsilons-number",
        "upsilons-null-entry",
        "inner-steps-list",
        "config-number",
        "accepts-number",
        "accepts-count-not-a-pair",
        "accepts-triple",
        "accepts-string-count",
        "n-vertices-zero",
    ],
)
def test_mistyped_trace_header_exits_one_naming_the_field(tmp_path, capsys, edit_trace, field):
    data, trace_path = _write_inputs(tmp_path, edit_trace=edit_trace)
    with pytest.raises(SchemaError) as exc:
        gio.read_trace(str(trace_path))
    assert exc.value.field == field and "line 1" in str(exc.value)
    assert main(_diagnose(tmp_path, data, trace_path)) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line)["error"] == "SchemaError"


def test_well_typed_header_values_still_load(tmp_path):
    def edit(records):
        records[0]["config"].update(flip_prob_tau=0.25, kernel_mix_weight=1, step_sizes_upsilon=[1, 0.5])
        records[0]["accept_counts"] = {"flip": [2, 5], "empirical": [0, 0]}

    _, trace_path = _write_inputs(tmp_path, edit_trace=edit)
    back = gio.read_trace(str(trace_path))
    assert back.config == McmcConfig(
        n_samples=3, flip_prob_tau=0.25, kernel_mix_weight=1, step_sizes_upsilon=(1, 0.5)
    )
    assert back.accept_counts == {"flip": (2, 5), "empirical": (0, 0)}
