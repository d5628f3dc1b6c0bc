"""File formats: population NDJSON, adjacency CSV, trace NDJSON, run configs.

Vertex indices are 1-based in every file and 0-based in memory. Trace files
carry a header line (the sampler config and its hash, and for an SN/SN fit the
metric) followed by one JSON object per kept sample; they contain no
timestamps, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

import numpy as np

from . import __version__
from .diagnostics import chi2_quantile
from .errors import ConfigError, ParseError, SchemaError
from .graphs import GraphPopulation, LabelledGraph, edge_matrix, n_pairs, pair_positions
from .inference import McmcConfig, Trace
from .metrics import DistanceMatrix, MetricSpec


# ---------------------------------------------------------------------------
# Populations and single graphs
# ---------------------------------------------------------------------------


def _edges_1based(g: LabelledGraph) -> list[list[int]]:
    return [[i + 1, j + 1] for i, j in g.edges()]


@lru_cache(maxsize=32)
def _pair_texts(n_vertices: int) -> np.ndarray:
    """The compact JSON text "[i,j]" (1-based) of every pair position; read-only, cached."""
    ii, jj = pair_positions(n_vertices)
    texts = np.array([f"[{i + 1},{j + 1}]" for i, j in zip(ii.tolist(), jj.tolist())], dtype=object)
    texts.flags.writeable = False
    return texts


# Populations are drawn and written, and traces written, in blocks of at most
# this many edge indicators (256 KiB of uint8), however many graphs they hold:
# as many as graphs.BERNOULLI_BUFFER holds uniforms, so a block of CER draws
# fills that buffer once. While a block is written, its edge positions and
# texts take about 24 bytes per edge.
CHUNK_ENTRIES = 1 << 18


def chunk_rows(width: int) -> int:
    """Rows of a ``width``-column uint8 block of at most ``CHUNK_ENTRIES`` entries (at least 1)."""
    return max(1, CHUNK_ENTRIES // max(1, width))


def _edge_lists(block: np.ndarray, n_vertices: int) -> Iterator[str]:
    """``json.dumps(edges, separators=(",", ":"))`` of each row of a 0/1 uint8 edge block.

    One ``flatnonzero`` over the block picks every edge's "[i,j]" text from the
    pair table; each row's texts are then joined in order.
    """
    ne = block.shape[1]
    on = np.flatnonzero(block.view(np.bool_))
    ends = np.searchsorted(on, np.arange(1, block.shape[0] + 1) * ne).tolist()
    np.remainder(on, ne, out=on)  # empty when ne = 0
    texts = _pair_texts(n_vertices)[on].tolist()
    del on
    start = 0
    for end in ends:
        yield "[" + ",".join(texts[start:end]) + "]"
        start = end


def _graph_blocks(graphs: Sequence[LabelledGraph], n_vertices: int) -> Iterator[np.ndarray]:
    """The edge matrix of ``graphs`` in blocks of ``chunk_rows`` rows."""
    ne = n_pairs(n_vertices)
    rows = chunk_rows(ne)
    for r in range(0, len(graphs), rows):
        yield edge_matrix(graphs[r : r + rows], ne)


def _write_lines(
    fh, blocks: Iterable[np.ndarray], n_vertices: int, line: Callable[[int, str], str]
) -> None:
    """Write ``line(k, edges)`` for the k-th graph of the blocks, one block at a time.

    ``edges`` is the graph's compact JSON edge list. A block and its edge
    texts are freed before the next block is asked for.
    """
    k = 0
    for block in blocks:
        for edges in _edge_lists(block, n_vertices):
            fh.write(line(k, edges))
            k += 1
        del block


# json.dumps(value, separators=(",", ":")) without building an encoder per call.
_json = json.JSONEncoder(separators=(",", ":")).encode

# json.dumps of a float is its repr, except for these three spellings.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    text = repr(x)
    return _NON_FINITE.get(text, text)


def _ndjson_records(path: str) -> Iterator[tuple[int, dict]]:
    """(file line number, object) for each non-blank line of an NDJSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
                raise ParseError(f"invalid JSON ({getattr(exc, 'msg', exc)})", line_no) from exc
            if not isinstance(rec, dict):
                raise ParseError("record is not an object", line_no)
            yield line_no, rec


def _required(rec: dict, line_no: int, *keys: str) -> list:
    """The values of ``keys`` in ``rec``; a missing key raises ``SchemaError``."""
    for key in keys:
        if key not in rec:
            raise SchemaError(f"missing on line {line_no}", field=key)
    return [rec[key] for key in keys]


def _graph_from_record(n: int, edges, line_no: int) -> LabelledGraph:
    if not isinstance(edges, list):
        raise ParseError(f"edges {edges!r} is not a list", line_no)
    pairs = []
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise ParseError(f"edge {e!r} is not a pair", line_no)
        i, j = e
        if type(i) is not int or type(j) is not int:
            raise ParseError(f"edge {e!r} has non-integer endpoints", line_no)
        if i == j:
            raise ParseError(f"edge [{i}, {j}] is a self-loop", line_no)
        if not (1 <= i < j <= n):
            raise ParseError(f"edge [{i}, {j}] outside 1 <= i < j <= {n}", line_no)
        pairs.append((i - 1, j - 1))
    if len(set(pairs)) != len(pairs):
        raise ParseError("duplicate edge in record", line_no)
    return LabelledGraph.from_edges(n, pairs)


def _vertex_count(n, field: str, line_no: int) -> int:
    if not _conforms(n, int) or n < 1:
        raise SchemaError(f"bad vertex count {n!r} on line {line_no}", field=field)
    return n


def read_population(path: str) -> GraphPopulation:
    """Population NDJSON: one object per line {"id": str, "n": int, "edges": [[i,j],...]}."""
    graphs: list[LabelledGraph] = []
    ids: list[str] = []
    n_common: Optional[int] = None
    for line_no, rec in _ndjson_records(path):
        n, edges = _required(rec, line_no, "n", "edges")
        n = _vertex_count(n, "n", line_no)
        if n_common is None:
            n_common = n
        elif n != n_common:
            raise SchemaError(f"population mixes n={n_common} and n={n} on line {line_no}", field="n")
        graphs.append(_graph_from_record(n, edges, line_no))
        ids.append(str(rec.get("id", f"g{line_no}")))
    if not graphs:
        raise ParseError("file contains no graphs")
    return GraphPopulation(tuple(graphs), tuple(ids))


def write_population(
    pop: Union[GraphPopulation, Iterable[np.ndarray]], path: str, n_vertices: Optional[int] = None
) -> None:
    """One compact JSON object per graph, written field by field: the bytes of
    ``json.dumps({"id": .., "n": .., "edges": ..}, separators=(",", ":"))``.

    ``pop`` is a ``GraphPopulation`` or an iterable of (rows, N_e) uint8 edge
    blocks on ``n_vertices`` vertices, whose graphs get the ids g1, g2, ...
    Each block is written as soon as it arrives, so a caller that draws its
    blocks lazily holds one at a time. The file is written under a temporary
    name beside ``path`` and renamed onto it after the last block; if anything
    raises first (a block's draw too), no file is left at either name.
    """
    if isinstance(pop, GraphPopulation):
        n_vertices = pop.n_vertices
        blocks = _graph_blocks(pop.graphs, n_vertices)
        ids = pop.ids
    else:
        blocks, ids = pop, None

    def line(k: int, edges: str) -> str:
        gid = _json(ids[k]) if ids is not None else f'"g{k + 1}"'
        return f'{{"id":{gid},"n":{n_vertices},"edges":{edges}}}\n'

    part = path + ".part"
    try:
        with open(part, "w", encoding="utf-8") as fh:
            _write_lines(fh, blocks, n_vertices, line)
        os.replace(part, path)
    except BaseException:
        if os.path.exists(part):
            os.remove(part)
        raise


def read_adjacency_csv(path: str) -> LabelledGraph:
    """Adjacency CSV: N rows of N comma-separated 0/1 entries, no header."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([int(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise ParseError(f"non-integer adjacency entry ({exc})", line_no) from exc
    if not rows:
        raise ParseError("empty adjacency file")
    from .graphs import from_adjacency

    return from_adjacency(np.array(rows))


def write_adjacency_csv(g: LabelledGraph, path: str) -> None:
    a = g.to_adjacency()
    with open(path, "w", encoding="utf-8") as fh:
        for row in a:
            fh.write(",".join(str(int(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def write_trace(trace: Trace, path: str) -> None:
    """Trace NDJSON: a header with the config hash and, for an SN/SN fit, the
    ``"metric": {"kind", "phi", "t"}`` it ran under, then one line per kept sample."""
    cfg_dict = asdict(trace.config) if trace.config is not None else {}
    header = {
        "type": "trace",
        "config_hash": config_hash(cfg_dict),
        "n_vertices": trace.n_vertices,
        "param": trace.param_name,
        "config": cfg_dict,
        "accept_counts": {k: list(v) for k, v in trace.accept_counts.items()},
    }
    if trace.metric is not None:
        header["metric"] = asdict(trace.metric)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        # Each sample line has the bytes of json.dumps({"iter", "edges",
        # "param", "log_kernel"}, separators=(",", ":")).
        def line(it: int, edges: str) -> str:
            p, lk = _json_float(float(trace.params[it])), _json_float(float(trace.log_kernels[it]))
            return f'{{"iter":{it},"edges":{edges},"param":{p},"log_kernel":{lk}}}\n'

        blocks = _graph_blocks(trace.graphs, trace.n_vertices)
        _write_lines(fh, blocks, trace.n_vertices, line)


def read_trace(path: str) -> Trace:
    """The trace in a ``write_trace`` file; with no header ``metric``, its metric is None."""
    records = _ndjson_records(path)
    first = next(records, None)
    if first is None:
        raise ParseError("empty trace file")
    header_line, header = first
    if header.get("type") != "trace":
        raise SchemaError("first line is not a trace header", field="type")
    n_vertices, param_name = _required(header, header_line, "n_vertices", "param")
    n_vertices = _vertex_count(n_vertices, "n_vertices", header_line)
    graphs, params, log_kernels = [], [], []
    for line_no, rec in records:
        edges, param, log_kernel = _required(rec, line_no, "edges", "param", "log_kernel")
        graphs.append(_graph_from_record(n_vertices, edges, line_no))
        if not (_conforms(param, float) and _conforms(log_kernel, float)):
            raise ParseError(
                f"param {param!r} and log_kernel {log_kernel!r} must be numbers", line_no
            )
        try:
            params.append(float(param))
            log_kernels.append(float(log_kernel))
        except OverflowError as exc:  # an integer beyond the float range
            raise ParseError(f"param or log_kernel out of float range ({exc})", line_no) from exc
    cfg_dict = header.get("config")
    return Trace(
        graphs=graphs,
        params=np.array(params),
        log_kernels=np.array(log_kernels),
        param_name=param_name,
        n_vertices=n_vertices,
        accept_counts=_header_accepts(header.get("accept_counts", {}), header_line),
        config=_header_config(cfg_dict, header_line) if cfg_dict else None,
        metric=_header_metric(header["metric"], header_line) if "metric" in header else None,
    )


def _conforms(value, hint) -> bool:
    """Whether a JSON value fits a field annotation such as ``Optional[int]``."""
    if get_origin(hint) is Union:
        return any(_conforms(value, h) for h in get_args(hint))
    if get_origin(hint) is tuple:
        return isinstance(value, list) and all(_conforms(v, get_args(hint)[0]) for v in value)
    if hint is type(None):
        return value is None
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _header_config(cfg_dict, line_no: int) -> McmcConfig:
    """The trace header's sampler config; a missing field still raises ``KeyError``."""
    if not isinstance(cfg_dict, dict):
        raise SchemaError(f"not an object on line {line_no}", field="config")
    hints = get_type_hints(McmcConfig)
    values = {f.name: cfg_dict[f.name] for f in fields(McmcConfig)}
    for name, value in values.items():
        if not _conforms(value, hints[name]):
            raise SchemaError(
                f"header config value {value!r} on line {line_no} has the wrong type", field=name
            )
    return McmcConfig(**values)


def _header_metric(spec, line_no: int) -> MetricSpec:
    """The trace header's metric; a missing, mistyped or invalid field raises ``SchemaError``."""
    if not isinstance(spec, dict):
        raise SchemaError(f"not an object on line {line_no}", field="metric")
    hints = get_type_hints(MetricSpec)
    for name, value in zip(hints, _required(spec, line_no, *hints)):
        try:
            if not _conforms(value, hints[name]):
                raise ValueError("wrong JSON type")
            MetricSpec(**{name: value})  # MetricSpec checks each field on its own
        except ValueError as exc:
            raise SchemaError(f"{value!r} on line {line_no}: {exc}", field=name) from None
    return MetricSpec(**{name: spec[name] for name in hints})


def _header_accepts(counts, line_no: int) -> dict[str, tuple[int, int]]:
    if not isinstance(counts, dict) or not all(
        _conforms(v, tuple[int, ...]) and len(v) == 2 for v in counts.values()
    ):
        raise SchemaError(
            f"expected an object of [accepted, proposed] integer pairs on line {line_no}",
            field="accept_counts",
        )
    return {k: tuple(v) for k, v in counts.items()}


# ---------------------------------------------------------------------------
# Matrices, coordinates, distributions, study tables
# ---------------------------------------------------------------------------


def write_distance_matrix(dmat: DistanceMatrix, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in dmat.values:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def write_mds_coords(ids, coords: np.ndarray, path: str) -> None:
    dim = coords.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id," + ",".join(f"x{k + 1}" for k in range(dim)) + "\n")
        for gid, row in zip(ids, coords):
            fh.write(str(gid) + "," + ",".join(format(v, ".17g") for v in row) + "\n")


def write_qq_csv(rb_values: np.ndarray, df: int, path: str) -> None:
    """Quantile pairs of the binned discrepancy statistic against chi-squared(df)."""
    rb = np.sort(np.asarray(rb_values))
    k = len(rb)
    theory = chi2_quantile((np.arange(k) + 0.5) / k, df)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("chi2_quantile,rb_quantile\n")
        for t, v in zip(theory, rb):
            fh.write(f"{format(t, '.17g')},{format(v, '.17g')}\n")


def write_rows_csv(rows: list[dict], path: str) -> None:
    if not rows:
        raise ValueError("no rows to write")
    cols = list(rows[0].keys())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    format(v, ".17g") if isinstance(v, float) else str(v)
                    for v in (row[c] for c in cols)
                )
                + "\n"
            )


# ---------------------------------------------------------------------------
# Run configuration: flat key=value documents with a strict schema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfigKey:
    parse: Callable[[str], Any]
    default: Any = None
    required: bool = False


def _parse_choice(*options):
    def parse(raw: str):
        if raw not in options:
            raise ConfigError(f"expected one of {options}, got {raw!r}")
        return raw

    return parse


def _parse_float(lo=None, hi=None, lo_open=True, hi_open=True):
    def parse(raw: str):
        try:
            v = float(raw)
        except ValueError as exc:
            raise ConfigError(f"not a number: {raw!r}") from exc
        if lo is not None and (v <= lo if lo_open else v < lo):
            raise ConfigError(f"{v} below the allowed minimum {lo}")
        if hi is not None and (v >= hi if hi_open else v > hi):
            raise ConfigError(f"{v} above the allowed maximum {hi}")
        return v

    return parse


def _parse_int(lo=None):
    def parse(raw: str):
        try:
            v = int(raw)
        except ValueError as exc:
            raise ConfigError(f"not an integer: {raw!r}") from exc
        if lo is not None and v < lo:
            raise ConfigError(f"{v} below the allowed minimum {lo}")
        return v

    return parse


def _parse_floats_csv(raw: str):
    try:
        values = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"not a comma-separated float list: {raw!r}") from exc
    if not values or any(v <= 0 for v in values):
        raise ConfigError("expected a nonempty list of positive numbers")
    return values


def _parse_ints_csv(raw: str):
    try:
        values = tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"not a comma-separated integer list: {raw!r}") from exc
    if not values or any(v < 1 for v in values):
        raise ConfigError("expected a nonempty list of positive integers")
    return values


def _parse_str(raw: str):
    return raw


# Key groups shared by the schemas below; each key is defined once.
_COMMON_KEYS: dict[str, ConfigKey] = {
    "out": ConfigKey(_parse_str, default="out"),
    "seed": ConfigKey(_parse_int(), default=0),
}

_METRIC_KEYS: dict[str, ConfigKey] = {
    "metric": ConfigKey(_parse_choice("hamming", "diffusion"), default="hamming"),
    "t": ConfigKey(_parse_float(lo=0.0), default=1.0),
    "phi": ConfigKey(_parse_choice("identity", "square"), default="identity"),
}

_GENERATOR_KEYS: dict[str, ConfigKey] = {
    "p": ConfigKey(_parse_float(lo=0.0, hi=1.0, lo_open=False, hi_open=False), default=0.1),
    "radius": ConfigKey(_parse_float(lo=0.0), default=0.175),
    "n_blocks": ConfigKey(_parse_int(lo=1), default=3),
    "membership_probs": ConfigKey(_parse_floats_csv, default=None),
    "within_p": ConfigKey(_parse_float(lo=0.0, hi=1.0, lo_open=False, hi_open=False), default=0.16),
    "between_p": ConfigKey(_parse_float(lo=0.0, hi=1.0, lo_open=False, hi_open=False), default=0.075),
    "lattice_degree": ConfigKey(_parse_int(lo=2), default=2),
    "rewire_p": ConfigKey(_parse_float(lo=0.0, hi=1.0, lo_open=False, hi_open=False), default=0.2),
}

# Chain knobs apart from the run length (n_samples, burn_in, lag), whose
# defaults differ between a single fit and a replicated study.
_CHAIN_KEYS: dict[str, ConfigKey] = {
    "alpha_tilde": ConfigKey(_parse_float(lo=0.0, hi=0.5), default=None),
    "tau": ConfigKey(_parse_float(lo=0.0, hi=1.0), default=None),
    "kernel_mix_weight": ConfigKey(_parse_float(lo=0.0, hi=1.0, lo_open=False, hi_open=False), default=0.8),
    "upsilons": ConfigKey(_parse_floats_csv, default=(0.005, 0.02, 0.08)),
    "aux_inner_steps": ConfigKey(_parse_int(lo=1), default=None),
}

FIT_SCHEMA: dict[str, ConfigKey] = {
    **_COMMON_KEYS,
    **_METRIC_KEYS,
    **_CHAIN_KEYS,
    "data": ConfigKey(_parse_str, required=True),
    "g0": ConfigKey(_parse_str, default=None),
    "alpha0": ConfigKey(_parse_float(lo=0.0, hi=0.5), default=0.05),
    "beta_a": ConfigKey(_parse_float(lo=0.0), default=1.0),
    "beta_b": ConfigKey(_parse_float(lo=0.0), default=9.0),
    "gamma0": ConfigKey(_parse_float(lo=0.0), default=1.0),
    "gamma_prior": ConfigKey(_parse_choice("exponential", "uniform"), default="exponential"),
    "gamma_rate": ConfigKey(_parse_float(lo=0.0), default=1.0),
    "gamma_kappa": ConfigKey(_parse_float(lo=0.0), default=50.0),
    "n_samples": ConfigKey(_parse_int(lo=1), default=1000),
    "burn_in": ConfigKey(_parse_int(lo=0), default=1000),
    "lag": ConfigKey(_parse_int(lo=1), default=2),
    "gamma_upsilons": ConfigKey(_parse_floats_csv, default=None),
}

SIM_SCHEMA: dict[str, ConfigKey] = {
    **_COMMON_KEYS,
    **_METRIC_KEYS,
    **_GENERATOR_KEYS,
    "kind": ConfigKey(_parse_choice("er", "sbm", "sw", "rgg", "cer", "snf"), required=True),
    "n_vertices": ConfigKey(_parse_int(lo=1), required=True),
    "n_graphs": ConfigKey(_parse_int(lo=1), default=1),
    "mode": ConfigKey(_parse_str, default=None),
    "alpha": ConfigKey(_parse_float(lo=0.0, hi=0.5), default=0.05),
    "gamma": ConfigKey(_parse_float(lo=0.0), default=1.0),
    "inner_steps": ConfigKey(_parse_int(lo=1), default=None),
}

EXPERIMENT_SCHEMA: dict[str, ConfigKey] = {
    **_COMMON_KEYS,
    **_METRIC_KEYS,
    **_GENERATOR_KEYS,
    **_CHAIN_KEYS,
    "study": ConfigKey(
        _parse_choice("concentration", "comparison", "prediction", "robustness"), required=True
    ),
    "generator": ConfigKey(_parse_choice("er", "sbm", "sw", "rgg"), default="er"),
    "model": ConfigKey(_parse_choice("cer", "snf"), default="cer"),
    "n_vertices": ConfigKey(_parse_int(lo=2), default=50),
    "sample_sizes": ConfigKey(_parse_ints_csv, default=(3, 5, 7, 10)),
    "n_replicates": ConfigKey(_parse_int(lo=1), default=20),
    "epsilons": ConfigKey(_parse_floats_csv, default=(1.0, 2.0, 3.0)),
    "delta": ConfigKey(_parse_float(lo=0.0, hi=1.0), default=0.05),
    "data_alpha": ConfigKey(_parse_float(lo=0.0, hi=0.5), default=0.01),
    "data_gamma": ConfigKey(_parse_float(lo=0.0), default=None),
    "n_samples": ConfigKey(_parse_int(lo=1), default=250),
    "burn_in": ConfigKey(_parse_int(lo=0), default=10000),
    "lag": ConfigKey(_parse_int(lo=1), default=5),
    "test_size": ConfigKey(_parse_int(lo=1), default=20),
    "n_predictive": ConfigKey(_parse_int(lo=1), default=20),
    "misspecification": ConfigKey(_parse_choice("none", "dependence", "metric"), default="dependence"),
    "persist_p": ConfigKey(_parse_float(lo=0.0, hi=1.0, lo_open=False, hi_open=False), default=0.9),
    "flip_p": ConfigKey(_parse_float(lo=0.0, hi=1.0, lo_open=False, hi_open=False), default=0.5),
    "statistics": ConfigKey(_parse_str, default="degree_q0.1,degree_q0.5,degree_q0.9"),
    "ppc_draws": ConfigKey(_parse_int(lo=100), default=200),
    "chi2_sims": ConfigKey(_parse_int(lo=10), default=300),
    "chi2_max_draws": ConfigKey(_parse_int(lo=1), default=100),
    "nominal_level": ConfigKey(_parse_float(lo=0.0, hi=1.0), default=0.05),
    "chi2_threshold": ConfigKey(_parse_float(lo=0.0, hi=1.0), default=0.5),
    "threads": ConfigKey(_parse_int(lo=1), default=1),
}


def parse_config_text(text: str, schema: dict[str, ConfigKey]) -> dict[str, Any]:
    values: dict[str, Any] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"duplicate config key {key!r}")
        try:
            values[key] = schema[key].parse(raw)
        except ConfigError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from exc
    for key, spec in schema.items():
        if key not in values:
            if spec.required:
                raise ConfigError(f"missing required config key {key!r}")
            values[key] = spec.default
    return values


def read_config(path: str, schema: Optional[dict[str, ConfigKey]] = None) -> dict[str, Any]:
    """Parse and validate a key=value config file against ``schema`` (default: the fit schema)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config_text(text, schema or FIT_SCHEMA)


def write_manifest(path: str, config: dict, seed: int, outputs: list[str], started: str, finished: str) -> None:
    manifest = {
        "config": config,
        "config_hash": config_hash(config),
        "seed": seed,
        "version": __version__,
        "started": started,
        "finished": finished,
        "outputs": outputs,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
