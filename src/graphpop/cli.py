"""Command-line entry points.

Subcommands: simulate, fit-cer, fit-sn, frechet, distances, mds, diagnose,
experiment. Every run writes its outputs plus a manifest (config, hash, seed,
version, timestamps, file list) under the output directory. Exit codes: 0 on
success, 2 on runtime failures (a failed eigendecomposition, an internal
inconsistency, a non-finite log ratio, or any exception outside the package),
1 on every other error; errors go to stderr as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from datetime import datetime, timezone
from functools import partial
from typing import Optional

import numpy as np

from . import io as gio
from .diagnostics import (
    Chi2Config,
    DegreeQuantile,
    EdgeCount,
    MeanDegree,
    bayes_chi2,
    posterior_predictive_check,
    suggest_gamma_steps,
)
from .errors import (
    ConfigError,
    EigDecompositionFailureError,
    GraphPopError,
    InternalInconsistencyError,
    NonFiniteLogRatioError,
    SchemaError,
)
from .experiments import (
    StudyConfig,
    concentration_study,
    majority_vote_comparison,
    prediction_study,
    robustness_study,
)
from .graphs import (
    MAX_ENUMERABLE_VERTICES,
    ErdosRenyi,
    LabelledGraph,
    RandomGeometric,
    SmallWorld,
    StochasticBlockModel,
    majority_vote,
    n_pairs,
    sample_generator_matrix,
)
from .inference import (
    CerCerHyper,
    ExponentialPrior,
    McmcConfig,
    SnSnHyper,
    TruncatedUniformPrior,
    _check_sn_sn_inputs,
    fit_cer_cer,
    fit_sn_sn,
    plugin_alpha_tilde,
    posterior_summary,
    sample_blocks,
    spawn_rng,
)
from .metrics import MetricSpec, classical_mds, distance_matrix
from .models import CerParams, SnfParams, _sorted_quantile, sample_frechet_mean

# Failures of a run on valid input exit 2; every other package error exits 1.
_RUNTIME_ERRORS = (EigDecompositionFailureError, InternalInconsistencyError, NonFiniteLogRatioError)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _fail(exc: Exception, code: int) -> int:
    line = json.dumps({"error": type(exc).__name__, "message": str(exc)})
    print(line, file=sys.stderr)
    return code


def _read_config(args, schema) -> dict:
    """The parsed config of ``args.config``, with ``--out`` overriding its ``out``."""
    values = gio.read_config(args.config, schema)
    if args.out:
        values["out"] = args.out
    return values


def _write_flag_manifest(args, outputs: list[str], started: str) -> None:
    """Manifest of a flag-driven command: its config is every parsed argument."""
    config = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    gio.write_manifest(
        f"{args.out}/manifest.json", config, config.get("seed", 0), outputs, started, _now()
    )


def _metric_from(values: dict) -> MetricSpec:
    return MetricSpec(kind=values["metric"], t=values["t"], phi=values["phi"])


def _stat_from_name(name: str):
    if name == "edge_count":
        return EdgeCount()
    if name == "mean_degree":
        return MeanDegree()
    if name.startswith("degree_q"):
        return DegreeQuantile(float(name[len("degree_q") :]))
    raise ConfigError(f"unknown statistic {name!r}")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    values = _read_config(args, gio.SIM_SCHEMA)
    out = gio.ensure_dir(values["out"])
    started = _now()
    rng = spawn_rng(values["seed"])
    n, count = values["n_vertices"], values["n_graphs"]
    kind = values["kind"]
    rows = gio.chunk_rows(n_pairs(n))
    # Blocks are drawn lazily, as the writer asks for them, so one block is
    # held at a time (SNF chain draws above N = 5 hold all of theirs).
    if kind in ("er", "sbm", "sw", "rgg"):
        spec = _generator_from(kind, values)
        blocks = (
            sample_generator_matrix(spec, n, min(rows, count - r), rng)
            for r in range(0, count, rows)
        )
    else:
        if values["mode"] is None:
            raise ConfigError("key 'mode' (adjacency CSV path) is required for model sampling")
        mode = gio.read_adjacency_csv(values["mode"])
        if mode.n_vertices != n:
            raise SchemaError(f"mode file has n={mode.n_vertices}, config says {n}", field="mode")
        if kind == "cer":
            params = CerParams(mode, values["alpha"])
        else:
            params = SnfParams(mode, values["gamma"], _metric_from(values))
        knobs = McmcConfig(n_samples=0, aux_inner_steps=values["inner_steps"])
        blocks = sample_blocks(params, count, rows, rng, knobs)
    gio.write_population(blocks, f"{out}/population.ndjson", n)
    gio.write_manifest(
        f"{out}/manifest.json", values, values["seed"], ["population.ndjson"], started, _now()
    )
    return 0


def _generator_from(kind: str, values: dict):
    if kind == "er":
        return ErdosRenyi(values["p"])
    if kind == "sbm":
        probs = values["membership_probs"]
        if probs is None:
            probs = tuple(1.0 / values["n_blocks"] for _ in range(values["n_blocks"]))
        return StochasticBlockModel(values["n_blocks"], probs, values["within_p"], values["between_p"])
    if kind == "sw":
        return SmallWorld(values["lattice_degree"], values["rewire_p"])
    if kind == "rgg":
        return RandomGeometric(values["radius"])
    raise ConfigError(f"unknown generator {kind!r}")


# ---------------------------------------------------------------------------
# fit-cer / fit-sn
# ---------------------------------------------------------------------------


def _load_fit_inputs(args):
    cfg = _read_config(args, gio.FIT_SCHEMA)
    pop = gio.read_population(cfg["data"])
    if cfg["g0"] is not None:
        g0 = gio.read_adjacency_csv(cfg["g0"])
        if g0.n_vertices != pop.n_vertices:
            raise SchemaError(
                f"g0 has n={g0.n_vertices} but the data has n={pop.n_vertices}", field="g0"
            )
    else:
        g0 = majority_vote(pop)
    return cfg, pop, g0


def _mcmc_from(cfg: dict, upsilons) -> McmcConfig:
    return McmcConfig(
        n_samples=cfg["n_samples"],
        burn_in=cfg["burn_in"],
        lag=cfg["lag"],
        flip_prob_tau=cfg["tau"],
        kernel_mix_weight=cfg["kernel_mix_weight"],
        step_sizes_upsilon=upsilons,
        aux_inner_steps=cfg["aux_inner_steps"],
        seed=cfg["seed"],
    )


def _cer_hyper(cfg: dict, g0: LabelledGraph) -> CerCerHyper:
    return CerCerHyper(g0=g0, alpha0=cfg["alpha0"], beta_a=cfg["beta_a"], beta_b=cfg["beta_b"])


def _write_fit_outputs(out: str, cfg: dict, trace, summary_extra: dict, started: str) -> None:
    gio.write_trace(trace, f"{out}/trace.ndjson")
    summ = posterior_summary(trace)
    top = [
        {"edges": gio._edges_1based(g), "frequency": f}
        for g, f in summ.frequencies[:20]
    ]
    report = {
        "mode_edges": gio._edges_1based(summ.mode_graph),
        "mode_frequency": summ.frequencies[0][1],
        "scalar_name": trace.param_name,
        "scalar_mean": summ.scalar_mean,
        "credible_interval": list(summ.interval),
        "level": summ.level,
        "acceptance_rates": trace.acceptance_rates(),
        "top_graphs": top,
        **summary_extra,
    }
    with open(f"{out}/summary.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs = ["trace.ndjson", "summary.json"]
    gio.write_manifest(f"{out}/manifest.json", cfg, cfg["seed"], outputs, started, _now())


def _cmd_fit_cer(args) -> int:
    cfg, pop, g0 = _load_fit_inputs(args)
    out = gio.ensure_dir(cfg["out"])
    started = _now()
    trace = fit_cer_cer(pop, _cer_hyper(cfg, g0), _mcmc_from(cfg, cfg["upsilons"]))
    _write_fit_outputs(out, cfg, trace, {"model": "cer"}, started)
    return 0


def _cmd_fit_sn(args) -> int:
    cfg, pop, g0 = _load_fit_inputs(args)
    metric = _metric_from(cfg)
    if cfg["gamma_prior"] == "exponential":
        prior = ExponentialPrior(cfg["gamma_rate"])
    else:
        prior = TruncatedUniformPrior(cfg["gamma_kappa"])
    hyper = SnSnHyper(g0=g0, gamma0=cfg["gamma0"], metric=metric, gamma_prior=prior)
    # Refused before the pre-fit and the gamma profile pay for a run that cannot start.
    _check_sn_sn_inputs(hyper, pop.n_vertices)
    out = gio.ensure_dir(cfg["out"])
    started = _now()

    # Plug-in dispersion for the auxiliary density: posterior mean alpha from a
    # CER/CER pre-fit, unless the config pins alpha_tilde.
    alpha_tilde = cfg["alpha_tilde"]
    if alpha_tilde is None:
        alpha_tilde = plugin_alpha_tilde(pop, _cer_hyper(cfg, g0), _mcmc_from(cfg, cfg["upsilons"]))

    gamma_ups = cfg["gamma_upsilons"]
    if gamma_ups is None:
        base_cfg = _mcmc_from(cfg, cfg["upsilons"])
        gamma_ups = suggest_gamma_steps(g0, metric, base_cfg, spawn_rng(cfg["seed"], 7))
    trace = fit_sn_sn(pop, hyper, _mcmc_from(cfg, gamma_ups), alpha_tilde)
    extra = {"model": "snf", "alpha_tilde": alpha_tilde, "gamma_upsilons": list(gamma_ups)}
    _write_fit_outputs(out, cfg, trace, extra, started)
    return 0


# ---------------------------------------------------------------------------
# frechet / distances / mds
# ---------------------------------------------------------------------------


def _cmd_frechet(args) -> int:
    pop = gio.read_population(args.data)
    metric = MetricSpec(kind=args.metric, t=args.t)
    out = gio.ensure_dir(args.out)
    started = _now()
    if pop.n_vertices <= MAX_ENUMERABLE_VERTICES:
        mean = sample_frechet_mean(pop, metric)
    else:
        # Restricted search: the data plus the majority vote as candidates.
        candidates = list(pop.graphs) + [majority_vote(pop)]
        mean = sample_frechet_mean(pop, metric, candidates=candidates)
    gio.write_adjacency_csv(mean, f"{out}/frechet_mean.csv")
    _write_flag_manifest(args, ["frechet_mean.csv"], started)
    return 0


def _cmd_distances(args) -> int:
    pop = gio.read_population(args.data)
    metric = MetricSpec(kind=args.metric, t=args.t)
    out = gio.ensure_dir(args.out)
    started = _now()
    dmat = distance_matrix(pop, metric)
    gio.write_distance_matrix(dmat, f"{out}/distances.csv")
    _write_flag_manifest(args, ["distances.csv"], started)
    return 0


def _cmd_mds(args) -> int:
    pop = gio.read_population(args.data)
    if not 1 <= args.dim <= len(pop) - 1:
        raise ConfigError(f"--dim {args.dim} outside [1, {len(pop) - 1}] for {len(pop)} graphs")
    metric = MetricSpec(kind=args.metric, t=args.t)
    out = gio.ensure_dir(args.out)
    started = _now()
    dmat = distance_matrix(pop, metric)
    coords = classical_mds(dmat, args.dim)
    ids = pop.ids if pop.ids is not None else [f"g{k + 1}" for k in range(len(pop))]
    gio.write_mds_coords(ids, coords, f"{out}/mds.csv")
    _write_flag_manifest(args, ["mds.csv"], started)
    return 0


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def _cmd_diagnose(args) -> int:
    """Check a fit against its data. The model comes from the trace header: its
    ``param``, metric and sampler config (the replicates' inner chains)."""
    # Bounded as the experiment keys that set the same knobs are.
    for flag, key, value in (
        ("--k", "ppc_draws", args.k),
        ("--chi2-sims", "chi2_sims", args.chi2_sims),
        ("--max-draws", "chi2_max_draws", args.max_draws),
    ):
        try:
            gio.EXPERIMENT_SCHEMA[key].parse(str(value))
        except ConfigError as exc:
            raise ConfigError(f"{flag}: {exc}") from None
    pop = gio.read_population(args.data)
    trace = gio.read_trace(args.trace)
    if trace.param_name == "alpha":
        params_of = CerParams
    elif trace.param_name != "gamma":
        raise SchemaError(f"{trace.param_name!r} is neither alpha nor gamma", field="param")
    elif trace.metric is None:
        raise SchemaError("the gamma trace's header names no metric; refit it", field="metric")
    else:
        params_of = partial(SnfParams, metric=trace.metric)
    stat = _stat_from_name(args.stat)
    fitted = trace.config or McmcConfig(n_samples=0)
    out = gio.ensure_dir(args.out)
    started = _now()
    rng = spawn_rng(args.seed)
    ppc = posterior_predictive_check(trace, params_of, pop, stat, args.k, rng, fitted)
    chi2 = bayes_chi2(
        trace, params_of, pop, stat, Chi2Config(), rng, fitted, args.chi2_sims, args.max_draws
    )
    rb_values = np.sort(chi2.rb_values)
    report = {
        "statistic": args.stat,
        "observed": ppc.eta0,
        "ppc_tail_prob": ppc.tail_prob,
        "chi2_exceedance_fraction": chi2.exceedance_fraction,
        "chi2_threshold": chi2.threshold,
        "chi2_rb_quantiles": {
            "q25": float(_sorted_quantile(rb_values, 0.25)),
            "q50": float(_sorted_quantile(rb_values, 0.5)),
            "q75": float(_sorted_quantile(rb_values, 0.75)),
        },
    }
    with open(f"{out}/diagnostics.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    gio.write_qq_csv(chi2.rb_values, Chi2Config().n_bins - 1, f"{out}/chi2_qq.csv")
    _write_flag_manifest(args, ["diagnostics.json", "chi2_qq.csv"], started)
    return 0


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

_STUDIES = {
    "concentration": concentration_study,
    "comparison": majority_vote_comparison,
    "prediction": prediction_study,
    "robustness": robustness_study,
}


def _cmd_experiment(args) -> int:
    values = _read_config(args, gio.EXPERIMENT_SCHEMA)
    if args.threads is not None:
        if args.threads < 1:
            raise ConfigError("--threads must be at least 1")
        values["threads"] = args.threads
    out = gio.ensure_dir(values["out"])
    started = _now()
    built = {
        "generator": _generator_from(values["generator"], values),
        "metric": _metric_from(values),
        "mcmc": _mcmc_from(values, values["upsilons"]),
        "statistics": tuple(_stat_from_name(s.strip()) for s in values["statistics"].split(",")),
        "n_threads": values["threads"],
    }
    # Every other StudyConfig field is the experiment key of the same name.
    cfg = StudyConfig(
        **built, **{f.name: values[f.name] for f in fields(StudyConfig) if f.name not in built}
    )
    rows = _STUDIES[values["study"]](cfg)
    gio.write_rows_csv(rows, f"{out}/study.csv")
    gio.write_manifest(f"{out}/manifest.json", values, values["seed"], ["study.csv"], started, _now())
    return 0


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphpop",
        description="Bayesian modelling of populations of labelled graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample populations from generators or models")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit-cer", help="fit the CER/CER model")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit_cer)

    p = sub.add_parser("fit-sn", help="fit the SN/SN model (CER pre-fit for the plug-in)")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit_sn)

    for name, func in (("frechet", _cmd_frechet), ("distances", _cmd_distances)):
        p = sub.add_parser(name)
        p.add_argument("--data", required=True)
        p.add_argument("--metric", choices=("hamming", "diffusion"), default="hamming")
        p.add_argument("--t", type=float, default=1.0)
        p.add_argument("--out", required=True)
        p.set_defaults(func=func)

    p = sub.add_parser("mds", help="classical multidimensional scaling of a population")
    p.add_argument("--data", required=True)
    p.add_argument("--metric", choices=("hamming", "diffusion"), default="diffusion")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mds)

    p = sub.add_parser("diagnose", help="posterior predictive check and Bayesian chi-squared")
    p.add_argument("--data", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--stat", default="degree_q0.9")
    p.add_argument("--k", type=int, default=200)
    p.add_argument("--chi2-sims", dest="chi2_sims", type=int, default=300)
    p.add_argument("--max-draws", dest="max_draws", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("experiment", help="run a simulation study")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except _RUNTIME_ERRORS as exc:
        return _fail(exc, 2)
    except (GraphPopError, ValueError, OSError) as exc:
        return _fail(exc, 1)
    except Exception as exc:  # pragma: no cover - unexpected failure path
        return _fail(exc, 2)


if __name__ == "__main__":
    sys.exit(main())
