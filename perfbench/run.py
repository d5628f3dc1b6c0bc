"""End-to-end and per-layer benchmark of the graphpop CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Every workload runs one ``experiment``, one ``simulate`` and one fit command
(``fit-cer`` or ``fit-sn``) of one model family, each in a fresh Python
process (``perfbench/command.py``) as users run them, so every cache starts
cold. A round generates the inputs from the seed (mode graph, population,
config files), runs the three commands and checks every output. Rounds repeat
until the next one would end more than half a round after ``--seconds``; each
end-to-end metric is the median over rounds (``peak_rss_mb`` is the maximum).

With ``--trace 1`` each round is an untraced round followed by a traced one:
in the traced command processes every module's public entry points record
spans, and the per-layer metrics come from those spans. ``trace.overhead_s``
is the traced minus the untraced ``cli.main`` wall time of the round.

BLAS is capped at one thread in every command process: the CER study runs two
pool threads, and runnable threads must not exceed the two cores the
benchmark was sized on.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record
(environment, every round, checks, output digests, the ROADMAP baseline
cross-check) goes to ``.perfbench_runs/results/`` in the checkout.
``--smoke`` runs all workloads once at a tiny size, untraced and traced, and
exits non-zero unless every metric named in ``BENCHMARK.json`` is printed
with its unit.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

STARTED = time.perf_counter()

import numpy as np  # noqa: E402

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
COMMAND = os.path.join(HERE, "command.py")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")

# alpha = 1/(1+e^gamma) ~ 0.00995: the library's default data_alpha regime.
GAMMA = 4.6
ALPHA = 1.0 / (1.0 + math.exp(GAMMA))
BLAS_THREADS = 1
POP_SIZE = 10
# Two-sided bound on the z-score of the mean Hamming distance to the mode.
Z_BOUND = 4.0
COMMAND_TIMEOUT_S = 150

# Paper-scale settings. The CER study uses the desk-scale chain (250 kept,
# burn-in 10 000, lag 5); fit-sn keeps the default 20 * N_e inner steps and
# pins the gamma steps so suggest_gamma_steps does not profile 13 gammas.
FULL = {
    "cer": {
        "experiment": dict(study="robustness", model="cer", misspecification="dependence",
                           generator="sbm", sample_sizes="10", n_replicates=2,
                           n_samples=250, burn_in=10000, lag=5, threads=2),
        "simulate": dict(kind="cer", n_graphs=2000, alpha=ALPHA),
        "fit": dict(n_samples=1000, burn_in=10000, lag=20),
    },
    "snf": {
        "experiment": dict(study="concentration", model="snf", generator="sbm",
                           sample_sizes="3", n_replicates=1, n_samples=2, burn_in=2,
                           lag=1, data_gamma=GAMMA),
        "simulate": dict(kind="snf", n_graphs=20, gamma=GAMMA),
        "fit": dict(n_samples=1, burn_in=0, lag=1, gamma0=GAMMA,
                    gamma_upsilons="0.1,0.4,1.2"),
    },
}
# Tiny settings for --smoke: the same commands in seconds.
SMOKE = {
    "cer": {
        "experiment": dict(FULL["cer"]["experiment"], sample_sizes="5",
                           n_samples=20, burn_in=50, lag=1, ppc_draws=100, chi2_sims=10,
                           chi2_max_draws=3),
        "simulate": dict(FULL["cer"]["simulate"], n_graphs=20),
        "fit": dict(n_samples=20, burn_in=50, lag=1),
    },
    "snf": {
        "experiment": FULL["snf"]["experiment"],
        "simulate": dict(FULL["snf"]["simulate"], n_graphs=8),
        "fit": FULL["snf"]["fit"],
    },
}

# BENCHMARK.json lists cer_robustness_n50 and snf_diffusion_n15, which cover
# every module. snf_hamming_n50 runs on request and in --smoke: a full
# measurement (4 + 22 runs per workload in 57 minutes) fits three workloads
# only at 42 s per run, too short to keep the diffusion figures within their
# bounds on a 2-vCPU VM (perfbench/RESULTS.md).
WORKLOADS = {
    "cer_robustness_n50": {"family": "cer", "metric": "hamming", "n": 50, "smoke_n": 10},
    "snf_hamming_n50": {"family": "snf", "metric": "hamming", "n": 50, "smoke_n": 8},
    "snf_diffusion_n15": {"family": "snf", "metric": "diffusion", "n": 15, "smoke_n": 6},
}

END_TO_END = [
    ("setup_s", "s"),
    ("experiment_s", "s"),
    ("simulate_s", "s"),
    ("fit_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("graphs.from_vector.calls", "count", "lower"),
    ("graphs.from_vector.s", "s", "lower"),
    ("graphs.to_vector.calls", "count", "lower"),
    ("graphs.to_vector.s", "s", "lower"),
    ("metrics.heat_kernel.calls", "count", "lower"),
    ("metrics.heat_kernel.s", "s", "lower"),
    ("metrics.heat_kernel.cache_hit_ratio", "ratio", "higher"),
    ("metrics.heat_kernel.cache_entries", "count", "lower"),
    ("metrics.heat_kernel.cache_bytes", "B", "lower"),
    ("models.cer_sample_matrix.calls", "count", "lower"),
    ("models.cer_sample_matrix.rows", "count", "lower"),
    ("models.cer_sample_matrix.s", "s", "lower"),
    ("inference.fit_cer_cer.calls", "count", "lower"),
    ("inference.fit_cer_cer.s", "s", "lower"),
    ("inference.fit_cer_cer.s_per_call", "s", "lower"),
    ("inference.fit_cer_cer.iters", "count", "lower"),
    ("inference.fit_cer_cer.accept.flip", "ratio", "higher"),
    ("inference.fit_cer_cer.accept.empirical", "ratio", "higher"),
    ("inference.fit_cer_cer.accept.alpha_walk", "ratio", "higher"),
    ("inference.fit_sn_sn.calls", "count", "lower"),
    ("inference.fit_sn_sn.s", "s", "lower"),
    ("inference.fit_sn_sn.iters", "count", "lower"),
    ("inference.fit_sn_sn.accept.flip", "ratio", "higher"),
    ("inference.fit_sn_sn.accept.empirical", "ratio", "higher"),
    ("inference.snf_mh_matrix.calls", "count", "lower"),
    ("inference.snf_mh_matrix.s", "s", "lower"),
    ("inference.snf_mh_matrix.self_s", "s", "lower"),
    ("inference.snf_mh_matrix.s_per_fit_call", "s", "lower"),
    ("inference.snf_mh_matrix.chain_steps", "count", "lower"),
    ("inference.snf_mh_matrix.ns_per_chain_step", "ns", "lower"),
    ("inference.snf_mh_matrix.fit_share", "ratio", "lower"),
    ("inference.dist_to.calls", "count", "lower"),
    ("inference.dist_to.rows", "count", "lower"),
    ("inference.dist_to.s", "s", "lower"),
    ("inference.dist_to.self_s", "s", "lower"),
    ("inference.dist_to.rows_per_chain_step", "ratio", "lower"),
    ("diagnostics.posterior_predictive_check.s", "s", "lower"),
    ("diagnostics.bayes_chi2.s", "s", "lower"),
    ("diagnostics.statistic_values.calls", "count", "lower"),
    ("diagnostics.statistic_values.rows", "count", "lower"),
    ("diagnostics.statistic_values.s", "s", "lower"),
    ("experiments.dynamic_markov_sample.s", "s", "lower"),
    ("experiments.thread_wait_s", "s", "lower"),
    ("io.read_population.s", "s", "lower"),
    ("io.write_population.s", "s", "lower"),
    ("io.write_trace.s", "s", "lower"),
    ("io.trace_bytes", "B", "lower"),
    ("cli.import_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# ROADMAP figures the traced per-call times are set against.
# ROADMAP figures the traced per-call times in the fit command are set
# against: (span, iterations the figure is quoted for, figure). A fit_cer_cer
# call is scaled to those iterations; one snf_mh_matrix call over the n=10
# auxiliary chains is one SN/SN iteration.
ROADMAP_BASELINES = {
    "cer_robustness_n50": ("inference.fit_cer_cer", 11250,
                           "0.40 s per CER fit (N=50, n=10, 11 250 iterations)"),
    "snf_hamming_n50": ("inference.snf_mh_matrix", None,
                        "~2 s per SN/SN iteration (Hamming, N=50, n=10)"),
    "snf_diffusion_n15": ("inference.snf_mh_matrix", None,
                          "2-3 s per SN/SN iteration (diffusion, N=15, n=10)"),
}


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program to measure, bad arguments)."""


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _settings(workload: str, smoke: bool) -> dict:
    spec = WORKLOADS[workload]
    table = (SMOKE if smoke else FULL)[spec["family"]]
    return {"family": spec["family"], "metric": spec["metric"],
            "n": spec["smoke_n"] if smoke else spec["n"],
            "experiment": table["experiment"], "simulate": table["simulate"],
            "fit": table["fit"]}


def _write_config(path: str, values: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in values.items():
            fh.write(f"{key}={value}\n")


def make_inputs(workload: str, seed: int, settings: dict, work: str) -> dict:
    """Mode graph, population and the three command configs, all from ``seed``.

    The mode is a three-block SBM draw; the population holds POP_SIZE CER
    perturbations of it at ALPHA, which is an exact SNF sample under Hamming
    with identity phi at GAMMA.
    """
    index = list(WORKLOADS).index(workload)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    n = settings["n"]
    iu, ju = np.triu_indices(n, 1)
    blocks = rng.integers(3, size=n)
    p = np.where(blocks[iu] == blocks[ju], 0.16, 0.075)
    mode = (rng.random(iu.size) < p).astype(np.uint8)
    pop = mode[None, :] ^ (rng.random((POP_SIZE, iu.size)) < ALPHA).astype(np.uint8)
    program_seed = int(rng.integers(1 << 31))

    os.makedirs(work, exist_ok=True)
    adj = np.zeros((n, n), dtype=np.uint8)
    adj[iu, ju] = mode
    adj[ju, iu] = mode
    mode_path = os.path.join(work, "mode.csv")
    with open(mode_path, "w", encoding="utf-8") as fh:
        for row in adj:
            fh.write(",".join(str(int(v)) for v in row) + "\n")
    pop_path = os.path.join(work, "population.ndjson")
    with open(pop_path, "w", encoding="utf-8") as fh:
        for k, row in enumerate(pop):
            edges = [[int(iu[e]) + 1, int(ju[e]) + 1] for e in np.flatnonzero(row)]
            fh.write(json.dumps({"id": f"g{k + 1}", "n": n, "edges": edges}) + "\n")

    family, metric = settings["family"], settings["metric"]
    metric_keys = {} if family == "cer" else {"metric": metric, "t": 1.0}
    exp = dict(settings["experiment"], **metric_keys, n_vertices=n, seed=program_seed)
    sim = dict(settings["simulate"], **metric_keys, n_vertices=n, mode=mode_path,
               seed=program_seed)
    if family == "snf":
        # A short study: its inner chains run 5 * N_e steps, too few to reach
        # the SNF (its output gets validity checks only). simulate and fit-sn
        # keep the default 20 * N_e.
        exp["aux_inner_steps"] = 5 * iu.size
    fit = dict(settings["fit"], **metric_keys, data=pop_path, seed=program_seed)
    commands = []
    for name, values, sub in (("experiment", exp, "experiment"), ("simulate", sim, "simulate"),
                              ("fit", fit, "fit-cer" if family == "cer" else "fit-sn")):
        cfg_path = os.path.join(work, f"{name}.cfg")
        _write_config(cfg_path, values)
        out = os.path.join(work, f"{name}_out")
        commands.append({"name": name, "argv": [sub, "--config", cfg_path, "--out", out],
                         "out": out, "values": values})
    mode_edges = {(int(iu[e]) + 1, int(ju[e]) + 1) for e in np.flatnonzero(mode)}
    return {"commands": commands, "mode_edges": mode_edges, "n_pairs": int(iu.size)}


# ---------------------------------------------------------------------------
# Output checks: each returns a list of failures (empty when the output holds)
# ---------------------------------------------------------------------------


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _require_files(out: str, names) -> list[str]:
    return [f"missing {name}" for name in names if not os.path.isfile(os.path.join(out, name))]


def check_experiment(cmd: dict) -> list[str]:
    out, values = cmd["out"], cmd["values"]
    errors = _require_files(out, ("study.csv", "manifest.json"))
    if errors:
        return errors
    with open(os.path.join(out, "study.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    n_sizes = len(str(values["sample_sizes"]).split(","))
    expected = n_sizes * 3  # three statistics (robustness) or three epsilons
    if len(rows) != expected:
        errors.append(f"study.csv has {len(rows)} rows, expected {expected}")
    if values["study"] == "robustness":
        rate_keys = ("ppc_rejection_rate", "chi2_rejection_rate")
    else:
        rate_keys = ("fraction_concentrated",)
        for row in rows:
            d = float(row["mean_mode_distance"])
            if not (math.isfinite(d) and d >= 0):
                errors.append(f"mean_mode_distance {d} not a finite distance")
    for row in rows:
        for key in rate_keys:
            rate = float(row[key])
            if not 0.0 <= rate <= 1.0:
                errors.append(f"{key}={rate} outside [0, 1]")
    return errors


def check_simulate(cmd: dict, inputs: dict, settings: dict) -> tuple[list[str], dict]:
    """Validity of every record; for CER and Hamming SNF the exact Binomial law.

    With identity phi the Hamming SNF is CER with alpha = 1/(1+e^gamma), so the
    Hamming distance of each draw to the mode is Binomial(N_e, alpha).
    """
    out, values = cmd["out"], cmd["values"]
    errors = _require_files(out, ("population.ndjson", "manifest.json"))
    if errors:
        return errors, {}
    n = settings["n"]
    dists = []
    with open(os.path.join(out, "population.ndjson"), encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            edges = {tuple(e) for e in rec["edges"]}
            if rec["n"] != n or len(edges) != len(rec["edges"]) or any(
                not 1 <= i < j <= n for i, j in edges
            ):
                errors.append(f"bad record {rec.get('id')}")
            dists.append(len(edges ^ inputs["mode_edges"]))
    if len(dists) != values["n_graphs"]:
        errors.append(f"{len(dists)} graphs written, expected {values['n_graphs']}")
    stats = {"mean_hamming_to_mode": statistics.fmean(dists) if dists else float("nan")}
    if settings["family"] == "cer" or settings["metric"] == "hamming":
        alpha = values["alpha"] if settings["family"] == "cer" else ALPHA
        ne = inputs["n_pairs"]
        expect = ne * alpha
        sd = math.sqrt(ne * alpha * (1 - alpha) / max(1, len(dists)))
        z = (stats["mean_hamming_to_mode"] - expect) / sd
        stats.update(binomial_mean=expect, z=z, z_bound=Z_BOUND)
        if not abs(z) <= Z_BOUND:
            errors.append(f"mean Hamming distance {stats['mean_hamming_to_mode']:.3f} vs "
                          f"Binomial mean {expect:.3f}: |z|={abs(z):.2f} > {Z_BOUND}")
    return errors, stats


def check_fit(cmd: dict, settings: dict) -> list[str]:
    out, values = cmd["out"], cmd["values"]
    errors = _require_files(out, ("trace.ndjson", "summary.json", "manifest.json"))
    if errors:
        return errors
    with open(os.path.join(out, "trace.ndjson"), encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    header, samples = lines[0], lines[1:]
    if len(samples) != values["n_samples"]:
        errors.append(f"trace has {len(samples)} samples, expected {values['n_samples']}")
    cer = settings["family"] == "cer"
    hi = 0.5 if cer else math.inf
    for rec in samples:
        if not (_finite(rec["param"]) and 0.0 < rec["param"] < hi):
            errors.append(f"trace param {rec['param']} out of range")
        if not _finite(rec["log_kernel"]):
            errors.append("non-finite log_kernel in trace")
    proposals = 0
    for key, (acc, prop) in header["accept_counts"].items():
        proposals += prop
        if not 0 <= acc <= prop:
            errors.append(f"acceptance {key}: {acc}/{prop} outside [0, 1]")
    iters = values["burn_in"] + values["n_samples"] * values["lag"]
    kernels = 2 * iters if cer else iters  # CER adds one alpha walk per iteration
    if proposals != kernels:
        errors.append(f"{proposals} proposals counted, expected {kernels}")
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    if not (_finite(summary["scalar_mean"]) and 0.0 < summary["scalar_mean"] < hi):
        errors.append(f"scalar_mean {summary['scalar_mean']} out of range")
    if not cer and not (_finite(summary["alpha_tilde"]) and 0.0 < summary["alpha_tilde"] < 0.5):
        errors.append(f"alpha_tilde {summary['alpha_tilde']} outside (0, 0.5)")
    return errors


DIGESTED = {"experiment": "study.csv", "simulate": "population.ndjson", "fit": "trace.ndjson"}


def output_digest(cmd: dict) -> str | None:
    path = os.path.join(cmd["out"], DIGESTED[cmd["name"]])
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# Running commands and rounds
# ---------------------------------------------------------------------------


def _command_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def run_command(argv: list[str], result_path: str, trace: bool, log_path: str) -> dict:
    """Run one CLI command in a fresh process; return its result record."""
    spawn = time.monotonic()
    with open(log_path, "wb") as log:
        try:
            exit_code = subprocess.run(
                [sys.executable, COMMAND, result_path, "1" if trace else "0", "--", *argv],
                cwd=ROOT, env=_command_env(), stdout=log, stderr=subprocess.STDOUT,
                timeout=COMMAND_TIMEOUT_S,
            ).returncode
        except subprocess.TimeoutExpired:  # the child is killed and reaped by then
            exit_code = f"timeout after {COMMAND_TIMEOUT_S} s"
    record = {"exit_code": exit_code, "spawn_monotonic": spawn}
    if os.path.isfile(result_path):
        with open(result_path, encoding="utf-8") as fh:
            record.update(json.load(fh))
        record["setup_s"] = record["imported_monotonic"] - spawn
    return record


def run_round(workload: str, seed: int, settings: dict, work: str, trace: bool) -> dict:
    t0 = time.perf_counter()
    inputs = make_inputs(workload, seed, settings, work)
    gen_s = time.perf_counter() - t0
    ops = []
    for cmd in inputs["commands"]:
        result_path = os.path.join(work, f"{cmd['name']}.result.json")
        rec = run_command(cmd["argv"], result_path, trace, os.path.join(work, f"{cmd['name']}.log"))
        errors = []
        if rec["exit_code"] != 0 or "main_s" not in rec:
            with open(os.path.join(work, f"{cmd['name']}.log"), encoding="utf-8",
                      errors="replace") as fh:
                errors.append(f"exit code {rec['exit_code']}: {fh.read()[-400:]}")
        else:
            if cmd["name"] == "experiment":
                errors += check_experiment(cmd)
            elif cmd["name"] == "simulate":
                errs, rec["reference"] = check_simulate(cmd, inputs, settings)
                errors += errs
            else:
                errors += check_fit(cmd, settings)
        rec.update(name=cmd["name"], argv=cmd["argv"], digest=output_digest(cmd), errors=errors)
        ops.append(rec)
    return {"trace": trace, "gen_s": gen_s, "ops": ops, "wall_s": time.perf_counter() - t0}


def warm_up() -> None:
    """Import the package once untimed; fail unless it comes from this checkout."""
    src = os.path.join(ROOT, "src", "graphpop", "cli.py")
    if not os.path.isfile(src):
        raise BenchmarkError(f"no graphpop sources under {os.path.join(ROOT, 'src')}")
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import graphpop.cli as c; "
             "print(c.__file__)")
    proc = subprocess.run([sys.executable, "-c", probe, os.path.join(ROOT, "src")],
                          cwd=ROOT, env=_command_env(), capture_output=True, text=True,
                          timeout=COMMAND_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"cannot import graphpop.cli: {proc.stderr.strip()[-400:]}")
    loaded = os.path.realpath(proc.stdout.strip())
    if loaded != os.path.realpath(src):
        raise BenchmarkError(f"graphpop.cli loads from {loaded}, not from this checkout")


def source_digest() -> str:
    """Digest of the program and of this benchmark, which defines its inputs."""
    h = hashlib.sha256()
    for folder in (os.path.join(ROOT, "src", "graphpop"), HERE):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end_metrics(rounds: list[dict]) -> dict:
    plain = [r for r in rounds if not r["trace"]]

    def per_round(name):
        return [op["main_s"] for r in plain for op in r["ops"]
                if op["name"] == name and "main_s" in op]

    setups = [r["gen_s"] + sum(op.get("setup_s", 0.0) for op in r["ops"]) for r in plain]
    rss = [op["maxrss_kb"] / 1024.0 for r in plain for op in r["ops"] if "maxrss_kb" in op]
    values = {
        "setup_s": statistics.median(setups),
        "experiment_s": statistics.median(per_round("experiment")),
        "simulate_s": statistics.median(per_round("simulate")),
        "fit_s": statistics.median(per_round("fit")),
        "peak_rss_mb": max(rss),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


class SpanStats:
    """Per-name totals over the spans of one command process."""

    def __init__(self, spans: list[list]):
        by_id = {s[0]: s for s in spans}
        child_s: dict[int, float] = {}
        for s in spans:
            if s[2] is not None:
                child_s[s[2]] = child_s.get(s[2], 0.0) + (s[4] - s[3])
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.extra: dict[str, dict] = {}
        self.durations: dict[str, list[float]] = {}
        self.chain_rows = 0
        self.pool_wait_s = 0.0
        for sid, name, parent, t0, t1, cpu, pool, info in spans:
            dur = t1 - t0
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + dur
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child_s.get(sid, 0.0)
            self.durations.setdefault(name, []).append(dur)
            if pool and parent is None:
                self.pool_wait_s += dur - cpu
            if info:
                acc = self.extra.setdefault(name, {})
                for key, val in info.items():
                    if key == "accept":
                        kern = acc.setdefault("accept", {})
                        for k, (a, p) in val.items():
                            old = kern.get(k, (0, 0))
                            kern[k] = (old[0] + a, old[1] + p)
                    else:
                        acc[key] = acc.get(key, 0) + val
                if name == "inference.dist_to" and parent is not None \
                        and by_id[parent][1] == "inference.snf_mh_matrix":
                    self.chain_rows += info["rows"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_round(untraced: dict, traced: dict, n_vertices: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced round, plus its per-call baseline figures."""
    stats = {op["name"]: SpanStats(op["spans"] or []) for op in traced["ops"]}

    def calls(name):
        return sum(s.calls.get(name, 0) for s in stats.values())

    def total(name):
        return sum(s.total.get(name, 0.0) for s in stats.values())

    def self_s(name):
        return sum(s.self_s.get(name, 0.0) for s in stats.values())

    def extra(name, key):
        return sum(s.extra.get(name, {}).get(key, 0) for s in stats.values())

    def accept(name, kernel):
        a = p = 0
        for s in stats.values():
            ka, kp = s.extra.get(name, {}).get("accept", {}).get(kernel, (0, 0))
            a, p = a + ka, p + kp
        return _ratio(a, p)

    caches = [op["heat_cache"] for op in traced["ops"]]
    hits = sum(c["hits"] for c in caches)
    misses = sum(c["misses"] for c in caches)
    entries = max(c["entries"] for c in caches)
    snf = "inference.snf_mh_matrix"
    chain_steps = extra(snf, "chain_steps")
    fit_stats = stats["fit"]
    fit_main = next(op["main_s"] for op in traced["ops"] if op["name"] == "fit")
    fit_snf = fit_stats.durations.get(snf, [])
    cer_calls = calls("inference.fit_cer_cer")
    m = {
        "graphs.from_vector.calls": calls("graphs.from_vector"),
        "graphs.from_vector.s": total("graphs.from_vector"),
        "graphs.to_vector.calls": calls("graphs.to_vector"),
        "graphs.to_vector.s": total("graphs.to_vector"),
        "metrics.heat_kernel.calls": calls("metrics.heat_kernel"),
        "metrics.heat_kernel.s": total("metrics.heat_kernel"),
        "metrics.heat_kernel.cache_hit_ratio": _ratio(hits, hits + misses),
        "metrics.heat_kernel.cache_entries": entries,
        "metrics.heat_kernel.cache_bytes": entries * n_vertices * n_vertices * 8,
        "models.cer_sample_matrix.calls": calls("models.cer_sample_matrix"),
        "models.cer_sample_matrix.rows": extra("models.cer_sample_matrix", "rows"),
        "models.cer_sample_matrix.s": total("models.cer_sample_matrix"),
        "inference.fit_cer_cer.calls": cer_calls,
        "inference.fit_cer_cer.s": total("inference.fit_cer_cer"),
        "inference.fit_cer_cer.s_per_call": _ratio(total("inference.fit_cer_cer"), cer_calls),
        "inference.fit_cer_cer.iters": extra("inference.fit_cer_cer", "iters"),
        "inference.fit_cer_cer.accept.flip": accept("inference.fit_cer_cer", "flip"),
        "inference.fit_cer_cer.accept.empirical": accept("inference.fit_cer_cer", "empirical"),
        "inference.fit_cer_cer.accept.alpha_walk": accept("inference.fit_cer_cer", "alpha_walk"),
        "inference.fit_sn_sn.calls": calls("inference.fit_sn_sn"),
        "inference.fit_sn_sn.s": total("inference.fit_sn_sn"),
        "inference.fit_sn_sn.iters": extra("inference.fit_sn_sn", "iters"),
        "inference.fit_sn_sn.accept.flip": accept("inference.fit_sn_sn", "flip"),
        "inference.fit_sn_sn.accept.empirical": accept("inference.fit_sn_sn", "empirical"),
        "inference.snf_mh_matrix.calls": calls(snf),
        "inference.snf_mh_matrix.s": total(snf),
        "inference.snf_mh_matrix.self_s": self_s(snf),
        "inference.snf_mh_matrix.s_per_fit_call": _ratio(sum(fit_snf), len(fit_snf)),
        "inference.snf_mh_matrix.chain_steps": chain_steps,
        "inference.snf_mh_matrix.ns_per_chain_step": _ratio(total(snf) * 1e9, chain_steps),
        "inference.snf_mh_matrix.fit_share": _ratio(sum(fit_snf), fit_main),
        "inference.dist_to.calls": calls("inference.dist_to"),
        "inference.dist_to.rows": extra("inference.dist_to", "rows"),
        "inference.dist_to.s": total("inference.dist_to"),
        "inference.dist_to.self_s": self_s("inference.dist_to"),
        "inference.dist_to.rows_per_chain_step": _ratio(
            sum(s.chain_rows for s in stats.values()), chain_steps),
        "diagnostics.posterior_predictive_check.s": total("diagnostics.posterior_predictive_check"),
        "diagnostics.bayes_chi2.s": total("diagnostics.bayes_chi2"),
        "diagnostics.statistic_values.calls": calls("diagnostics.statistic_values"),
        "diagnostics.statistic_values.rows": extra("diagnostics.statistic_values", "rows"),
        "diagnostics.statistic_values.s": total("diagnostics.statistic_values"),
        "experiments.dynamic_markov_sample.s": total("experiments.dynamic_markov_sample"),
        "experiments.thread_wait_s": sum(s.pool_wait_s for s in stats.values()),
        "io.read_population.s": total("io.read_population"),
        "io.write_population.s": total("io.write_population"),
        "io.write_trace.s": total("io.write_trace"),
        "io.trace_bytes": extra("io.write_trace", "bytes"),
        "cli.import_s": sum(op["import_s"] for op in traced["ops"]),
        "trace.overhead_s": sum(op["main_s"] for op in traced["ops"])
        - sum(op["main_s"] for op in untraced["ops"]),
    }
    calls_s = {
        fn: {cmd: s.durations.get(fn, []) for cmd, s in stats.items()}
        for fn in ("inference.fit_cer_cer", snf)
    }
    return m, calls_s


def per_layer_metrics(rounds: list[dict], n_vertices: int) -> tuple[dict, list[dict]]:
    pairs = [(rounds[k], rounds[k + 1]) for k in range(0, len(rounds) - 1, 2)
             if not rounds[k]["trace"] and rounds[k + 1]["trace"]]
    per_round = [per_layer_round(u, t, n_vertices) for u, t in pairs]
    metrics = {}
    for name, unit, _ in PER_LAYER:
        value = statistics.median(m[name] for m, _ in per_round)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, [calls for _, calls in per_round]


# ---------------------------------------------------------------------------
# Environment and result records
# ---------------------------------------------------------------------------


def environment() -> dict:
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads_per_command": BLAS_THREADS,
        "blas_thread_vars": ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"],
    }


def _check_digests(rounds: list[dict], key: str, failures: list[str]) -> dict:
    """Every rerun of a command must write byte-identical output, also across runs."""
    first: dict[str, str | None] = {}
    for r in rounds:
        for op in r["ops"]:
            ref = first.setdefault(op["name"], op["digest"])
            if op["digest"] != ref:
                op["errors"].append(f"output digest {op['digest']} differs from {ref}")
    path = os.path.join(RUNS_DIR, "digests", key + ".json")
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        if earlier != first:
            failures.append(f"output digests differ from an earlier run with the same code "
                            f"and seed ({path})")
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(first, fh, indent=1, sort_keys=True)
    return first


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    settings = _settings(workload, smoke)
    run_dir = os.path.join(RUNS_DIR, "work", f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}")
    rounds: list[dict] = []
    durations: list[float] = []
    try:
        while True:
            t0 = time.perf_counter()
            k = len(durations)
            if trace:
                rounds.append(run_round(workload, seed, settings,
                                        os.path.join(run_dir, f"r{k}u"), trace=False))
            rounds.append(run_round(workload, seed, settings,
                                    os.path.join(run_dir, f"r{k}" + ("t" if trace else "")),
                                    trace=trace))
            durations.append(time.perf_counter() - t0)
            # Start another round while it would end less than half a round
            # after --seconds (start-up included), so runs last --seconds on
            # average and never more than half a round longer.
            elapsed = time.perf_counter() - STARTED
            if smoke or elapsed + statistics.median(durations) / 2 > seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failures: list[str] = []
    key = f"{'smoke-' if smoke else ''}{workload}-s{seed}-{source_digest()[:16]}"
    digests = _check_digests(rounds, key, failures)
    ops = [op for r in rounds for op in r["ops"]]
    failed = sum(1 for op in ops if op["errors"])
    for op in ops:
        failures += [f"{op['name']}: {e}" for e in op["errors"]]

    baselines = None
    if trace:
        metrics, calls = per_layer_metrics(rounds, settings["n"])
        fn, ref_iters, roadmap = ROADMAP_BASELINES[workload]
        fit = settings["fit"]
        scale = ref_iters / (fit["burn_in"] + fit["n_samples"] * fit["lag"]) if ref_iters else 1.0
        per_round = [statistics.fmean(c[fn]["fit"]) * scale for c in calls if c[fn]["fit"]]
        baselines = {
            "span": fn,
            "roadmap": roadmap,
            "measured_s": statistics.median(per_round) if per_round else None,
            "per_call_s": calls,
        }
    else:
        metrics = end_to_end_metrics(rounds)
    for op in ops:
        op.pop("spans", None)
    return {
        "result": {
            "correct": not failures,
            "attempted": len(ops),
            "failed": max(failed, 1 if failures else 0),
            "metrics": metrics,
        },
        "record": {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "smoke": smoke, "environment": environment(), "rounds": rounds,
            "digests": digests, "failures": failures, "roadmap_baselines": baselines,
        },
    }


def _save_record(record: dict) -> str:
    name = (f"{'smoke-' if record['smoke'] else ''}{record['workload']}-seed{record['seed']}"
            f"-trace{int(record['trace'])}.json")
    path = os.path.join(RUNS_DIR, "results", name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    return path


def smoke() -> int:
    """All workloads once at a tiny size; every declared metric must print with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    missing = []
    for workload in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            out = run_workload(workload, 0, 0, trace, smoke=True)
            _save_record(out["record"])
            result = out["result"]
            print(json.dumps({"workload": workload, **result}, sort_keys=True))
            if not result["correct"]:
                missing.append(f"{workload}: {out['record']['failures']}")
            for metric in declared[section]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"] or not _finite(got["value"]):
                    missing.append(f"{workload}: {metric['name']} [{metric['unit']}] -> {got}")
            extra = set(result["metrics"]) - {m["name"] for m in declared[section]}
            missing += [f"{workload}: undeclared metric {name}" for name in sorted(extra)]
    for line in missing:
        print("SMOKE FAIL", line, file=sys.stderr)
    print(json.dumps({"smoke": "fail" if missing else "ok", "problems": len(missing)}))
    return 1 if missing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    # Exit through the normal unwinding on SIGTERM, so subprocess.run kills
    # and reaps the running command and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        warm_up()
        if args.smoke:
            return smoke()
        if args.workload is None:
            raise BenchmarkError("--workload is required")
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    path = _save_record(out["record"])
    print(json.dumps({"environment": out["record"]["environment"]}, sort_keys=True))
    print(json.dumps({"digests": out["record"]["digests"]}, sort_keys=True))
    if out["record"]["roadmap_baselines"]:
        baselines = dict(out["record"]["roadmap_baselines"])
        baselines.pop("per_call_s")
        print(json.dumps({"roadmap_baselines": baselines}, sort_keys=True))
    for failure in out["record"]["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(f"perfbench: full record in {os.path.relpath(path, ROOT)}", file=sys.stderr)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
