"""End-to-end acceptance suite.

Each test covers one release criterion at its stated tolerance and prints a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see
them stream). The heavy replication studies run at desk scale: reduced chain
lengths and 20-50 replicates, with tolerances set accordingly.
"""

import math
import time

import numpy as np
from scipy import stats as sstats

from conftest import graph_marginal_from_trace, random_graph, tv_distance
from graphpop.diagnostics import DegreeQuantile
from graphpop.experiments import StudyConfig, concentration_study, prediction_study, robustness_study
from graphpop.graphs import (
    ErdosRenyi,
    GraphPopulation,
    LabelledGraph,
    StochasticBlockModel,
    enumerate_graph_space,
)
from graphpop.inference import (
    CerCerHyper,
    McmcConfig,
    SnSnHyper,
    exact_posterior_cer,
    exact_posterior_snf,
    fit_cer_cer,
    fit_sn_sn,
    spawn_rng,
)
from graphpop.metrics import MetricSpec
from graphpop.models import (
    CerParams,
    SnfParams,
    cer_entropy,
    cer_exact,
    cer_log_pmf,
    cer_sample,
    cer_to_snf_gamma,
    frechet_mean_of_distribution,
    snf_entropy_exact,
    snf_exact,
)
from graphpop import io as gio

HAMMING = MetricSpec(kind="hamming")
DIFFUSION = MetricSpec(kind="diffusion", t=1.0)


def report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_unimodality():
    start = time.time()
    rng = spawn_rng(101)
    mode = random_graph(4, rng)
    space = enumerate_graph_space(4)
    violations = 0

    def count_violations(probs, dists, tol=1e-9):
        bad = 0
        for a in range(len(space)):
            for b in range(len(space)):
                if dists[a] > dists[b] + tol and probs[a] >= probs[b]:
                    bad += 1
                if abs(dists[a] - dists[b]) <= tol and abs(probs[a] - probs[b]) > tol:
                    bad += 1
        return bad

    ham_d = np.array([HAMMING.distance(g, mode) for g in space])
    for alpha in (0.05, 0.2, 0.45):
        violations += count_violations(cer_exact(CerParams(mode, alpha)).probs, ham_d)
    for metric in (HAMMING, DIFFUSION):
        dists = np.array([metric.distance(g, mode) for g in space])
        for gamma in (0.5, 2.0):
            violations += count_violations(snf_exact(SnfParams(mode, gamma, metric)).probs, dists)
    elapsed = time.time() - start
    report(
        "criterion 1 (unimodality, N=4 exhaustive)",
        violations == 0 and elapsed < 1.0,
        f"{violations} violations over 7 configurations in {elapsed:.2f}s",
    )


def test_criterion_2_cer_inside_snf():
    start = time.time()
    rng = spawn_rng(102)
    mode = random_graph(4, rng)
    alpha = 0.2
    gamma = cer_to_snf_gamma(alpha)  # log(0.8/0.2)
    cer = CerParams(mode, alpha)
    dist = snf_exact(SnfParams(mode, gamma, HAMMING))
    gap = max(
        abs(cer_log_pmf(g, cer) - dist.log_prob_of(g)) for g in enumerate_graph_space(4)
    )
    elapsed = time.time() - start
    report(
        "criterion 2 (CER is an SNF member)",
        gap < 1e-12 and elapsed < 1.0,
        f"max |log-pmf gap| = {gap:.2e} in {elapsed:.2f}s",
    )


def test_criterion_3_entropy():
    start = time.time()
    rng = spawn_rng(103)
    mode = random_graph(4, rng)
    closed_gap = max(
        abs(cer_entropy(a, 4) - cer_exact(CerParams(mode, a)).entropy())
        for a in (0.05, 0.2, 0.3, 0.45)
    )
    entropies = [
        snf_entropy_exact(SnfParams(mode, g, DIFFUSION)) for g in (0.1, 0.5, 1.0, 2.0, 5.0)
    ]
    decreasing = all(a > b for a, b in zip(entropies, entropies[1:]))
    elapsed = time.time() - start
    report(
        "criterion 3 (entropy identities)",
        closed_gap < 1e-10 and decreasing and elapsed < 5.0,
        f"closed-form gap {closed_gap:.2e}, diffusion entropies {np.round(entropies, 4).tolist()} "
        f"in {elapsed:.2f}s",
    )


def test_criterion_4_mode_is_frechet_mean():
    start = time.time()
    rng = spawn_rng(104)
    ok = True
    for n in (3, 4):
        mode = random_graph(n, rng)
        for alpha in (0.05, 0.2, 0.45):
            got = frechet_mean_of_distribution(cer_exact(CerParams(mode, alpha)), HAMMING)
            ok = ok and got == mode
    elapsed = time.time() - start
    report(
        "criterion 4 (CER mode equals Frechet mean)",
        ok and elapsed < 5.0,
        f"exact equality at N in {{3,4}}, alpha in {{0.05,0.2,0.45}} in {elapsed:.2f}s",
    )


def test_criterion_5_samplers_match_oracles():
    start = time.time()
    rng = spawn_rng(105)
    truth = LabelledGraph.from_edges(3, [(0, 1), (1, 2)])
    pop = GraphPopulation(tuple(cer_sample(CerParams(truth, 0.1), rng) for _ in range(5)))

    cer_hyper = CerCerHyper(g0=truth, alpha0=0.1)
    cer_cfg = McmcConfig(n_samples=100_000, burn_in=2000, lag=2, seed=1051)
    cer_trace = fit_cer_cer(pop, cer_hyper, cer_cfg)
    cer_grid = (np.arange(400) + 0.5) / 400 * 0.5
    cer_post = exact_posterior_cer(pop, cer_hyper, cer_grid)
    tv_cer = tv_distance(graph_marginal_from_trace(cer_trace, 8), cer_post.graph_marginal)

    tvs_snf = {}
    for metric, seed in ((HAMMING, 1052), (DIFFUSION, 1053)):
        hyper = SnSnHyper(g0=truth, gamma0=1.0, metric=metric)
        cfg = McmcConfig(
            n_samples=100_000, burn_in=2000, lag=1, seed=seed,
            step_sizes_upsilon=(0.1, 0.4, 1.2),
        )
        trace = fit_sn_sn(pop, hyper, cfg, alpha_tilde=0.2)
        grid = (np.arange(800) + 0.5) / 800 * 16.0
        post = exact_posterior_snf(pop, hyper, grid)
        tvs_snf[metric.kind] = tv_distance(
            graph_marginal_from_trace(trace, 8), post.graph_marginal
        )
    elapsed = time.time() - start
    ok = tv_cer <= 0.05 and all(v <= 0.10 for v in tvs_snf.values()) and elapsed < 600
    report(
        "criterion 5 (samplers vs enumeration oracles)",
        ok,
        f"TV cer={tv_cer:.4f} (<=0.05), snf hamming={tvs_snf['hamming']:.4f}, "
        f"snf diffusion={tvs_snf['diffusion']:.4f} (<=0.10) in {elapsed:.0f}s",
    )


def test_criterion_6_contour_radius():
    start = time.time()
    rho = float(sstats.binom.ppf(0.9, 1225, 0.01))
    # Direct CDF summation oracle.
    cdf, r = 0.0, 0
    while cdf < 0.9:
        cdf += math.exp(
            math.lgamma(1226) - math.lgamma(r + 1) - math.lgamma(1226 - r)
            + r * math.log(0.01) + (1225 - r) * math.log(0.99)
        )
        if cdf >= 0.9:
            break
        r += 1
    elapsed = time.time() - start
    report(
        "criterion 6 (contour radius rho)",
        rho == 17.0 == float(r) and elapsed < 1.0,
        f"Binomial(1225, 0.01) 0.9-quantile = {rho:g} (direct summation {r}) in {elapsed:.2f}s",
    )


def test_criterion_7_concentration_trend():
    start = time.time()
    cfg = StudyConfig(
        generator=StochasticBlockModel(3, (1 / 3, 1 / 3, 1 / 3), 0.16, 0.075),
        model="cer",
        n_vertices=50,
        sample_sizes=(3, 5, 7, 10),
        n_replicates=20,
        epsilons=(1.0,),
        delta=0.05,
        seed=1070,
        data_alpha=0.01,
        mcmc=McmcConfig(n_samples=250, burn_in=10_000, lag=5),
    )
    rows = concentration_study(cfg)
    fractions = [r["fraction_concentrated"] for r in rows]
    monotone = all(a <= b for a, b in zip(fractions, fractions[1:]))
    elapsed = time.time() - start
    report(
        "criterion 7 (posterior concentration trend, SBM at N=50)",
        monotone and fractions[-1] >= 0.75 and elapsed < 7200,
        f"fractions over n=(3,5,7,10): {fractions} in {elapsed:.0f}s",
    )


def test_criterion_8_prediction_ratio_trend():
    start = time.time()
    cfg = StudyConfig(
        generator=ErdosRenyi(0.1),
        model="cer",
        n_vertices=50,
        sample_sizes=(3, 10),
        n_replicates=20,
        delta=0.1,
        seed=1080,
        data_alpha=0.01,
        test_size=20,
        n_predictive=20,
        mcmc=McmcConfig(n_samples=250, burn_in=10_000, lag=5),
    )
    rows = prediction_study(cfg)
    ratios = {r["n"]: r["ratio"] for r in rows}
    in_range = all(1.0 <= v <= 1.8 for v in ratios.values())
    elapsed = time.time() - start
    report(
        "criterion 8 (predictive covering ratio trend)",
        ratios[3] > ratios[10] and in_range and elapsed < 7200,
        f"psi/rho at n=3: {ratios[3]:.4f}, n=10: {ratios[10]:.4f} in {elapsed:.0f}s",
    )


def test_criterion_9_diagnostics_calibration_and_power():
    start = time.time()
    base = dict(
        generator=ErdosRenyi(0.1),
        model="cer",
        n_vertices=50,
        data_alpha=0.01,
        statistics=(DegreeQuantile(0.9),),
        ppc_draws=200,
        chi2_sims=300,
        chi2_max_draws=100,
        nominal_level=0.05,
        mcmc=McmcConfig(n_samples=250, burn_in=6000, lag=4),
    )
    calib = robustness_study(
        StudyConfig(misspecification="none", sample_sizes=(50,), n_replicates=50, seed=1090, **base)
    )[0]
    power = robustness_study(
        StudyConfig(
            misspecification="dependence",
            sample_sizes=(3, 50),
            n_replicates=20,
            seed=1091,
            persist_p=0.9,
            flip_p=0.5,
            **base,
        )
    )
    by_n = {r["n"]: r for r in power}
    calibrated = calib["ppc_rejection_rate"] <= 0.15 and calib["chi2_rejection_rate"] <= 0.15
    powered = (
        by_n[50]["ppc_rejection_rate"] > by_n[3]["ppc_rejection_rate"]
        and by_n[50]["chi2_rejection_rate"] > by_n[3]["chi2_rejection_rate"]
    )
    elapsed = time.time() - start
    report(
        "criterion 9 (diagnostics calibration and power)",
        calibrated and powered and elapsed < 10800,
        f"calibration ppc={calib['ppc_rejection_rate']:.2f} chi2={calib['chi2_rejection_rate']:.2f}; "
        f"dependence ppc {by_n[3]['ppc_rejection_rate']:.2f}->{by_n[50]['ppc_rejection_rate']:.2f}, "
        f"chi2 {by_n[3]['chi2_rejection_rate']:.2f}->{by_n[50]['chi2_rejection_rate']:.2f} "
        f"in {elapsed:.0f}s",
    )


def test_criterion_10_determinism(tmp_path):
    from graphpop.cli import main

    start = time.time()
    rng = spawn_rng(110)
    graphs = [random_graph(6, rng) for _ in range(5)]
    pop = GraphPopulation(tuple(graphs), tuple(f"g{k}" for k in range(5)))
    data = tmp_path / "pop.ndjson"
    gio.write_population(pop, str(data))
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(f"data={data}\nn_samples=500\nburn_in=500\nseed=77\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["fit-cer", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "trace.ndjson").read_bytes())
    sn_cfg = tmp_path / "sn.cfg"
    sn_cfg.write_text(
        f"data={data}\nn_samples=200\nburn_in=200\nseed=78\n"
        "gamma_upsilons=0.1,0.5\nalpha_tilde=0.2\n"
    )
    sn_outs = []
    for name in ("c", "d"):
        out = tmp_path / name
        assert main(["fit-sn", "--config", str(sn_cfg), "--out", str(out)]) == 0
        sn_outs.append((out / "trace.ndjson").read_bytes())
    elapsed = time.time() - start
    ok = outs[0] == outs[1] and sn_outs[0] == sn_outs[1] and elapsed < 60
    report(
        "criterion 10 (byte-identical reruns)",
        ok,
        f"fit-cer and fit-sn traces byte-identical across reruns in {elapsed:.0f}s",
    )
