"""One batched distance path: ``metrics.cross_distances`` and its callers.

Every internal all-pairs or many-to-one distance goes through
``cross_distances``, which must give the bits of the per-pair public API
(``MetricSpec.distance``) and must leave the public ``heat_kernel`` cache
untouched.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import random_graph
from graphpop import metrics
from graphpop.errors import SizeMismatchError
from graphpop.experiments import (
    StudyConfig,
    _comparison_replicate,
    _concentration_replicate,
    _fit_replicate,
    _prediction_replicate,
)
from graphpop.graphs import ErdosRenyi, GraphPopulation, LabelledGraph, majority_vote
from graphpop.inference import McmcConfig, SnSnHyper, fit_sn_sn, posterior_summary, spawn_rng
from graphpop.metrics import MetricSpec, cross_distances, distance_matrix
from graphpop.models import _space_distance_table, frechet_objective, sample_frechet_mean

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = [
    MetricSpec(kind="hamming"),
    MetricSpec(kind="diffusion", t=0.7),
    MetricSpec(kind="diffusion", t=1.0),
]
DIFFUSION = MetricSpec(kind="diffusion", t=1.0)


def _population(n_vertices, count, seed):
    rng = spawn_rng(seed)
    return GraphPopulation(
        tuple(random_graph(n_vertices, rng, p=rng.uniform(0.05, 0.5)) for _ in range(count))
    )


class TestCrossDistances:
    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: f"{m.kind}-{m.t}")
    @pytest.mark.parametrize("n", [5, 6, 15, 50])
    def test_equals_the_per_pair_distance(self, n, metric):
        rows, others = _population(n, 4, n), _population(n, 6, n + 1)
        got = cross_distances(rows.to_matrix(), others.to_matrix(), metric, n)
        ref = np.array([[metric.distance(g, h) for h in others] for g in rows])
        assert got.shape == (4, 6)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: f"{m.kind}-{m.t}")
    def test_one_stack_for_both_sides_equals_two(self, metric):
        mat = _population(9, 5, 3).to_matrix()
        assert np.array_equal(
            cross_distances(mat, mat, metric, 9), cross_distances(mat, mat.copy(), metric, 9)
        )

    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: f"{m.kind}-{m.t}")
    def test_distance_matrix_equals_the_pair_loop(self, metric):
        pop = _population(15, 12, 4)
        ref = np.zeros((12, 12))
        for i in range(12):
            for j in range(i + 1, 12):
                ref[i, j] = ref[j, i] = metric.distance(pop[i], pop[j])
        assert np.array_equal(distance_matrix(pop, metric).values, ref)

    def test_diffusion_space_table_equals_the_pair_loop(self):
        metric = MetricSpec(kind="diffusion", t=0.7)
        space = [LabelledGraph(4, b) for b in range(64)]
        ref = np.array([[metric.distance(g, h) for h in space] for g in space])
        assert np.array_equal(_space_distance_table(4, "diffusion", 0.7), ref)


class TestFrechet:
    @pytest.mark.parametrize("n", [15, 50])
    def test_objective_is_the_per_pair_python_sum(self, n):
        pop = _population(n, 30, 20 + n)
        for c in list(pop)[:5] + [majority_vote(pop)]:
            ref = sum(DIFFUSION.distance(g, c) ** 2 for g in pop)
            assert frechet_objective(pop, DIFFUSION, c) == ref

    @pytest.mark.parametrize("n", [15, 50])
    def test_restricted_mean_is_the_per_pair_argmin(self, n):
        pop = _population(n, 30, 40 + n)
        candidates = list(pop) + [majority_vote(pop)]
        cand = sorted(candidates, key=lambda g: g.edge_bits)
        objective = [sum(DIFFUSION.distance(g, c) ** 2 for g in pop) for c in cand]
        expected = cand[int(np.argmin(objective))]
        assert sample_frechet_mean(pop, DIFFUSION, candidates=candidates) == expected

    def test_candidates_on_another_vertex_set_raise(self):
        pop = _population(6, 3, 1)
        with pytest.raises(SizeMismatchError):
            sample_frechet_mean(pop, DIFFUSION, candidates=[LabelledGraph(7, 0)])
        with pytest.raises(SizeMismatchError):
            frechet_objective(pop, DIFFUSION, LabelledGraph(7, 0))


def _study_cfg(**overrides):
    values = dict(
        generator=ErdosRenyi(0.3),
        model="snf",
        n_vertices=7,
        sample_sizes=(3,),
        n_replicates=1,
        seed=5,
        data_gamma=3.0,
        metric=DIFFUSION,
        test_size=4,
        n_predictive=6,
        mcmc=McmcConfig(n_samples=6, burn_in=2, lag=1, aux_inner_steps=30),
    )
    values.update(overrides)
    return StudyConfig(**values)


class TestStudyReplicates:
    def test_concentration_replicate_equals_the_per_pair_distances(self):
        cfg = _study_cfg(epsilons=(0.5, 1.5))
        inside, mode_dist = _concentration_replicate(cfg, (3, 0))
        truth, _, trace = _fit_replicate(cfg, 3, 0)
        dists = np.array([DIFFUSION.distance(g, truth) for g in trace.graphs])
        assert inside == {e: float((dists <= e).mean()) >= 1.0 - cfg.delta for e in cfg.epsilons}
        assert mode_dist == DIFFUSION.distance(posterior_summary(trace).mode_graph, truth)

    def test_comparison_replicate_equals_the_per_pair_distances(self):
        cfg = _study_cfg()
        truth, pop, trace = _fit_replicate(cfg, 3, 0)
        assert _comparison_replicate(cfg, (3, 0)) == (
            DIFFUSION.distance(posterior_summary(trace).mode_graph, truth),
            DIFFUSION.distance(majority_vote(pop), truth),
        )


def _fit_sn_sn_at_n6():
    pop = _population(6, 4, 9)
    hyper = SnSnHyper(g0=majority_vote(pop), gamma0=2.0, metric=DIFFUSION)
    cfg = McmcConfig(n_samples=3, burn_in=1, lag=1, aux_inner_steps=20, seed=3)
    fit_sn_sn(pop, hyper, cfg, 0.2)


def _distance_matrix():
    distance_matrix(_population(8, 6, 10), DIFFUSION)


def _restricted_mean():
    pop = _population(8, 6, 11)
    sample_frechet_mean(pop, DIFFUSION, candidates=list(pop))
    frechet_objective(pop, DIFFUSION, pop[0])


@pytest.mark.parametrize(
    "run",
    [
        _fit_sn_sn_at_n6,
        _distance_matrix,
        _restricted_mean,
        lambda: _concentration_replicate(_study_cfg(), (3, 0)),
        lambda: _prediction_replicate(_study_cfg(), 0),
    ],
    ids=["fit_sn_sn", "distance_matrix", "frechet", "concentration", "prediction"],
)
def test_internal_paths_leave_the_heat_kernel_cache_empty(run):
    # Only the public per-pair API (heat_kernel, MetricSpec.distance) fills it.
    metrics._heat_kernel_cached.cache_clear()
    run()
    assert metrics._heat_kernel_cached.cache_info().currsize == 0


def test_benchmark_resolves_the_names_it_reads():
    # perfbench/command.py wraps these entry points and reads the cache counters;
    # a rename in the package must fail here, not only in the benchmark's smoke run.
    code = (
        "import command\n"
        "command.install_tracer(command.Tracer())\n"
        "from graphpop import metrics\n"
        "info = metrics._heat_kernel_cached.cache_info()\n"
        "print(info.hits, info.misses, info.currsize)\n"
    )
    paths = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["0", "0", "0"]
