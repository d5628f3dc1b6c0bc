"""Study replicates in worker processes: same rows as a serial run, errors intact.

With ``n_threads`` > 1 a study maps its replicates over a process pool. Each
replicate seeds itself, so the pooled rows must equal the serial rows exactly;
an error raised in a worker must reach the caller as the same class with the
same message and attributes, and no worker may outlive the study.
"""

import inspect
import json
import multiprocessing
import os
import pickle
from dataclasses import replace

import pytest

from graphpop import errors
from graphpop.cli import main
from graphpop.diagnostics import DegreeQuantile, EdgeCount
from graphpop.errors import DomainError, GraphPopError, StepTooLargeError
from graphpop.experiments import (
    StudyConfig,
    _run_replicates,
    majority_vote_comparison,
    prediction_study,
    robustness_study,
)
from graphpop.graphs import ErdosRenyi
from graphpop.inference import McmcConfig
from graphpop.metrics import MetricSpec


def small_cfg(**overrides):
    defaults = dict(
        generator=ErdosRenyi(0.3),
        n_vertices=6,
        sample_sizes=(3,),
        n_replicates=3,
        epsilons=(1.0, 2.0),
        seed=11,
        data_alpha=0.1,
        mcmc=McmcConfig(n_samples=30, burn_in=60, lag=1),
    )
    defaults.update(overrides)
    return StudyConfig(**defaults)


def _pooled_equals_serial(study, cfg):
    serial = study(cfg)
    pooled = study(replace(cfg, n_threads=2))
    assert serial and pooled == serial
    assert multiprocessing.active_children() == []
    return serial


_ROBUSTNESS = dict(
    sample_sizes=(2, 3),
    n_replicates=2,
    ppc_draws=100,
    chi2_sims=10,
    chi2_max_draws=3,
    statistics=(DegreeQuantile(0.5), EdgeCount()),
)


class TestPooledEqualsSerial:
    def test_robustness_cer_spans_sample_sizes(self):
        rows = _pooled_equals_serial(robustness_study, small_cfg(model="cer", **_ROBUSTNESS))
        assert {row["n"] for row in rows} == {2, 3}

    def test_robustness_snf_hamming_spans_sample_sizes(self):
        cfg = small_cfg(
            model="snf",
            metric=MetricSpec(kind="hamming"),
            alpha_tilde=0.1,
            misspecification="none",
            mcmc=McmcConfig(n_samples=4, burn_in=2, lag=1, aux_inner_steps=15),
            **_ROBUSTNESS,
        )
        rows = _pooled_equals_serial(robustness_study, cfg)
        assert {row["n"] for row in rows} == {2, 3}

    def test_cer_prediction(self):
        cfg = small_cfg(sample_sizes=(2, 4), test_size=4, n_predictive=6)
        _pooled_equals_serial(prediction_study, cfg)

    def test_majority_vote_comparison(self):
        _pooled_equals_serial(majority_vote_comparison, small_cfg(sample_sizes=(1, 3)))


def _pid(cfg, task):
    return task, os.getpid()


def test_replicates_run_in_worker_processes_in_task_order():
    results = _run_replicates(small_cfg(n_threads=2), _pid, range(6))
    assert [task for task, _ in results] == list(range(6))
    assert os.getpid() not in {pid for _, pid in results}
    assert multiprocessing.active_children() == []


def test_one_task_or_one_thread_runs_in_this_process():
    here = os.getpid()
    assert _run_replicates(small_cfg(n_threads=4), _pid, [0]) == [(0, here)]
    assert _run_replicates(small_cfg(n_threads=1), _pid, range(3)) == [(r, here) for r in range(3)]


class TestWorkerErrors:
    def test_step_too_large_reaches_the_caller(self):
        cfg = small_cfg(n_threads=2, mcmc=McmcConfig(n_samples=5, step_sizes_upsilon=(0.1, 0.6)))
        with pytest.raises(StepTooLargeError, match="step bound 0.6"):
            majority_vote_comparison(cfg)
        assert multiprocessing.active_children() == []

    def test_domain_error_from_a_prediction_replicate(self):
        cfg = small_cfg(n_threads=2, n_vertices=4, data_alpha=0.005, test_size=3, n_predictive=3)
        with pytest.raises(DomainError, match="rho_delta = 0"):
            prediction_study(cfg)
        assert multiprocessing.active_children() == []

    def test_cli_experiment_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(
            "study=concentration\nmodel=cer\nn_vertices=6\nsample_sizes=3\nn_replicates=2\n"
            "n_samples=5\nburn_in=5\nlag=1\nupsilons=0.1,0.6\nthreads=2\n"
        )
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert json.loads(line)["error"] == "StepTooLargeError"
        assert multiprocessing.active_children() == []


_ERROR_ARGS = {
    errors.NonSymmetricError: (1, 2),
    errors.NonBinaryEntryError: (0, 3, 7),
    errors.NonZeroDiagonalError: (4,),
    errors.SpaceTooLargeError: (7, 5),
    errors.SizeMismatchError: (3, 4),
    errors.StepTooLargeError: (0.6, 0.5),
    errors.IndivisiblePopulationError: (7, 2),
    errors.ParseError: ("invalid JSON", 12),
    errors.SchemaError: ("missing", "lag"),
}
_ERROR_CLASSES = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, GraphPopError)
]


@pytest.mark.parametrize("cls", _ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_pickles_with_its_type_message_and_attributes(cls):
    err = cls(*_ERROR_ARGS.get(cls, ("something went wrong",)))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err) and back.args == err.args
    assert vars(back) == vars(err)


def test_error_attributes_survive_pickling():
    assert len(_ERROR_CLASSES) == 19
    cases = [
        (errors.NonSymmetricError(1, 2), "position", (1, 2)),
        (errors.NonBinaryEntryError(0, 3, 7), "position", (0, 3)),
        (errors.NonZeroDiagonalError(4), "position", (4, 4)),
        (errors.ParseError("bad", 12), "line", 12),
        (errors.ParseError("bad"), "line", None),
        (errors.SchemaError("missing", "lag"), "field", "lag"),
        (errors.SchemaError("missing"), "field", None),
    ]
    for err, attr, value in cases:
        assert getattr(pickle.loads(pickle.dumps(err)), attr) == value
