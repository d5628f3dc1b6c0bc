"""Start-up cost: scipy and multiprocessing load only in the functions that need them.

Importing ``scipy.stats`` costs about a second, so every CLI command would pay
it at start-up. Each test runs a fresh interpreter and lists the scipy (or
multiprocessing) modules loaded at the end.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphpop
from conftest import random_graph
from graphpop import io as gio
from graphpop.graphs import GraphPopulation
from graphpop.inference import spawn_rng

SRC = str(Path(graphpop.__file__).resolve().parents[1])

_PROBE = """
import json, sys
import graphpop.cli as cli
rc = cli.main(json.loads(sys.argv[1])) if len(sys.argv) > 1 else 0
print(json.dumps([rc, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))]))
"""


def _scipy_modules_after(argv=None):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    cmd = [sys.executable, "-c", _PROBE] + ([json.dumps(argv)] if argv is not None else [])
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    rc, modules = json.loads(done.stdout.strip().splitlines()[-1])
    assert rc == 0, done.stderr
    return modules


def test_importing_the_cli_loads_no_scipy():
    assert _scipy_modules_after() == []


@pytest.fixture
def inputs(tmp_path):
    rng = spawn_rng(3)
    pop = GraphPopulation(tuple(random_graph(6, rng, p=0.3) for _ in range(5)))
    data = tmp_path / "pop.ndjson"
    gio.write_population(pop, str(data))
    mode = tmp_path / "mode.csv"
    gio.write_adjacency_csv(pop[0], str(mode))
    return tmp_path, data, mode


def _config(path, text):
    path.write_text(text)
    return str(path)


def test_simulate_snf_loads_no_scipy(inputs):
    tmp, _, mode = inputs
    cfg = _config(tmp / "sim.cfg", f"kind=snf\nn_vertices=6\nn_graphs=3\nmode={mode}\ninner_steps=20\n")
    assert _scipy_modules_after(["simulate", "--config", cfg, "--out", str(tmp / "sim")]) == []


def test_fit_cer_loads_no_scipy(inputs):
    tmp, data, _ = inputs
    cfg = _config(tmp / "cer.cfg", f"data={data}\nn_samples=20\nburn_in=10\n")
    assert _scipy_modules_after(["fit-cer", "--config", cfg, "--out", str(tmp / "cer")]) == []


def test_fit_sn_loads_no_scipy(inputs):
    tmp, data, _ = inputs
    cfg = _config(
        tmp / "sn.cfg",
        f"data={data}\nmodel=snf\nn_samples=3\nburn_in=2\nlag=1\n"
        "gamma_upsilons=0.1,0.5\nalpha_tilde=0.2\naux_inner_steps=20\n",
    )
    assert _scipy_modules_after(["fit-sn", "--config", cfg, "--out", str(tmp / "sn")]) == []


def test_importing_the_cli_loads_no_multiprocessing():
    """The replicate pool imports ``multiprocessing`` only when a study builds one."""
    probe = (
        "import json, sys\nimport graphpop.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'"
        " or m == 'concurrent.futures.process')))"
    )
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    cmd = [sys.executable, "-c", probe]
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1]) == []


def test_cer_prediction_study_loads_no_scipy_stats(tmp_path):
    """The CER contour radius is a Binomial quantile summed with ``math`` alone."""
    cfg = _config(
        tmp_path / "pred.cfg",
        "study=prediction\nmodel=cer\np=0.3\nn_vertices=8\ndata_alpha=0.05\n"
        "sample_sizes=2\nn_replicates=1\ntest_size=3\nn_predictive=3\n",
    )
    modules = _scipy_modules_after(["experiment", "--config", cfg, "--out", str(tmp_path / "o")])
    assert not [m for m in modules if m == "scipy.stats" or m.startswith("scipy.stats.")]


def test_cer_robustness_study_loads_no_scipy(tmp_path):
    """A robustness chi-squared has at most five bins, whose 0.95 quantiles are constants."""
    cfg = _config(
        tmp_path / "rob.cfg",
        "study=robustness\nmodel=cer\nn_vertices=8\nsample_sizes=3,6\nn_replicates=1\n"
        "n_samples=20\nburn_in=20\nlag=1\nppc_draws=100\nchi2_sims=10\nchi2_max_draws=3\n"
        "threads=1\n",
    )
    assert _scipy_modules_after(["experiment", "--config", cfg, "--out", str(tmp_path / "o")]) == []
