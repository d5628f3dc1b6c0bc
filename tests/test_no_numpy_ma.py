"""Quantiles without ``numpy.ma``.

``np.quantile`` (through ``np.unique``) imports ``numpy.ma``, about 15 ms of
start-up per command. The library reads its quantiles with
``models._sorted_quantile`` instead, which must give numpy's linear-method
values bit for bit, and no command may load ``numpy.ma``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphpop
from conftest import random_graph
from graphpop import io as gio
from graphpop.graphs import GraphPopulation
from graphpop.inference import spawn_rng
from graphpop.models import _sorted_quantile

SRC = str(Path(graphpop.__file__).resolve().parents[1])

LEVELS = st.one_of(st.sampled_from([0.0, 1.0, 0.025, 0.975]), st.floats(0.0, 1.0))


@settings(deadline=None, max_examples=400)
@given(
    values=st.lists(
        st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False), min_size=1, max_size=300
    ),
    q=LEVELS,
)
def test_sorted_quantile_is_np_quantile_bit_for_bit(values, q):
    x = np.array(values)
    got = np.float64(_sorted_quantile(np.sort(x), q))
    want = np.float64(np.quantile(x, q))
    assert got.tobytes() == want.tobytes(), (got, want)


@settings(deadline=None, max_examples=100)
@given(
    values=st.lists(st.integers(0, 20), min_size=6, max_size=300),
    n_rows=st.integers(1, 6),
    q=LEVELS,
)
def test_sorted_quantile_of_rows_is_np_quantile_along_them(values, n_rows, q):
    cols = len(values) // n_rows
    rows = np.array(values[: n_rows * cols], dtype=np.float64).reshape(n_rows, cols)
    got = _sorted_quantile(np.sort(rows, axis=1), q)
    assert got.tobytes() == np.quantile(rows, q, axis=1).tobytes()


_PROBE = """
import json, sys
import graphpop.cli as cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, "numpy.ma" in sys.modules]))
"""


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("no_numpy_ma")
    rng = spawn_rng(5)
    pop = GraphPopulation(tuple(random_graph(6, rng, p=0.3) for _ in range(5)))
    gio.write_population(pop, str(tmp / "pop.ndjson"))
    gio.write_adjacency_csv(pop[0], str(tmp / "mode.csv"))
    return tmp


def _commands(tmp, name):
    def config(stem, text):
        (tmp / f"{stem}.cfg").write_text(text)
        return ["--config", str(tmp / f"{stem}.cfg"), "--out", str(tmp / stem)]

    data = tmp / "pop.ndjson"
    return {
        "simulate": [
            ["simulate"]
            + config("sim", f"kind=snf\nn_vertices=6\nn_graphs=3\nmode={tmp / 'mode.csv'}\n"
                     "inner_steps=20\n")
        ],
        "fit-cer": [["fit-cer"] + config("cer", f"data={data}\nn_samples=20\nburn_in=10\n")],
        # No gamma_upsilons: the gamma steps come from the distance profile.
        "fit-sn": [
            ["fit-sn"]
            + config("sn", f"data={data}\nmodel=snf\nn_samples=3\nburn_in=2\nlag=1\n"
                     "alpha_tilde=0.2\naux_inner_steps=20\n")
        ],
        "robustness": [
            ["experiment"]
            + config("rob", "study=robustness\nmodel=cer\nn_vertices=8\nsample_sizes=3,6\n"
                     "n_replicates=1\nn_samples=20\nburn_in=20\nlag=1\nppc_draws=100\n"
                     "chi2_sims=10\nchi2_max_draws=3\nthreads=1\n")
        ],
        "prediction": [
            ["experiment"]
            + config("pred", "study=prediction\nmodel=cer\np=0.3\nn_vertices=8\n"
                     "data_alpha=0.05\nsample_sizes=2\nn_replicates=1\ntest_size=3\n"
                     "n_predictive=3\n")
        ],
    }[name]


# ``diagnose`` is left out: its chi-squared threshold imports scipy, and scipy
# loads numpy.ma itself.
@pytest.mark.parametrize("name", ["simulate", "fit-cer", "fit-sn", "robustness", "prediction"])
def test_commands_do_not_load_numpy_ma(inputs, name):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    argv = json.dumps(_commands(inputs, name))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, argv], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    codes, loaded = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(codes) == {0}, done.stderr
    assert not loaded
