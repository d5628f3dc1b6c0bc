"""Run one graphpop CLI command in this process, timed and optionally traced.

Usage (from the root of a checkout):

    python3 perfbench/command.py RESULT_JSON TRACE(0|1) -- CLI ARGS...

The command process imports ``graphpop.cli`` from ``src/`` of the checkout,
then calls ``cli.main`` on the given arguments and exits with its code. It
writes RESULT_JSON with the import and ``cli.main`` wall times, the process's
peak RSS and the heat-kernel cache counters. With TRACE=1 it first replaces
the public entry points of each module with wrappers that record a span per
call (name, start, end, parent span, thread CPU time); the spans stay in
memory and are written to RESULT_JSON when the command ends.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


class Tracer:
    """In-memory span recorder shared by every wrapper of one command process.

    A span is the list ``[id, name, parent_id, start, end, cpu_s, pool_thread,
    extra]``; ``extra`` holds the counters a wrapper derives from the call's
    arguments and result (rows, chain steps, acceptance counts).
    """

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._ids = itertools.count()  # next() on it is atomic under the GIL
        self._main = threading.main_thread()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, func, extra=None):
        perf, cpu = time.perf_counter, time.thread_time

        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            stack = self._stack()
            parent = stack[-1] if stack else None
            stack.append(sid)
            c0, t0 = cpu(), perf()
            try:
                result = func(*args, **kwargs)
            finally:
                t1, c1 = perf(), cpu()
                stack.pop()
            info = extra(args, kwargs, result) if extra is not None else None
            pool = threading.current_thread() is not self._main
            self.spans.append([sid, name, parent, t0, t1, c1 - c0, pool, info])
            return result

        wrapper.__wrapped__ = func
        return wrapper


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _fit_extra(args, kwargs, trace):
    cfg = _arg(args, kwargs, 2, "cfg")
    return {
        "iters": cfg.burn_in + cfg.n_samples * cfg.lag,
        "accept": {k: list(v) for k, v in trace.accept_counts.items()},
    }


def _trace_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def install_tracer(tracer: Tracer) -> None:
    """Replace each entry point under every name its callers look it up by."""
    import graphpop.diagnostics as diagnostics
    import graphpop.experiments as experiments
    import graphpop.graphs as graphs
    import graphpop.inference as inference
    import graphpop.io as gio
    import graphpop.metrics as metrics
    import graphpop.models as models

    functions = [
        (metrics, "heat_kernel", "metrics.heat_kernel", None),
        (models, "cer_sample_matrix", "models.cer_sample_matrix",
         lambda a, k, r: {"rows": int(r.shape[0])}),
        (inference, "fit_cer_cer", "inference.fit_cer_cer", _fit_extra),
        (inference, "fit_sn_sn", "inference.fit_sn_sn", _fit_extra),
        (inference, "snf_mh_matrix", "inference.snf_mh_matrix",
         lambda a, k, r: {"chain_steps": int(_arg(a, k, 3, "n_chains")) * int(_arg(a, k, 4, "steps"))}),
        (diagnostics, "posterior_predictive_check", "diagnostics.posterior_predictive_check", None),
        (diagnostics, "bayes_chi2", "diagnostics.bayes_chi2", None),
        (diagnostics, "statistic_values", "diagnostics.statistic_values",
         lambda a, k, r: {"rows": int(r.shape[0])}),
        (experiments, "dynamic_markov_sample", "experiments.dynamic_markov_sample", None),
        (gio, "read_population", "io.read_population", None),
        (gio, "write_population", "io.write_population", None),
        (gio, "write_trace", "io.write_trace", _trace_bytes),
    ]
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("graphpop") and m]
    for home, attr, name, extra in functions:
        original = getattr(home, attr)
        wrapped = tracer.wrap(name, original, extra)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)

    engine = inference._MetricEngine
    engine.dist_to = tracer.wrap(
        "inference.dist_to", engine.dist_to, lambda a, k, r: {"rows": int(r.shape[0])}
    )
    graph = graphs.LabelledGraph
    graph.to_vector = tracer.wrap("graphs.to_vector", graph.to_vector)
    graph.from_vector = classmethod(
        tracer.wrap("graphs.from_vector", graph.__dict__["from_vector"].__func__)
    )


def main(argv: list[str]) -> int:
    result_path, trace_flag = argv[0], argv[1]
    if argv[2] != "--":
        raise SystemExit("usage: command.py RESULT_JSON TRACE -- CLI ARGS...")
    cli_args = argv[3:]

    import graphpop.cli as cli
    import graphpop.metrics as metrics

    t_imported = time.monotonic()
    tracer = Tracer() if trace_flag == "1" else None
    if tracer is not None:
        install_tracer(tracer)
        main_fn = tracer.wrap("cli.main", cli.main)
    else:
        main_fn = cli.main

    t0 = time.perf_counter()
    rc = main_fn(cli_args)
    main_s = time.perf_counter() - t0

    info = metrics._heat_kernel_cached.cache_info()
    result = {
        "imported_monotonic": t_imported,
        "import_s": t_imported - T_START,
        "main_s": main_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "heat_cache": {"hits": info.hits, "misses": info.misses, "entries": info.currsize},
        "spans": tracer.spans if tracer is not None else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, separators=(",", ":"))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
