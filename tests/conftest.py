import numpy as np

from graphpop.graphs import LabelledGraph
from graphpop.inference import _drive_chain


def relabel(g: LabelledGraph, perm) -> LabelledGraph:
    """Apply a vertex permutation: new vertex perm[i] takes old vertex i's edges."""
    edges = [(min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in g.edges()]
    return LabelledGraph.from_edges(g.n_vertices, edges)


def random_graph(n_vertices: int, rng: np.random.Generator, p: float = 0.5) -> LabelledGraph:
    vec = (rng.random(n_vertices * (n_vertices - 1) // 2) < p).astype(np.uint8)
    return LabelledGraph.from_vector(n_vertices, vec)


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def graph_marginal_from_trace(trace, size: int) -> np.ndarray:
    counts = np.zeros(size)
    for g in trace.graphs:
        counts[g.edge_bits] += 1
    return counts / counts.sum()


def run_reference_chain(cfg, kernels, step, state, param_name, n_vertices):
    """``_drive_chain`` over a step-by-step reference sampler.

    ``step()`` makes one iteration and returns a (kernel, accepted) pair per
    proposal; ``state()`` returns the (mode vector, scalar, log kernel) to
    record. Every name in ``kernels`` is counted, even if it never proposes.
    """
    accepts = {k: [0, 0] for k in kernels}

    def advance(k):
        for _ in range(k):
            for key, accepted in step():
                accepts[key][1] += 1
                if accepted:
                    accepts[key][0] += 1
        return state()

    return _drive_chain(cfg, accepts, advance, param_name, n_vertices)
