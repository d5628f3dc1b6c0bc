"""Bayesian modelling of populations of labelled graphs.

Distributions on graph space are parameterised by a central (Frechet mean)
graph and a concentration scalar: the centred Erdos-Renyi family flips edges
of the centre independently, and the spherical network family decays
exponentially in a chosen graph metric. Hierarchical versions of both are
fitted by Metropolis-Hastings; the spherical case uses an auxiliary-variable
exchange sampler because its partition function depends on the parameters.
"""

# Defined before the submodule imports: ``io`` writes it into run manifests.
__version__ = "0.1.0"

from .errors import GraphPopError
from .graphs import (
    ErdosRenyi,
    GraphPopulation,
    LabelledGraph,
    RandomGeometric,
    SmallWorld,
    StochasticBlockModel,
    enumerate_graph_space,
    from_adjacency,
    majority_vote,
    sample_generator,
)
from .inference import (
    CerCerHyper,
    ExponentialPrior,
    McmcConfig,
    SnSnHyper,
    Trace,
    TruncatedUniformPrior,
    divide_and_conquer_fit,
    exact_posterior_cer,
    exact_posterior_snf,
    fit_cer_cer,
    fit_sn_sn,
    posterior_summary,
    reflected_walk,
    spawn_rng,
)
from .metrics import (
    DistanceMatrix,
    MetricSpec,
    classical_mds,
    diffusion_distance,
    distance_matrix,
    hamming,
    heat_kernel,
    laplacian,
)
from .models import (
    CerParams,
    ExactDistribution,
    SnfParams,
    cer_entropy,
    cer_exact,
    cer_log_pmf,
    cer_sample,
    cer_to_snf_gamma,
    frechet_mean_of_distribution,
    sample_frechet_mean,
    snf_entropy_exact,
    snf_exact,
    snf_log_kernel,
)

__all__ = [name for name in dir() if not name.startswith("_")]
