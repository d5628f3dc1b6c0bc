"""Posterior samplers for the hierarchical graph-population models.

``fit_cer_cer`` runs plain Metropolis-Hastings for the CER/CER model, whose
normalizing constants are tractable. ``fit_sn_sn`` handles the SN/SN model,
whose likelihood contains the mode- and gamma-dependent partition function, via
the auxiliary-variable exchange construction: each proposal of (mode, gamma)
is accompanied by synthetic graphs drawn from the model at the proposed values,
so the intractable normalizers cancel from the acceptance ratio. At N <= 5 the
auxiliary draws are exact (one inverse-CDF lookup over the enumerated space),
so the exchange sampler is exact there and the enumeration-based exact
posteriors check it. Above N = 5 they come from a finite inner Metropolis
chain, which makes the sampler approximate.

Both samplers are chain generators that ``_drive_chain``, the one burn-in,
lag and keep loop, advances a block of iterations at a time.

All randomness flows through ``numpy.random.Generator`` seeded from the config;
parallel replicates should derive substreams with ``spawn_rng``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import repeat
from math import exp, inf, lgamma, log
from typing import Callable, Iterator, Optional, Union

import numpy as np

# Loads on first use otherwise, inside a command's timed run: spawn_rng needs it.
import numpy.random  # noqa: F401

from . import metrics
from .errors import (
    DomainError,
    EmptyTraceError,
    IndivisiblePopulationError,
    InternalInconsistencyError,
    NonFiniteLogRatioError,
    SpaceTooLargeError,
    StepTooLargeError,
)
from .graphs import (
    MAX_ENUMERABLE_VERTICES,
    GraphPopulation,
    LabelledGraph,
    _pack,
    _unpack,
    bernoulli_bits,
    enumerate_graph_space,
    majority_vote,
    n_pairs,
    space_matrix,
    vector_to_bits,
)
from .metrics import MetricSpec, heat_kernels, taylor_heat_kernels
from .models import (
    CerParams,
    SnfParams,
    _logsumexp,
    _sorted_quantile,
    _space_distance_table,
    cer_sample_matrix,
    sample_frechet_mean,
    space_distances,
)


def spawn_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic RNG substream for (seed, stream); stream 0 is the main chain."""
    ss = np.random.SeedSequence(seed, spawn_key=(stream,))
    return np.random.Generator(np.random.PCG64(ss))


def derive_seed(seed: int, *key: int) -> int:
    """Deterministic 32-bit child seed for (seed, key...)."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Hyperparameters and configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CerCerHyper:
    """Prior mode graph, prior flip rate alpha0, and scaled-Beta shapes for alpha."""

    g0: LabelledGraph
    alpha0: float
    beta_a: float = 1.0
    beta_b: float = 9.0

    def __post_init__(self):
        if not 0.0 < self.alpha0 < 0.5:
            raise DomainError(f"alpha0={self.alpha0} outside (0, 0.5)")
        if self.beta_a <= 0 or self.beta_b <= 0:
            raise DomainError("Beta shape parameters must be positive")

    def log_alpha_prior(self, alpha: float) -> float:
        # Scaled Beta on (0, 1/2): alpha = X/2 with X ~ Beta(a, b).
        if not 0.0 < alpha < 0.5:
            return -inf
        a, b = self.beta_a, self.beta_b
        log_norm = lgamma(a + b) - lgamma(a) - lgamma(b)
        return log_norm + log(2.0) + (a - 1.0) * log(2.0 * alpha) + (b - 1.0) * log(1.0 - 2.0 * alpha)


@dataclass(frozen=True)
class ExponentialPrior:
    rate: float = 1.0

    def __post_init__(self):
        if self.rate <= 0:
            raise DomainError("exponential rate must be positive")

    def log_pdf(self, x: float) -> float:
        if x <= 0:
            return -inf
        return log(self.rate) - self.rate * x


@dataclass(frozen=True)
class TruncatedUniformPrior:
    """Uniform on (0, kappa)."""

    kappa: float

    def __post_init__(self):
        if self.kappa <= 0:
            raise DomainError("kappa must be positive")

    def log_pdf(self, x: float) -> float:
        if 0 < x < self.kappa:
            return -log(self.kappa)
        return -inf


GammaPrior = Union[ExponentialPrior, TruncatedUniformPrior]


@dataclass(frozen=True)
class SnSnHyper:
    """Prior mode graph, prior concentration gamma0, metric and gamma prior."""

    g0: LabelledGraph
    gamma0: float
    metric: MetricSpec = MetricSpec()
    gamma_prior: GammaPrior = ExponentialPrior(1.0)

    def __post_init__(self):
        if self.gamma0 <= 0:
            raise DomainError(f"gamma0={self.gamma0} must be positive")


@dataclass(frozen=True)
class McmcConfig:
    """Sampler tuning knobs.

    ``flip_prob_tau`` and ``aux_inner_steps`` of ``None`` resolve at fit time to
    1/N_e (one expected flip per proposal) and 20*N_e inner steps respectively;
    the default tau raises ``DomainError`` when N_e = 0 (a single vertex).
    At N <= 5 SNF draws are exact, so ``aux_inner_steps`` does not act there and
    ``flip_prob_tau`` acts only on the mode-flip proposals.
    ``kernel_mix_weight`` is the probability of the independent-flip kernel; the
    complementary move is the empirical-Bernoulli independence kernel.
    """

    n_samples: int
    burn_in: int = 0
    lag: int = 1
    flip_prob_tau: Optional[float] = None
    kernel_mix_weight: float = 0.8
    step_sizes_upsilon: tuple[float, ...] = (0.005, 0.02, 0.08)
    aux_inner_steps: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "step_sizes_upsilon", tuple(self.step_sizes_upsilon))
        if self.n_samples < 0 or self.burn_in < 0:
            raise DomainError("n_samples and burn_in must be nonnegative")
        if self.lag < 1:
            raise DomainError("lag must be at least 1")
        if self.flip_prob_tau is not None and not 0.0 < self.flip_prob_tau < 1.0:
            raise DomainError("flip_prob_tau must lie in (0, 1)")
        if not 0.0 <= self.kernel_mix_weight <= 1.0:
            raise DomainError("kernel_mix_weight must lie in [0, 1]")
        if not self.step_sizes_upsilon or any(u <= 0 for u in self.step_sizes_upsilon):
            raise DomainError("step_sizes_upsilon must be a nonempty list of positive reals")
        if self.aux_inner_steps is not None and self.aux_inner_steps < 1:
            raise DomainError("aux_inner_steps must be positive")

    def resolved_tau(self, ne: int) -> float:
        if self.flip_prob_tau is not None:
            return self.flip_prob_tau
        if ne == 0:
            raise DomainError(
                "the default flip probability 1/N_e is undefined for a graph with no "
                "vertex pairs; set flip_prob_tau"
            )
        return 1.0 / ne

    def resolved_aux_steps(self, ne: int) -> int:
        return self.aux_inner_steps if self.aux_inner_steps is not None else 20 * ne


@dataclass
class Trace:
    """Kept posterior samples of (mode graph, scalar) plus bookkeeping: the
    fit's sampler ``config`` and, for SN/SN (scalar gamma), its ``metric``."""

    graphs: list[LabelledGraph]
    params: np.ndarray
    log_kernels: np.ndarray
    param_name: str
    n_vertices: int
    accept_counts: dict[str, tuple[int, int]] = field(default_factory=dict)
    config: Optional[McmcConfig] = None
    metric: Optional[MetricSpec] = None

    def __len__(self) -> int:
        return len(self.graphs)

    def acceptance_rates(self) -> dict[str, float]:
        return {
            k: (acc / prop if prop else float("nan"))
            for k, (acc, prop) in self.accept_counts.items()
        }


# ---------------------------------------------------------------------------
# Proposal kernels
# ---------------------------------------------------------------------------


def _flip(vec: np.ndarray, tau: float, rng: np.random.Generator) -> np.ndarray:
    mask = (rng.random(vec.shape[0]) < tau).astype(np.uint8)
    return vec ^ mask


class _EmpiricalKernel:
    """Independence proposal: the data's edge frequencies, clamped into [1/(2n), 1 - 1/(2n)]."""

    def __init__(self, data_mat: np.ndarray):
        n = data_mat.shape[0]
        freq = data_mat.mean(axis=0)
        self.freq = np.clip(freq, 1.0 / (2 * n), 1.0 - 1.0 / (2 * n))
        self.log_f = np.log(self.freq)
        self.log_1mf = np.log1p(-self.freq)
        self.base = float(self.log_1mf.sum())
        self.w = self.log_f - self.log_1mf

    def propose(self, rng: np.random.Generator) -> np.ndarray:
        return (rng.random(self.freq.shape[0]) < self.freq).astype(np.uint8)

    def log_q(self, vec: np.ndarray) -> float:
        return self.base + float(self.w @ vec)

    def mode_move(
        self, mode_vec: np.ndarray, flip_weight: float, tau: float, rng: np.random.Generator
    ) -> tuple[str, np.ndarray, float]:
        """Mixture mode proposal of ``_sn_sn_chain``; ``_cer_cer_chain`` draws the same inline.

        Draws from the flip kernel with probability ``flip_weight``, else from
        this empirical kernel; returns the kernel name, the candidate and the
        log Hastings correction log q(mode) - log q(candidate).
        """
        if rng.random() < flip_weight:
            return "flip", _flip(mode_vec, tau, rng), 0.0
        cand = self.propose(rng)
        return "empirical", cand, self.log_q(mode_vec) - self.log_q(cand)


def reflected_walk(
    x: float,
    lower: float,
    upper: Optional[float],
    upsilons: tuple[float, ...],
    rng: np.random.Generator,
) -> float:
    """One step of the uniform random-walk mixture with single boundary reflection.

    A step size is chosen uniformly from ``upsilons``, noise Unif(-u, u) is
    added, and the proposal reflects once at the boundaries: y < lower maps to
    2*lower - y, y > upper to 2*upper - y. For bounded intervals every step
    size must be smaller than the interval width so one reflection suffices.
    """
    if upper is not None:
        width = upper - lower
        for u in upsilons:
            if u >= width:
                raise StepTooLargeError(u, width)
        if not lower < x < upper:
            raise DomainError(f"x={x} not strictly inside ({lower}, {upper})")
    elif x <= lower:
        raise DomainError(f"x={x} not strictly above {lower}")
    u = upsilons[rng.integers(len(upsilons))]
    return _reflect(x + rng.uniform(-u, u), lower, upper)


def _reflect(y: float, lower: float, upper: Optional[float]) -> float:
    """``reflected_walk``'s single reflection of a proposal y at the boundaries."""
    if y < lower:
        return 2.0 * lower - y
    if upper is not None and y > upper:
        return 2.0 * upper - y
    return y


def _bounded_indices(bit_generator: np.random.BitGenerator, k: int) -> Iterator[int]:
    """Endless stream of the values ``Generator.integers(k)`` returns, for 1 <= k <= 2^32.

    numpy draws an index below such a k from 32-bit halves of the bit
    generator's 64-bit words: a word's low half first, its high half at the
    next draw, each scaled by Lemire's multiply-shift and redrawn while the
    low 32 bits of the product fall below 2^32 mod k. For k = 1 it draws
    nothing. This stream reads the same words through ``random_raw`` and
    keeps the spare half itself, where numpy keeps it in the bit generator.
    So it matches ``integers(k)`` interleaved with any draws of 64-bit values
    (doubles, raw words), and it is valid only while nothing else draws 32-bit
    values from that generator.
    """
    if k == 1:
        yield from repeat(0)
    random_raw = bit_generator.random_raw
    threshold = (1 << 32) % k
    while True:
        word = random_raw()
        for half in (word & 0xFFFFFFFF, word >> 32):
            m = half * k
            if m & 0xFFFFFFFF >= threshold:
                yield m >> 32


# ---------------------------------------------------------------------------
# Metric engine: batched distances from chain states to a mode graph
# ---------------------------------------------------------------------------


class _MetricEngine:
    """Raw-distance computations between uint8 edge matrices and a mode vector.

    For N <= 5 the engine shares the cached pairwise table over the enumerated
    space and the space itself (``graphs.space_matrix``, row b is
    ``bits_to_vector(b, N_e)``). Distances are then table lookups, and
    ``snf_mh_matrix`` draws exactly from the SNF by one lookup. Above that,
    the engine memoises its last mode's kernel (from ``heat_kernels``, not the
    public ``heat_kernel``'s cache) and builds kernels in ``metrics.kernel_chunk``
    rows so that no (rows, N, N) array exceeds 256 KiB. With 1 MiB arrays (52 rows at
    N = 50), the accept-path batches of 10 chains stepped 1.2x slower than
    one batch per step; with 256 KiB (13 rows) they step ~4% faster.
    Taylor batches reuse one workspace for six (chunk, N, N) arrays
    (``metrics.taylor_workspace``, 1.5 MiB), allocated at the engine's first
    Taylor batch, so an engine is for one thread at a time. A batch uses
    only the front of it, in proportion to its rows, so no more of its pages
    are touched than the largest batch needs.
    """

    def __init__(self, metric: MetricSpec, n_vertices: int):
        self.metric = metric
        self.n_vertices = n_vertices
        self.ne = n_pairs(n_vertices)
        self.small = n_vertices <= MAX_ENUMERABLE_VERTICES
        if self.small:
            self.table = _space_distance_table(n_vertices, metric.kind, metric.t)
            self.pow2 = 1 << np.arange(self.ne, dtype=np.uint64)
            self.states = space_matrix(n_vertices)
        self.chunk = metrics.kernel_chunk(n_vertices)
        self._mode_key: Optional[bytes] = None
        self._mode_kernel: Optional[np.ndarray] = None
        self._work: Optional[np.ndarray] = None

    def row_bits(self, mat: np.ndarray) -> np.ndarray:
        return mat.astype(np.uint64) @ self.pow2

    def mode_kernel(self, mode_vec: np.ndarray) -> np.ndarray:
        """The mode's heat kernel, recomputed only when the mode vector changes."""
        key = mode_vec.tobytes()
        if key != self._mode_key:
            self._mode_kernel = heat_kernels(mode_vec[None], self.n_vertices, self.metric.t)[0]
            self._mode_key = key
        return self._mode_kernel

    def dist_to(
        self, mat: np.ndarray, mode_vec: np.ndarray, kernels=heat_kernels
    ) -> np.ndarray:
        """Raw distances from each row of ``mat`` to the mode.

        Diffusion distances take the rows' kernels from ``kernels`` (``heat_kernels``
        or ``taylor_heat_kernels``) and the mode's from ``mode_kernel``. The
        real ``taylor_heat_kernels`` writes into the engine's workspace, any
        other ``kernels`` is called as ``(rows, N, t)``, and the kernels a call
        returns are turned into distances in place.
        """
        if self.small:
            return self.table[vector_to_bits(mode_vec)][self.row_bits(mat)]
        if self.metric.kind == "hamming":
            return (mat != mode_vec).sum(axis=1).astype(np.float64)
        mode_kernel = self.mode_kernel(mode_vec)
        n, t = self.n_vertices, self.metric.t
        out = np.empty(mat.shape[0])
        for lo in range(0, mat.shape[0], self.chunk):
            rows = mat[lo : lo + self.chunk]
            if kernels is metrics.taylor_heat_kernels:
                if self._work is None:
                    self._work = metrics.taylor_workspace(self.chunk, n)
                diff = kernels(rows, n, t, self._work)
            else:
                diff = kernels(rows, n, t)
            metrics._kernel_distances(diff, mode_kernel, diff, out[lo : lo + rows.shape[0]])
        return out


# Half-width of the band, relative to gamma * (1 + phi(d_c) + phi(d_s)), around
# log u inside which an inner-chain decision taken on Taylor-kernel distances is
# taken again on eigh distances. Taylor distances sit within ~1e-13 of eigh's,
# so every decision outside the band is the one eigh distances would give.
TAYLOR_BAND = 1e-9

# Mask entries per sub-chunk of a proposal block's draw (256 KiB of uniforms).
MASK_CHUNK = 1 << 15


def _run_proposals(states, d, pre, lu, ends, mode_vec, gamma, engine, taylor, tally):
    """Advance each chain through its own proposals in accept-path batches.

    Chain c's proposals are a block's non-empty masks at positions
    ``ends[c-1]:ends[c]``, in step order, with log u ``lu``. ``pre`` is their
    chain-ordered prefix XOR from ``_proposal_block`` (proposal p is
    ``pre[p] ^ pre[p + 1]``). ``states`` and ``pre`` hold bit-packed rows
    (``_pack``); each batch's candidates are XORed as words and unpacked
    only for ``engine.dist_to``. ``states`` and ``d`` are updated in place,
    and ``tally`` (accepted, decided) carries the running acceptance across
    blocks. ``snf_mh_matrix`` describes the batches.
    """
    phi = engine.metric.apply_phi
    ne = engine.ne
    pos = np.concatenate(([0], ends[:-1]))
    live = np.flatnonzero(pos < ends)
    while live.size:
        accepted, decided = tally
        w = min(round(decided / (decided - accepted)), engine.chunk // live.size)
        p = pos[live]
        if w <= 1:
            # One proposal per chain needs no grid or window; the window
            # path at w = 1 stepped 1.5x slower at gamma = 60, N = 15.
            cand = states[live] ^ pre[p] ^ pre[p + 1]
            dc = engine.dist_to(_unpack(cand, ne), mode_vec, taylor_heat_kernels)
            ec, es, lu_w = phi(dc), phi(d[live]), lu[p]
            delta = -gamma * (ec - es)
            acc = lu_w < delta
            if taylor:
                tie = np.abs(delta - lu_w) <= gamma * TAYLOR_BAND * (1.0 + ec + es)
                if tie.any():
                    acc &= ~tie
                    tally[0] += _decide_on_eigh(
                        live[tie], cand[tie], lu_w[tie], states, d, mode_vec, gamma, engine
                    )
            if acc.any():
                states[live[acc]] = cand[acc]
                d[live[acc]] = dc[acc]
                tally[0] += int(acc.sum())
            tally[1] += live.size
            pos[live] += 1
        else:
            k = p[:, None] + np.arange(w)
            valid = k < ends[live, None]
            width = valid.sum(axis=1)
            first = width.cumsum() - width  # row of each chain's first candidate
            cand = np.repeat(states[live] ^ pre[p], width, axis=0) ^ pre[k[valid] + 1]
            dc = engine.dist_to(_unpack(cand, ne), mode_vec, taylor_heat_kernels)
            dw = np.full(k.shape, np.nan)  # NaN past a chain's last proposal: never accepted
            dw[valid] = dc
            ds = np.empty_like(dw)
            ds[:, 0] = d[live]
            ds[:, 1:] = dw[:, :-1]
            ec, es, lu_w = phi(dw), phi(ds), lu[np.minimum(k, lu.size - 1)]
            delta = -gamma * (ec - es)
            stop = np.ones((live.size, w + 1), dtype=bool)
            np.logical_not(lu_w < delta, out=stop[:, :w])
            if taylor:
                tie = np.abs(delta - lu_w) <= gamma * TAYLOR_BAND * (1.0 + ec + es)
                stop[:, :w] |= tie
            n_acc = stop.argmax(axis=1)  # accepted decisions on each chain's path
            moved = np.flatnonzero(n_acc)
            last = first[moved] + n_acc[moved] - 1
            states[live[moved]] = cand[last]
            d[live[moved]] = dc[last]
            tally[0] += int(n_acc.sum())
            kept = n_acc < width  # the decision that ended the window: a rejection
            if taylor:
                tied = kept & tie[np.arange(live.size), np.minimum(n_acc, w - 1)]
                kept &= ~tied
                head = np.flatnonzero(tied & (n_acc == 0))
                if head.size:
                    tally[0] += _decide_on_eigh(
                        live[head], cand[first[head]], lu_w[head, 0], states, d, mode_vec,
                        gamma, engine,
                    )
                    kept[head] = True
            step = n_acc + kept
            tally[1] += int(step.sum())
            pos[live] += step
        live = live[pos[live] < ends[live]]


def _proposal_block(rng, tau, m, n_chains, ne):
    """Draw ``m`` steps' flip masks for ``n_chains`` chains, then their log u.

    Returns ``_run_proposals``' (pre, lu, ends). The masks are drawn in
    sub-chunks of whole steps of at most ``MASK_CHUNK`` entries (the doubles,
    and their order, of one draw of the block) and each (step, chain) mask
    is bit-packed as it is drawn (``_pack``), so a block's at most 4M mask
    entries are held as bits. A chain whose mask is empty proposes its own
    state, which log u < 0 always accepts unchanged, so only the non-empty
    masks f are kept, in chain order: pre[k] = f_0 ^ ... ^ f_{k-1}, and a
    chain at proposal p in state s proposes s ^ pre[p] ^ pre[k + 1] at k on
    its path.
    """
    # Row step * n_chains + chain: the C order of the one draw of the block.
    packed = np.empty((m * n_chains, -(-ne // 64)), dtype=np.uint64)
    sub = max(1, MASK_CHUNK // max(1, n_chains * ne))
    for lo in range(0, m, sub):
        hi = min(lo + sub, m)
        rows = (hi - lo) * n_chains
        packed[lo * n_chains : hi * n_chains] = _pack(bernoulli_bits(rng, tau, (rows, ne)))
    logu = rng.random(m * n_chains)
    np.log(logu, out=logu)
    chain, rows = np.nonzero(packed.any(axis=1).reshape(m, n_chains).T)
    rows *= n_chains
    rows += chain  # row step * n_chains + chain of each non-empty mask, in chain order
    pre = np.empty((rows.size + 1, packed.shape[1]), dtype=np.uint64)
    pre[0] = 0
    np.take(packed, rows, axis=0, out=pre[1:])
    del packed
    np.bitwise_xor.accumulate(pre, axis=0, out=pre)
    return pre, logu[rows], np.bincount(chain, minlength=n_chains).cumsum()


def _decide_on_eigh(rows, cand, lu, states, d, mode_vec, gamma, engine):
    """Decide chains ``rows``' packed proposals ``cand`` on eigh distances; returns the accepts."""
    phi = engine.metric.apply_phi
    dc = engine.dist_to(_unpack(cand, engine.ne), mode_vec)
    d[rows] = engine.dist_to(_unpack(states[rows], engine.ne), mode_vec)
    acc = lu < -gamma * (phi(dc) - phi(d[rows]))
    states[rows[acc]] = cand[acc]
    d[rows[acc]] = dc[acc]
    return int(acc.sum())


def snf_mh_matrix(
    mode_vec: np.ndarray,
    gamma: float,
    engine: _MetricEngine,
    n_chains: int,
    steps: int,
    tau: float,
    rng: np.random.Generator,
    start: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``n_chains`` draws from the SNF at (mode, gamma): uint8 rows plus raw distances.

    At N <= 5 the draws are exact: the SNF is a categorical law over the
    enumerated space, so the mode's row of ``engine.table`` gives its weights
    exp(-gamma phi(d)) and one inverse-CDF lookup per draw picks a graph.
    ``steps``, ``tau`` and ``start`` do not act there.

    Above N = 5 each draw is the final state of an independent flip-kernel
    Metropolis chain of ``steps`` steps with flip probability ``tau``, started
    at the mode unless ``start`` rows are given.

    The masks and log u of a block of steps (at most 4M mask entries) are
    drawn at once, and a chain whose mask is empty skips that step. The block
    is held as bits, ceil(N_e / 64) uint64 words per mask, beside the
    chain-ordered prefix XOR of its non-empty masks (``_proposal_block``):
    16 bytes per mask at N = 15 and 160 at N = 50. The block is freed before
    the chains run and the prefix XOR before the next block is drawn. The
    chain states are held packed too; each distance batch unpacks only its
    candidate rows. Each chain then runs through its own non-empty
    proposals, and one distance batch scores up to w of every chain's next
    proposals along its accept path: candidate j is the state XOR masks
    1..j. A chain keeps every decision up to and including its first
    rejection; the rows scored past it are discarded. So each decision
    sees the candidate, current state and log u of a step-by-step loop.
    w = round(1 / (1 - a)) for this call's running acceptance a, at most
    ``engine.chunk`` // (live chains), so a batch holds at most
    ``engine.chunk`` rows.

    Under the diffusion metric, batches score with ``taylor_heat_kernels``
    (scaling and squaring, within ~1e-14 per kernel entry of
    ``heat_kernels``) in the engine's reused workspace and become distances
    in place, so a batch allocates no (rows, N, N) array. A decision whose
    margin |-gamma (phi(d_c) - phi(d_s)) - log u| is within gamma *
    TAYLOR_BAND * (1 + phi(d_c) + phi(d_s)) ends the window before it; at the
    head of a window it is taken again on eigh (``heat_kernels``) distances
    of both the proposal and the current state.
    The returned distances are recomputed through ``heat_kernels``, and
    ``InternalInconsistencyError`` is raised if any running distance is off by
    more than the band. So states and distances are bit-identical to a chain
    that steps one proposal at a time on ``heat_kernels``.

    With 10 chains and 1 BLAS thread on a 2-vCPU VM, a step costs 0.62-0.65x
    of one batch per step at N = 15 and gamma = 4.6 (87% accepted, w = 8;
    0.08-0.13 ms as the VM's load varied), 0.77-0.84x at gamma = 60 (6%
    accepted, w = 1) and ~0.96x at N = 50 (~0.9-1.0 ms; w = 1 within the
    chunk, and the kernels are most of the cost).
    """
    if engine.small:
        dvec = engine.table[vector_to_bits(mode_vec)]
        logw = -gamma * engine.metric.apply_phi(dvec)
        cdf = np.exp(logw - logw.max()).cumsum()
        cdf /= cdf[-1]
        pick = np.searchsorted(cdf, rng.random(n_chains), side="right")
        return engine.states[pick], dvec[pick]
    if start is None:
        states = np.tile(_pack(mode_vec[None]), (n_chains, 1))
        d = np.zeros(n_chains)
    else:
        states = _pack(start)
        d = engine.dist_to(start, mode_vec)
    phi = engine.metric.apply_phi
    taylor = engine.metric.kind == "diffusion"
    # Bound the pregenerated proposal block to 4M mask entries, held as bits
    # (0.55-0.65 MB with word padding at N = 15-50), whose uniforms stream
    # through a 256 KiB buffer. The block length fixes the RNG order (masks,
    # then log u, per block).
    block = max(1, min(steps, (1 << 22) // max(1, n_chains * engine.ne)))
    tally = [0, 1]  # accepted, decided: this call's running acceptance, from 0
    done = 0
    while done < steps:
        m = min(block, steps - done)
        pre, lu, ends = _proposal_block(rng, tau, m, n_chains, engine.ne)
        _run_proposals(states, d, pre, lu, ends, mode_vec, gamma, engine, taylor, tally)
        del pre  # released before the next block is drawn
        done += m
    states = _unpack(states, engine.ne)
    if taylor:
        exact = engine.dist_to(states, mode_vec)
        ex, ed = phi(exact), phi(d)
        off = np.abs(ex - ed) > TAYLOR_BAND * (1.0 + ex + ed)
        if off.any():
            raise InternalInconsistencyError(
                f"{int(off.sum())} inner-chain distance(s) from taylor_heat_kernels differ "
                f"from heat_kernels by more than the decision band {TAYLOR_BAND:g}"
            )
        d = exact
    return states, d


def sample_matrix(
    params: Union[CerParams, SnfParams],
    count: int,
    rng: np.random.Generator,
    mcmc: McmcConfig,
    engine: Optional[_MetricEngine] = None,
) -> np.ndarray:
    """``count`` draws from a CER or SNF model as a (count, n_pairs) uint8 matrix.

    CER draws are exact, and so are SNF draws at N <= 5. Above that each SNF
    draw is the endpoint of an independent flip-kernel Metropolis chain started
    at the mode, run with ``mcmc``'s inner step count and flip probability
    (resolved only for SNF draws, so a CER draw never needs them). An SNF draw
    uses ``engine`` (built for the model's metric and vertex count) if given,
    so that a caller drawing many times builds one; else it builds its own.
    """
    if isinstance(params, CerParams):
        return cer_sample_matrix(params, count, rng)
    ne = params.mode.n_pairs
    steps, tau = mcmc.resolved_aux_steps(ne), mcmc.resolved_tau(ne)
    if engine is None:
        engine = _MetricEngine(params.metric, params.mode.n_vertices)
    states, _ = snf_mh_matrix(params.mode.to_vector(), params.gamma, engine, count, steps, tau, rng)
    return states


def sample_blocks(
    params: Union[CerParams, SnfParams],
    count: int,
    rows: int,
    rng: np.random.Generator,
    mcmc: McmcConfig,
) -> Iterator[np.ndarray]:
    """``sample_matrix(params, count, rng, mcmc)`` in blocks of at most ``rows`` rows.

    The blocks stack to the bytes of the one call. CER draws and exact SNF
    draws (N <= 5) read the generator row by row, so each block is its own
    ``sample_matrix`` call, drawn when the consumer asks for it; the SNF
    blocks share one engine. SNF chain draws above N = 5 are one call, since
    their stream depends on the chain count, and are only sliced.
    """
    engine = None
    if isinstance(params, SnfParams):
        engine = _MetricEngine(params.metric, params.mode.n_vertices)
        if not engine.small:
            mat = sample_matrix(params, count, rng, mcmc, engine)
            for r in range(0, count, rows):
                yield mat[r : r + rows]
            return
    for r in range(0, count, rows):
        yield sample_matrix(params, min(rows, count - r), rng, mcmc, engine)


# ---------------------------------------------------------------------------
# Shared Metropolis-Hastings driver
# ---------------------------------------------------------------------------


def _drive_chain(
    cfg: McmcConfig,
    accepts: dict[str, list[int]],
    advance: Callable[[int], tuple[np.ndarray, float, float]],
    param_name: str,
    n_vertices: int,
) -> Trace:
    """Burn-in, lag and keep loop over a sampler that advances in blocks.

    ``advance(k)`` makes k iterations (k may be 0), adds their [accepted,
    proposed] counts per kernel into ``accepts``, and returns the (mode
    vector, scalar, log kernel) after them: the burn-in is one block, then
    each kept sample ends a block of ``cfg.lag`` iterations. Both fits pass
    the ``send`` of a primed chain generator (``_cer_cer_chain``,
    ``_sn_sn_chain``). The driver itself draws no random numbers.
    """
    kept_graphs: list[LabelledGraph] = []
    kept_params: list[float] = []
    kept_logk: list[float] = []
    advance(cfg.burn_in)
    for _ in range(cfg.n_samples):
        mode_vec, param, logk = advance(cfg.lag)
        kept_graphs.append(LabelledGraph.from_vector(n_vertices, mode_vec))
        kept_params.append(param)
        kept_logk.append(logk)
    return Trace(
        graphs=kept_graphs,
        params=np.array(kept_params),
        log_kernels=np.array(kept_logk),
        param_name=param_name,
        n_vertices=n_vertices,
        accept_counts={k: (v[0], v[1]) for k, v in accepts.items()},
        config=cfg,
    )


# ---------------------------------------------------------------------------
# CER/CER fitting
# ---------------------------------------------------------------------------


def fit_cer_cer(pop: GraphPopulation, hyper: CerCerHyper, cfg: McmcConfig) -> Trace:
    """Metropolis-Hastings over (mode, alpha) for the CER/CER model.

    The mode moves by a mixture of the independent-flip kernel and the
    empirical-Bernoulli independence kernel (with full Hastings correction);
    alpha moves by the (0, 0.5)-reflected uniform walk. All normalizing
    constants are tractable, so the target is evaluated exactly.

    The chain carries the mode's sufficient statistics, the prior distance
    d0 = d(mode, g0) and the data distance dsum = sum_i d(G_i, mode), plus the
    current log target. A flip proposal updates them from per-pair integer
    gains in O(flipped pairs), and the log target is recomputed only for an
    alpha candidate and after a mode move. The iterations run in one loop
    (``_cer_cer_chain``) whose state lives in local variables, one block of
    iterations per burn-in or kept sample.

    Invariant: every iteration draws, in this order, one ``rng.random(out=)``
    of N_e + 2 doubles (the uniform choosing the kernel, flip with probability
    ``kernel_mix_weight``; the N_e flip-mask or empirical-candidate uniforms;
    the uniform deciding the mode move), the step-size index that
    ``rng.integers(len(step_sizes_upsilon))`` would return (``_bounded_indices``:
    32-bit halves of raw words, none when there is one step size), one double
    v giving the alpha noise -u + (u - -u) * v that ``rng.uniform(-u, u)``
    computes, and, when the alpha candidate lies in (0, 0.5), one uniform
    deciding it. These are the draws and the order of separate ``random()``,
    ``random(N_e)``, ``random()`` and ``reflected_walk`` calls, so changes
    that keep this order and the float expressions of the log ratios keep
    traces bit-identical to that step-by-step chain.
    """
    n_vertices = pop.n_vertices
    if hyper.g0.n_vertices != n_vertices:
        raise DomainError("prior mode lives on a different vertex set than the data")
    for u in cfg.step_sizes_upsilon:
        if u >= 0.5:
            raise StepTooLargeError(u, 0.5)
    tau = cfg.resolved_tau(n_pairs(n_vertices))
    accepts = {"flip": [0, 0], "empirical": [0, 0], "alpha_walk": [0, 0]}
    chain = _cer_cer_chain(pop, hyper, cfg, tau, spawn_rng(cfg.seed), accepts)
    next(chain)
    return _drive_chain(cfg, accepts, chain.send, "alpha", n_vertices)


def _cer_cer_chain(pop, hyper, cfg, tau, rng, accepts):
    """``fit_cer_cer``'s chain as a generator: ``send(k)`` makes k iterations.

    Each send returns (mode vector, alpha, log target) after its iterations
    and adds their counts into ``accepts``. The mode vector is the chain's own
    array, valid until the next send.
    """
    ne = n_pairs(pop.n_vertices)
    data = pop.to_matrix()
    n = data.shape[0]
    g0_vec = hyper.g0.to_vector()
    empirical = _EmpiricalKernel(data)

    lw_prior = log(hyper.alpha0) - log(1.0 - hyper.alpha0)
    const_prior = ne * log(1.0 - hyper.alpha0)
    a, b = hyper.beta_a, hyper.beta_b
    alpha_norm = lgamma(a + b) - lgamma(a) - lgamma(b) + log(2.0)
    n_cells = n * ne

    def log_target(d0_, dsum_, alpha_):
        # The alpha term is CerCerHyper.log_alpha_prior with its normaliser
        # hoisted; alpha_ always lies in (0, 0.5) here.
        log_prior = alpha_norm + (a - 1.0) * log(2.0 * alpha_) + (b - 1.0) * log(1.0 - 2.0 * alpha_)
        return (
            const_prior
            + d0_ * lw_prior
            + log_prior
            + dsum_ * log(alpha_)
            + (n_cells - dsum_) * log(1.0 - alpha_)
        )

    # Row 0: change of d0, row 1: change of dsum, when a pair turns on.
    gains = np.stack([1 - 2 * g0_vec.astype(np.int64), n - 2 * data.sum(axis=0, dtype=np.int64)])
    empty_stats = np.array([int(g0_vec.sum()), int(data.sum(dtype=np.int64))])
    mode = majority_vote(pop).to_vector()

    def flip_gains():
        # The same changes when each pair of the mode flips, as Python lists:
        # a flip proposal touches about one pair, too few for numpy calls.
        return (gains * (1 - 2 * mode.astype(np.int64))).tolist()

    prior_gain, data_gain = flip_gains()
    d0 = int(np.count_nonzero(mode != g0_vec))
    dsum = int(np.count_nonzero(data != mode))
    alpha = 0.5 * a / (a + b)
    lw_lik = log(alpha) - log(1.0 - alpha)
    current = log_target(d0, dsum, alpha)
    log_q_mode = None

    random = rng.random
    buf = np.empty(ne + 2)  # kernel choice, N_e mask or candidate uniforms, mode decision
    uniforms = buf[1 : ne + 1]
    drawn = np.empty(ne, dtype=bool)
    mix, last = cfg.kernel_mix_weight, ne + 1
    # (low, high - low) of each step size's Unif(-u, u), as rng.uniform forms them.
    walks = [(-u, u - -u) for u in cfg.step_sizes_upsilon]
    walk_index = _bounded_indices(rng.bit_generator, len(walks))
    flip_tally, empirical_tally = accepts["flip"], accepts["empirical"]
    alpha_tally = accepts["alpha_walk"]

    k = yield
    while True:
        flips = flips_ok = empirical_ok = alpha_ok = 0
        for _ in range(k):
            # Mode update.
            random(out=buf)
            if buf[0] < mix:
                flips += 1
                pairs = (uniforms < tau).nonzero()[0].tolist()
                if not pairs:
                    # The mode proposes itself, which log u < 0 always accepts
                    # with the statistics and log target as they are.
                    flips_ok += 1
                else:
                    dd0 = sum([prior_gain[e] for e in pairs])
                    ddsum = sum([data_gain[e] for e in pairs])
                    log_ratio = dd0 * lw_prior + ddsum * lw_lik
                    if log(buf[last]) < log_ratio:
                        flips_ok += 1
                        for e in pairs:
                            mode[e] ^= 1
                            prior_gain[e] = -prior_gain[e]
                            data_gain[e] = -data_gain[e]
                        log_q_mode = None
                        d0 += dd0
                        dsum += ddsum
                        current = log_target(d0, dsum, alpha)
            else:
                cand = np.less(uniforms, empirical.freq, out=drawn).view(np.uint8)
                d0_c, dsum_c = (empty_stats + gains @ cand).tolist()
                if log_q_mode is None:
                    log_q_mode = empirical.log_q(mode)
                log_q_cand = empirical.log_q(cand)
                log_ratio = (d0_c - d0) * lw_prior + (dsum_c - dsum) * lw_lik + (
                    log_q_mode - log_q_cand
                )
                if log(buf[last]) < log_ratio:
                    empirical_ok += 1
                    mode[:] = cand
                    prior_gain, data_gain = flip_gains()
                    log_q_mode = log_q_cand
                    d0, dsum = d0_c, dsum_c
                    current = log_target(d0, dsum, alpha)

            # Alpha update (reflected walk is symmetric).
            low, width = walks[next(walk_index)]
            alpha_c = _reflect(alpha + (low + width * random()), 0.0, 0.5)
            if 0.0 < alpha_c < 0.5:
                target_c = log_target(d0, dsum, alpha_c)
                if log(random()) < target_c - current:
                    alpha_ok += 1
                    alpha, current = alpha_c, target_c
                    lw_lik = log(alpha) - log(1.0 - alpha)
        flip_tally[0] += flips_ok
        flip_tally[1] += flips
        empirical_tally[0] += empirical_ok
        empirical_tally[1] += k - flips
        alpha_tally[0] += alpha_ok
        alpha_tally[1] += k
        k = yield mode, alpha, current


def plugin_alpha_tilde(pop: GraphPopulation, cer_hyper: CerCerHyper, cfg: McmcConfig) -> float:
    """SN/SN plug-in dispersion: the posterior mean alpha of a CER/CER pre-fit.

    Clipped into the open interval (0, 0.5) that ``fit_sn_sn`` requires.
    """
    pre = fit_cer_cer(pop, cer_hyper, cfg)
    return float(np.clip(pre.params.mean(), 1e-6, 0.5 - 1e-6))


@dataclass(frozen=True)
class ExactJointPosterior:
    """Exact posterior over (graph space x scalar grid), normalized on the grid."""

    space: tuple[LabelledGraph, ...]
    grid: np.ndarray
    log_post: np.ndarray  # shape (len(space), len(grid))

    @property
    def joint(self) -> np.ndarray:
        return np.exp(self.log_post)

    @property
    def graph_marginal(self) -> np.ndarray:
        return self.joint.sum(axis=1)


def exact_posterior_cer(
    pop: GraphPopulation, hyper: CerCerHyper, alpha_grid
) -> ExactJointPosterior:
    """Enumeration oracle for the CER/CER posterior on a grid of alpha values."""
    n_vertices = pop.n_vertices
    if n_vertices > 4:
        raise SpaceTooLargeError(n_vertices, 4)
    grid = np.asarray(alpha_grid, dtype=np.float64)
    if grid.min() <= 0.0 or grid.max() >= 0.5:
        raise DomainError("alpha grid must lie strictly inside (0, 0.5)")
    ne = n_pairs(n_vertices)
    n = len(pop)
    space = enumerate_graph_space(n_vertices)
    hamming_metric = MetricSpec(kind="hamming")
    d0 = space_distances(hyper.g0, hamming_metric)
    table = _space_distance_table(n_vertices, "hamming", 1.0)
    data_rows = np.array([g.edge_bits for g in pop])
    dsum = table[data_rows].sum(axis=0)

    log_prior_graph = d0 * log(hyper.alpha0) + (ne - d0) * log(1.0 - hyper.alpha0)
    log_prior_alpha = np.array([hyper.log_alpha_prior(a) for a in grid])
    log_lik = dsum[:, None] * np.log(grid)[None, :] + (n * ne - dsum)[:, None] * np.log1p(
        -grid
    )[None, :]
    log_post = log_prior_graph[:, None] + log_prior_alpha[None, :] + log_lik
    log_post -= _logsumexp(log_post.ravel())
    return ExactJointPosterior(tuple(space), grid, log_post)


# ---------------------------------------------------------------------------
# SN/SN fitting (exchange algorithm)
# ---------------------------------------------------------------------------


def fit_sn_sn(
    pop: GraphPopulation,
    hyper: SnSnHyper,
    cfg: McmcConfig,
    alpha_tilde: float,
) -> Trace:
    """Auxiliary-variable exchange sampler for the SN/SN posterior.

    Each iteration proposes (mode', gamma') with the CER/CER kernels (the gamma
    walk reflecting at 0 only), draws n auxiliary graphs from the model at the
    proposed values (``snf_mh_matrix``: exact at N <= 5, inner Metropolis
    chains started at the proposed mode above), and accepts with the
    five-factor ratio: CER auxiliary-density ratio with plug-in dispersion
    alpha_tilde (new auxiliaries scored at the proposed mode in the numerator,
    current auxiliaries at the current mode in the denominator), prior ratio
    for (mode, gamma), data-kernel ratio, the inverse ratio of the SNF kernels
    at the auxiliaries, and the proposal ratio. The partition functions cancel
    exactly; above N = 5 the finite inner chains are the only approximation.
    gamma starts at ``hyper.gamma0``, which must lie in the prior's support
    (``_check_sn_sn_inputs``). The trace records ``hyper.metric``.

    The chain is the generator ``_sn_sn_chain``, which ``_drive_chain``
    advances in blocks as it does ``fit_cer_cer``'s. It draws the starting
    auxiliaries, then per iteration the ``mode_move``, ``reflected_walk``,
    ``snf_mh_matrix`` and decision draws, in that order.
    """
    if not 0.0 < alpha_tilde < 0.5:
        raise DomainError(f"alpha_tilde={alpha_tilde} outside (0, 0.5)")
    _check_sn_sn_inputs(hyper, pop.n_vertices)
    accepts = {"flip": [0, 0], "empirical": [0, 0]}
    chain = _sn_sn_chain(pop, hyper, cfg, alpha_tilde, spawn_rng(cfg.seed), accepts)
    next(chain)
    trace = _drive_chain(cfg, accepts, chain.send, "gamma", pop.n_vertices)
    return replace(trace, metric=hyper.metric)


def _check_sn_sn_inputs(hyper: SnSnHyper, n_vertices: int) -> None:
    """``DomainError`` unless gamma0 is in the prior's support and g0 on ``n_vertices``."""
    if hyper.gamma_prior.log_pdf(hyper.gamma0) == -inf:
        raise DomainError(f"gamma0={hyper.gamma0} lies outside the support of {hyper.gamma_prior}")
    if hyper.g0.n_vertices != n_vertices:
        raise DomainError("prior mode lives on a different vertex set than the data")


def _sn_sn_chain(pop, hyper, cfg, alpha_tilde, rng, accepts):
    """``fit_sn_sn``'s chain as a generator: ``send(k)`` makes k exchange iterations.

    Each send returns (mode vector, gamma, log kernel) after its iterations
    and adds their counts into ``accepts``.
    """
    ne = n_pairs(pop.n_vertices)
    n = len(pop)
    tau = cfg.resolved_tau(ne)
    aux_steps = cfg.resolved_aux_steps(ne)
    engine = _MetricEngine(hyper.metric, pop.n_vertices)
    phi = hyper.metric.apply_phi

    data = pop.to_matrix()
    g0_vec = hyper.g0.to_vector()
    empirical = _EmpiricalKernel(data)
    lw_aux = log(alpha_tilde) - log(1.0 - alpha_tilde)

    mode_vec = majority_vote(pop).to_vector()
    gamma = hyper.gamma0

    def data_energy(mvec: np.ndarray) -> float:
        return float(phi(engine.dist_to(data, mvec)).sum())

    def prior_energy(mvec: np.ndarray) -> float:
        # g0 is the row and mvec the mode, so the mode kernel the inner chains
        # and data_energy memoised serves this call too (the distance is
        # symmetric bit for bit).
        return float(phi(engine.dist_to(g0_vec[None, :], mvec)[0]))

    s_data = data_energy(mode_vec)
    e_prior = prior_energy(mode_vec)
    aux, aux_d = snf_mh_matrix(mode_vec, gamma, engine, n, aux_steps, tau, rng)
    s_aux = float(phi(aux_d).sum())
    s_aux_h = int(np.count_nonzero(aux != mode_vec))

    k = yield
    while True:
        for _ in range(k):
            key, cand, log_q_diff = empirical.mode_move(mode_vec, cfg.kernel_mix_weight, tau, rng)
            gamma_c = reflected_walk(gamma, 0.0, None, cfg.step_sizes_upsilon, rng)

            aux_c, aux_dc = snf_mh_matrix(cand, gamma_c, engine, n, aux_steps, tau, rng)
            s_aux_c = float(phi(aux_dc).sum())
            s_aux_h_c = int(np.count_nonzero(aux_c != cand))
            s_data_c = data_energy(cand)
            e_prior_c = prior_energy(cand)

            log_ratio = (
                lw_aux * (s_aux_h_c - s_aux_h)
                + (-hyper.gamma0 * (e_prior_c - e_prior))
                + (hyper.gamma_prior.log_pdf(gamma_c) - hyper.gamma_prior.log_pdf(gamma))
                + (-gamma_c * s_data_c + gamma * s_data)
                + (-gamma * s_aux + gamma_c * s_aux_c)
                + log_q_diff
            )
            if np.isnan(log_ratio):
                raise NonFiniteLogRatioError(
                    "exchange ratio is NaN; check the metric/phi combination"
                )
            tally = accepts[key]
            tally[1] += 1
            if log(rng.random()) < log_ratio:
                tally[0] += 1
                mode_vec, gamma = cand, gamma_c
                s_aux, s_aux_h = s_aux_c, s_aux_h_c
                s_data, e_prior = s_data_c, e_prior_c
        logk = -hyper.gamma0 * e_prior + hyper.gamma_prior.log_pdf(gamma) - gamma * s_data
        k = yield mode_vec, gamma, logk


def exact_posterior_snf(
    pop: GraphPopulation, hyper: SnSnHyper, gamma_grid
) -> ExactJointPosterior:
    """Enumeration oracle for the SN/SN posterior including the Z(mode, gamma)^-n term."""
    n_vertices = pop.n_vertices
    if n_vertices > 4:
        raise SpaceTooLargeError(n_vertices, 4)
    grid = np.asarray(gamma_grid, dtype=np.float64)
    if grid.min() <= 0.0:
        raise DomainError("gamma grid must be strictly positive")
    n = len(pop)
    space = enumerate_graph_space(n_vertices)
    table = _space_distance_table(n_vertices, hyper.metric.kind, hyper.metric.t)
    energies = hyper.metric.apply_phi(table)
    data_rows = np.array([g.edge_bits for g in pop])
    data_term = energies[data_rows].sum(axis=0)  # per-candidate-mode sum of phi(d)
    prior_term = hyper.metric.apply_phi(space_distances(hyper.g0, hyper.metric))
    log_prior_gamma = np.array([hyper.gamma_prior.log_pdf(g) for g in grid])

    size = len(space)
    log_post = np.empty((size, len(grid)))
    for j, gamma in enumerate(grid):
        kernels = -gamma * energies  # (size, size): kernel of s given mode m in column m
        log_z = np.logaddexp.reduce(kernels, axis=0)
        log_post[:, j] = (
            -hyper.gamma0 * prior_term
            + log_prior_gamma[j]
            - gamma * data_term
            - n * log_z
        )
    log_post -= _logsumexp(log_post.ravel())
    return ExactJointPosterior(tuple(space), grid, log_post)


# ---------------------------------------------------------------------------
# Summaries and divide-and-conquer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PosteriorSummary:
    mode_graph: LabelledGraph
    frequencies: tuple[tuple[LabelledGraph, float], ...]
    scalar_mean: float
    interval: tuple[float, float]
    level: float


def posterior_summary(trace: Trace, level: float = 0.95) -> PosteriorSummary:
    """Most-visited graph, visit-frequency table and equal-tailed scalar interval."""
    if len(trace) == 0:
        raise EmptyTraceError("cannot summarize an empty trace")
    if not 0.0 < level < 1.0:
        raise DomainError(f"level={level} outside (0, 1)")
    counts: dict[int, int] = {}
    for g in trace.graphs:
        counts[g.edge_bits] = counts.get(g.edge_bits, 0) + 1
    total = len(trace)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    freq = tuple(
        (LabelledGraph(trace.n_vertices, bits), c / total) for bits, c in ordered
    )
    lo = (1.0 - level) / 2.0
    params = np.sort(trace.params)
    interval = (float(_sorted_quantile(params, lo)), float(_sorted_quantile(params, 1.0 - lo)))
    return PosteriorSummary(freq[0][0], freq, float(trace.params.mean()), interval, level)


@dataclass(frozen=True)
class DivideAndConquerResult:
    mode: LabelledGraph
    gamma_samples: np.ndarray
    subset_modes: tuple[LabelledGraph, ...]
    subset_traces: tuple[Trace, ...]


def divide_and_conquer_fit(
    pop: GraphPopulation,
    hyper: SnSnHyper,
    cfg: McmcConfig,
    n_subsets: int,
    alpha_tilde: Optional[float] = None,
) -> DivideAndConquerResult:
    """Fit SN/SN independently on equal-size subsets and combine.

    The point estimate is the restricted Frechet mean of the per-subset
    posterior modes under the model's metric. Gamma samples are combined by
    re-centring per subset, re-scaling each subset's spread to the pooled
    spread divided by sqrt(n_subsets) (a heuristic stand-in for the full-data
    dispersion), and re-centring at the grand mean.

    When ``alpha_tilde`` is None, each subset derives its own plug-in from a
    CER/CER pre-fit whose alpha0 maps gamma0 through alpha = 1/(1 + e^gamma).
    """
    n = len(pop)
    if n % n_subsets != 0:
        raise IndivisiblePopulationError(n, n_subsets)
    size = n // n_subsets
    traces: list[Trace] = []
    modes: list[LabelledGraph] = []
    for i in range(n_subsets):
        sub = GraphPopulation(pop.graphs[i * size : (i + 1) * size])
        if n_subsets == 1:
            sub_cfg = cfg  # degenerate split is exactly a plain fit
        else:
            sub_cfg = replace(cfg, seed=derive_seed(cfg.seed, i))
        if alpha_tilde is None:
            a0 = min(max(1.0 / (1.0 + exp(hyper.gamma0)), 1e-6), 0.5 - 1e-6)
            at = plugin_alpha_tilde(sub, CerCerHyper(g0=hyper.g0, alpha0=a0), sub_cfg)
        else:
            at = alpha_tilde
        trace = fit_sn_sn(sub, hyper, sub_cfg, at)
        traces.append(trace)
        modes.append(posterior_summary(trace).mode_graph)

    combined_mode = (
        modes[0]
        if n_subsets == 1
        else sample_frechet_mean(GraphPopulation(tuple(modes)), hyper.metric, candidates=modes)
    )

    per_subset = [t.params for t in traces]
    means = np.array([s.mean() for s in per_subset])
    sds = np.array([s.std(ddof=1) if len(s) > 1 else 0.0 for s in per_subset])
    pooled = float(np.sqrt((sds**2).mean()))
    target = pooled / np.sqrt(n_subsets)
    grand_mean = float(means.mean())
    combined = []
    for s, m, sd in zip(per_subset, means, sds):
        centred = s - m
        if sd > 0 and target > 0:
            centred = centred * (target / sd)
        combined.append(centred + grand_mean)
    gamma_samples = np.concatenate(combined)
    return DivideAndConquerResult(combined_mode, gamma_samples, tuple(modes), tuple(traces))
