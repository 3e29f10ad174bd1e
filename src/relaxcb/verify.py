"""Independent verification oracles for the learner's moving parts.

Everything here deliberately re-derives quantities by brute force --
simplex grids, polytope vertex enumeration, exact convolution, Monte Carlo
-- so the fast closed forms elsewhere in the package are checked against a
second route, not against themselves.  The learner's in-law future draw has
its reference here: the round-by-round sampler it replaced and that
sampler's exact law.  So has its vertex play: the real-valued minimax step
(scores, water-filling, best response, potential), which only checks use.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import ActionDistribution, HistoryRecord, build_estimate, draw_estimator_coin, sample_index
from .environments import ContextDistribution, ContextSequence
from .learner import (
    ContextSource,
    LearnerConfig,
    _base_matrix,
    _check_inputs,
    oracle_scores,
    past_loss_matrix,
    play_distribution,
    sample_future,
)
from .policies import PolicyClass, ValueOracle, random_policy_class


@dataclass(frozen=True, eq=False)  # a generated __eq__ or __hash__ would fail on the minima and gaps arrays
class OracleScores:
    """Real-valued oracle minima and their normalized gaps, for the minimax checks.

    ``minima[i]`` is the best cumulative loss over the class when an extra
    ``scale``-sized charge on action ``i`` at the current context is added
    to the sequence (``minima[0]``: no charge).  ``gaps[i-1]`` is
    ``(minima[i] - minima[0]) / scale``, the normalized price of action
    ``i``.  Only the minimax checks build these; the round keeps integers.
    """

    minima: np.ndarray  # (K+1,)
    gaps: np.ndarray    # (K,)

    def __post_init__(self) -> None:
        minima = np.asarray(self.minima, dtype=float)
        gaps = np.asarray(self.gaps, dtype=float)
        if minima.ndim != 1 or minima.size < 2 or gaps.shape != (minima.size - 1,):
            raise ValueError("scores need K+1 minima and K gaps")
        if not (np.all(np.isfinite(minima)) and np.all(np.isfinite(gaps))):
            raise ValueError("scores must be finite")
        minima.flags.writeable = False
        gaps.flags.writeable = False
        object.__setattr__(self, "minima", minima)
        object.__setattr__(self, "gaps", gaps)

    @property
    def num_actions(self) -> int:
        return int(self.gaps.size)

    @classmethod
    def from_minima(cls, minima: np.ndarray, scale: float) -> "OracleScores":
        minima = np.asarray(minima, dtype=float)
        return cls(minima=minima, gaps=(minima[1:] - minima[0]) / scale)


def water_fill(gaps) -> ActionDistribution:
    """Sequentially fill coordinates up to their (positive) gaps.

    Walks coordinates in order 1..K, assigning ``min(max(gap, 0), m)`` to
    each while mass ``m`` (initially 1) lasts.  Any remaining mass goes to
    the largest gap, ties to the lowest index.  Any real gap vector is
    acceptable.
    """
    gaps = np.asarray(gaps, dtype=float)
    if gaps.ndim != 1 or gaps.size == 0 or not np.all(np.isfinite(gaps)):
        raise ValueError("gaps must be a finite 1-d vector")
    gaps = gaps.tolist()
    q = []
    m = 1.0
    for gap in gaps:
        fill = min(max(gap, 0.0), m)
        q.append(fill)
        m -= fill
    if m > 0.0:
        q[gaps.index(max(gaps))] += m  # the first of the largest gaps
    return ActionDistribution(np.array(q))


def _spike_payoffs(probs: np.ndarray, scores: OracleScores, scale: float) -> tuple[np.ndarray, float]:
    """Spike payoffs ``z = scale * q - minima[1:]`` and ``z0 = -minima[0]``, after checking K and ``scale >= K``."""
    k = probs.shape[-1]
    if k != scores.num_actions:
        raise ValueError(f"play distributions have {k} actions, the scores {scores.num_actions}")
    if scale < k:
        raise ValueError(f"scale must be >= K, got scale={scale}, K={k}")
    return scale * probs - scores.minima[1:], -scores.minima[0]


def inner_sup_value(dist: ActionDistribution | np.ndarray, scores: OracleScores, scale: float) -> float:
    """Adversary's best response value against a play distribution, in closed form.

    The adversary picks a distribution over the discretized estimate domain
    (zero vector plus ``scale``-spiked coordinates, each spike capped at
    probability ``1/scale``) to maximize the expected charge net of the
    oracle minima.  Capping makes the optimum a capped fill from the top
    coordinate down, which collapses to
    ``sum_i max(z_i - z_0, 0)/scale + z_0`` with ``z_i = scale*q_i -
    minima[i]`` and ``z_0 = -minima[0]``.  Requires ``scale >= K`` so the
    fill never runs out of room.
    """
    probs = dist.probs if isinstance(dist, ActionDistribution) else np.asarray(dist, dtype=float)
    return float(inner_sup_values(probs[None, :], scores, scale)[0])


def inner_sup_values(prob_rows: np.ndarray, scores: OracleScores, scale: float) -> np.ndarray:
    """Vectorized :func:`inner_sup_value` over rows of play distributions."""
    prob_rows = np.asarray(prob_rows, dtype=float)
    if prob_rows.ndim != 2:
        raise ValueError(f"prob_rows must be 2-d, got shape {prob_rows.shape}")
    z, z0 = _spike_payoffs(prob_rows, scores, scale)
    return np.maximum(z - z0, 0.0).sum(axis=1) / scale + z0


def relaxation_value(
    past: np.ndarray,
    t: int,
    rho: np.ndarray,
    config: LearnerConfig,
    oracle: ValueOracle,
) -> float:
    """Single-draw potential of the game after ``t`` rounds.

    Minus ``scale`` times the oracle value on the (U, K) coin count
    (``learner.past_loss_matrix``) plus the future loss matrix of ``rho``,
    the draw for rounds ``t+1 .. T`` (``learner.sample_future``), plus the
    exploration budget ``(T - t) * K / scale`` for the remaining rounds.
    One oracle call.
    """
    if not 0 <= t <= config.T:
        raise ValueError(f"round {t} outside the horizon 0..{config.T}")
    value = oracle.value_arrays(_base_matrix(past, rho, config, oracle))
    return -config.scale * value + (config.T - t) * config.K / config.scale


def simplex_grid(num_actions: int, mesh: float) -> np.ndarray:
    """All probability vectors with coordinates on a ``mesh``-spaced grid.

    Supports 2 or 3 actions; the K=3 grid at mesh 1e-3 already has ~5e5
    points, so anything larger is refused.  ``mesh`` must lie in (0, 1].
    """
    if not 0.0 < mesh <= 1.0:  # a NaN fails the comparison
        raise ValueError(f"mesh must lie in (0, 1], got {mesh}")
    n = round(1.0 / mesh)
    if abs(n * mesh - 1.0) > 1e-9:
        raise ValueError(f"mesh {mesh} must divide 1 evenly")
    if num_actions == 2:
        i = np.arange(n + 1)
        grid = np.column_stack([i, n - i]).astype(float) / n
    elif num_actions == 3:
        rows = []
        for i in range(n + 1):
            j = np.arange(n - i + 1)
            block = np.empty((j.size, 3))
            block[:, 0] = i
            block[:, 1] = j
            block[:, 2] = n - i - j
            rows.append(block)
        grid = np.concatenate(rows) / n
    else:
        raise ValueError(f"grid search supports 2 or 3 actions, got {num_actions}")
    return grid


def brute_force_minimax(
    scores: OracleScores, scale: float, mesh: float
) -> tuple[ActionDistribution, float]:
    """Grid-search the play distribution minimizing the adversary's value.

    Evaluates the closed-form best response on every grid point of the
    simplex and returns the minimizing point and its value.  This is the
    reference the water-filling minimizer is compared against.
    """
    grid = simplex_grid(scores.num_actions, mesh)
    values = inner_sup_values(grid, scores, scale)
    best = int(np.argmin(values))
    return ActionDistribution(grid[best]), float(values[best])


def sup_by_vertex_enumeration(probs, scores: OracleScores, scale: float) -> float:
    """Adversary's best response by enumerating polytope vertices.

    The feasible set is the simplex over {zero vector, K spiked vectors}
    with every spike's probability capped at 1/scale.  For K <= scale its
    vertices are exactly the 2^K cap-or-zero patterns on the spikes (the
    zero vector takes the remaining mass), so the supremum of a linear
    objective is the maximum over those patterns.
    """
    probs = np.asarray(probs, dtype=float)
    z, z0 = _spike_payoffs(probs, scores, scale)
    k = probs.size
    best = -math.inf
    for pattern in range(2**k):
        members = [i for i in range(k) if pattern >> i & 1]
        p0 = 1.0 - len(members) / scale
        value = sum(z[i] for i in members) / scale + p0 * z0
        best = max(best, value)
    return best


def minimax_check(cases: Sequence[tuple[int, float, int]], rng: np.random.Generator) -> tuple[bool, float]:
    """Water-filling against grid search on ``count`` random instances per ``(K, mesh, count)`` case.

    Returns whether water-filling stayed within ``scale * mesh + 1e-6`` of the
    grid minimum, and its worst excess.  Each instance draws a scale of K or
    2K, then K normal charged minima of that spread beside a zero base.
    """
    worst_gap = 0.0
    ok = True
    for k, mesh, count in cases:
        for _ in range(count):
            scale = float(k * rng.integers(1, 3))
            scores = OracleScores.from_minima(np.concatenate([[0.0], rng.normal(0.0, scale, size=k)]), scale)
            achieved = inner_sup_value(water_fill(scores.gaps), scores, scale)
            _, grid_min = brute_force_minimax(scores, scale, mesh)
            worst_gap = max(worst_gap, achieved - grid_min)
            ok = ok and achieved <= grid_min + scale * mesh + 1e-6
    return ok, worst_gap


@dataclass
class UnbiasednessResult:
    """Monte Carlo means of the estimate vs. the true costs, in analytic sigmas."""

    costs: np.ndarray
    means: np.ndarray
    sigmas: np.ndarray  # per-coordinate |mean - cost| / analytic stderr
    draws: int

    @property
    def worst_sigma(self) -> float:
        return float(self.sigmas.max())

    def passed(self, tol_sigmas: float = 3.0) -> bool:
        return bool(self.worst_sigma <= tol_sigmas)


def unbiasedness_check(
    num_actions: int,
    scale: float,
    draws: int,
    rng: np.random.Generator,
    costs: np.ndarray | None = None,
) -> UnbiasednessResult:
    """Empirically verify the estimate averages to the true cost vector.

    Draws a play distribution respecting the 1/scale floor and a cost
    vector (unless given), then repeatedly samples (action, coin) through
    the real code path and compares coordinate means against the analytic
    standard error ``sqrt((scale*c - c^2)/n)``.

    ``UnbiasednessResult.passed`` allows 3 sigma on each coordinate, with no
    correction for testing several at once.  With ``num_actions = 4`` (as
    ``relaxcb verify`` runs it) a correct estimator therefore fails on
    about 1 seed in 100: ``1 - (1 - 0.0027)**4 = 1.1%`` under the normal
    approximation, and 2 of 300 seeds failed in practice.

    ``scale`` must be at least ``num_actions`` (the floor's feasibility), a
    given ``costs`` must have shape ``(num_actions,)`` and entries in
    [0, 1], and ``draws`` must be at least 1; anything else raises
    ``ValueError`` before the first draw.  Coins are counted in Python ints
    and each mean is ``count * scale / draws``.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    if not scale >= num_actions:  # a NaN fails the comparison
        raise ValueError(f"scale must be >= num_actions, got scale={scale}, num_actions={num_actions}")
    if costs is not None:
        costs = np.asarray(costs, dtype=float)
        if costs.shape != (num_actions,):
            raise ValueError(f"costs has shape {costs.shape}, expected ({num_actions},)")
        if not np.all((costs >= 0.0) & (costs <= 1.0)):  # a NaN fails both comparisons
            raise ValueError(f"costs must lie in [0, 1], got {costs.tolist()}")
    raw = rng.random(num_actions)
    probs = (1.0 - num_actions / scale) * (raw / raw.sum()) + 1.0 / scale
    if costs is None:
        costs = rng.random(num_actions)
    cost_of, prob_of = costs.tolist(), probs.tolist()
    coins = [0] * (num_actions + 1)  # by estimate coordinate; 0 is the zero vector
    for _ in range(draws):
        action = sample_index(probs, rng) + 1
        coin = draw_estimator_coin(cost_of[action - 1], prob_of[action - 1], scale, rng)
        coins[build_estimate(action, coin)] += 1
    means = np.array(coins[1:]) * scale / draws
    stderr = np.sqrt(np.maximum(scale * costs - costs**2, 0.0) / draws)
    with np.errstate(divide="ignore", invalid="ignore"):
        sigmas = np.where(stderr > 0.0, np.abs(means - costs) / stderr, np.abs(means - costs))
    return UnbiasednessResult(costs=costs, means=means, sigmas=sigmas, draws=draws)


#: Samples per matrix product in :func:`rademacher_bound_check`; a chunk's
#: float ``sign * Z`` rows take ``8 * horizon * num_actions`` bytes each
#: (3.2 MB per chunk at the ``relaxcb verify`` sizes).
_CHUNK_ROWS = 1024


class PerturbationCheck(NamedTuple):
    empirical: float
    bound: float
    stderr: float


def rademacher_bound_check(
    horizon: int,
    moment_bound: float,
    num_policies: int,
    scale: float,
    num_actions: int,
    num_contexts: int,
    samples: int,
    rng: np.random.Generator,
    z_prob: float | None = None,
) -> PerturbationCheck:
    """Monte Carlo estimate of the perturbation supremum vs. its analytic cap.

    Estimates ``E[sup over policies of sum_t sign_t(policy(x_t)) * Z_t]``
    for a random table class on a fixed random context sequence, where each
    ``Z_t`` is ``scale`` with probability ``z_prob`` (default
    ``num_actions/scale``) and 0 otherwise.  Requires the second moment
    ``scale**2 * z_prob`` to stay within ``moment_bound``; the returned
    analytic cap is ``sqrt(2 * horizon * moment_bound * ln(num_policies))``.

    Samples are drawn in blocks of at most 5e6 signs.  A block's
    per-policy sums are one matrix product of its ``sign * Z`` rows with a
    (horizon * num_actions, num_policies) 0/1 selector, taken over chunks of
    :data:`_CHUNK_ROWS` samples.  Beside the block's int64 signs (40 MB at
    5e6 signs) and float ``Z`` (40 / num_actions MB), it holds one chunk's
    float product, not a block-sized one.  Every partial sum is an
    integer times ``scale``, so for an integer or dyadic ``scale`` the sums
    are exact in any order.  ``samples`` and ``horizon`` must be at least 1.
    """
    for name, value in (("samples", samples), ("horizon", horizon)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if z_prob is None:
        z_prob = num_actions / scale
    if not 0.0 <= z_prob <= 1.0:
        raise ValueError(f"z_prob must lie in [0, 1], got {z_prob}")
    if scale**2 * z_prob > moment_bound + 1e-9:
        raise ValueError(
            f"second moment {scale**2 * z_prob} exceeds the stated bound {moment_bound}"
        )
    policy_class = random_policy_class(num_policies, num_contexts, num_actions, rng)
    xs = rng.integers(0, num_contexts, size=horizon)
    # column p picks sign (t, policy p's action at x_t) out of a sample's flattened (T, K) signs
    picked = np.arange(horizon)[:, None] * num_actions + policy_class.by_context[xs]  # (T, N)
    selector = np.zeros((horizon * num_actions, num_policies))
    selector[picked, np.arange(num_policies)] = 1.0

    sups = np.empty(samples)
    block = max(1, min(samples, int(5e6 // (horizon * num_actions)) or 1))
    done = 0
    while done < samples:
        b = min(block, samples - done)
        signs = rng.integers(0, 2, size=(b, horizon, num_actions))
        signs *= 2
        signs -= 1
        z = np.where(rng.random((b, horizon)) < z_prob, scale, 0.0)
        for lo in range(0, b, _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, b)
            per_policy = (signs[lo:hi] * z[lo:hi, :, None]).reshape(hi - lo, -1) @ selector
            sups[done + lo : done + hi] = per_policy.max(axis=1)
        done += b
    empirical = float(sups.mean())
    stderr = float(sups.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    bound = math.sqrt(2.0 * horizon * moment_bound * math.log(num_policies))
    return PerturbationCheck(empirical=empirical, bound=bound, stderr=stderr)


def row_wise_future(
    t: int,
    config: LearnerConfig,
    source: ContextSource,
    rng: np.random.Generator,
) -> np.ndarray:
    """The law reference for ``learner.sample_future``: its matrix, drawn round by round.

    For each of the rounds ``t+1 .. T`` draws a context (i.i.d. from a
    ``ContextDistribution``, or the known one of a ``ContextSequence``), a
    sign vector uniform on ``{-1, +1}^K`` and a hit with probability
    ``K/scale``, then sums the hit rounds' sign vectors by context into the
    (U, K) integer matrix.  This costs O((T - t) * K) per call, where the
    learner's in-law draw costs O(U * K).
    """
    n = config.T - t
    contexts = source.ids[t:] if isinstance(source, ContextSequence) else source.sample(rng, size=n)
    signs = rng.integers(0, 2, size=(n, config.K)) * 2 - 1
    hit = rng.random(n) < config.K / config.scale
    sums = np.zeros((source.num_contexts, config.K), dtype=np.int64)
    np.add.at(sums, contexts[hit], signs[hit])
    return sums


def row_wise_future_pmf(
    t: int,
    config: LearnerConfig,
    source: ContextSource,
) -> dict[tuple[int, ...], float]:
    """Exact law of :func:`row_wise_future`'s matrix, for small games.

    Each remaining round adds nothing with probability ``1 - K/scale``, or
    the sign vector s at context u with probability ``(K/scale) * p_u *
    2**-K`` (``p_u`` is 1 at the known context of a ``ContextSequence``).  The
    law of the sum is that per-round law convolved over the remaining
    rounds.  Keys are the matrices flattened in row-major order; only
    outcomes of positive probability appear.  The support grows like
    ``(n + 1)**(U*K)``, so keep ``n``, U and K small.
    """
    k = config.K
    hit = k / config.scale
    signs = list(itertools.product((-1, 1), repeat=k))
    zero = (0,) * (source.num_contexts * k)
    pmf = {zero: 1.0}
    for j in range(t, config.T):
        known = isinstance(source, ContextSequence)
        weights = {int(source.ids[j]): 1.0} if known else dict(enumerate(source.probs.tolist()))
        steps = [(zero, 1.0 - hit)]
        for u, w in weights.items():
            for s in signs:
                delta = list(zero)
                delta[u * k : (u + 1) * k] = s
                steps.append((tuple(delta), hit * w / 2**k))
        steps = [(delta, q) for delta, q in steps if q > 0.0]
        convolved: dict[tuple[int, ...], float] = defaultdict(float)
        for key, p in pmf.items():
            for delta, q in steps:
                convolved[tuple(a + b for a, b in zip(key, delta))] += p * q
        pmf = dict(convolved)
    return pmf


@dataclass
class AdmissibilityResult:
    """Both sides of the one-step potential-domination inequality."""

    lhs: float
    rhs: float
    lhs_stderr: float
    rhs_stderr: float
    draws: int
    round_index: int

    @property
    def combined_stderr(self) -> float:
        return math.hypot(self.lhs_stderr, self.rhs_stderr)

    @property
    def margin(self) -> float:
        """How far below the right side the left side sits (positive = good)."""
        return self.rhs - self.lhs

    def passed(self, tol_sigmas: float = 3.0) -> bool:
        return bool(self.lhs <= self.rhs + tol_sigmas * self.combined_stderr)


def cost_grid(num_actions: int, mesh: float = 0.25) -> np.ndarray:
    """All cost vectors with coordinates on a mesh over [0, 1] (corners included); ``mesh`` in (0, 1]."""
    if not 0.0 < mesh <= 1.0:
        raise ValueError(f"mesh must lie in (0, 1], got {mesh}")
    levels = np.round(np.arange(0.0, 1.0 + mesh / 2, mesh), 12)
    grids = np.meshgrid(*([levels] * num_actions), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def admissibility_check(
    policy_class: PolicyClass,
    config: LearnerConfig,
    context_dist: ContextDistribution,
    history: Sequence[HistoryRecord],
    draws: int,
    rng: np.random.Generator,
    mesh: float = 0.25,
) -> AdmissibilityResult:
    """One-step check that playing one round cannot raise the potential.

    For the round following ``history``, Monte Carlo estimates of

    * LHS: expectation over the current context of the worst grid cost
      vector's value of (expected observed cost + next potential), with the
      play distribution, the estimate coin and both potentials realized
      exactly as the learner realizes them, and
    * RHS: the current potential

    must satisfy ``LHS <= RHS`` up to Monte Carlo noise.  The cost vector
    ranges over a finite grid and expectations are sampled, so this is a
    necessary-condition test, not a proof.

    Each of the ``draws`` (at least 1) makes ``2 + U(2K+1)`` oracle calls:
    the current potential, the zero-coin next potential (which depends on
    neither the context nor the action), and per context the round's K+1
    scores and K one-coin next potentials.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    t = len(history) + 1
    if t > config.T:
        raise ValueError("history already spans the whole horizon")
    if not isinstance(context_dist, ContextDistribution):
        raise TypeError("admissibility_check needs a ContextDistribution to average the current context over")
    oracle = ValueOracle(policy_class)
    _check_inputs(config, context_dist, oracle)
    num_contexts = policy_class.num_contexts
    k, scale = config.K, config.scale
    grid = cost_grid(k, mesh)
    past = past_loss_matrix(history, num_contexts, k)

    rhs_samples = np.empty(draws)
    lhs_values = np.empty((draws, num_contexts, grid.shape[0]))
    for j in range(draws):
        rho_prev = sample_future(t - 1, config, context_dist, rng)
        rhs_samples[j] = relaxation_value(past, t - 1, rho_prev, config, oracle)

        rho_play = sample_future(t, config, context_dist, rng)
        rho_next = sample_future(t, config, context_dist, rng)
        # the potential after this round's estimate: zero, or one coin at (x, a)
        r_zero = relaxation_value(past, t, rho_next, config, oracle)
        for x in range(num_contexts):
            dist = play_distribution(oracle_scores(past, x, rho_play, config, oracle), config)
            r_spike = np.empty(k)
            for a in range(k):
                after = past.copy()
                after[x, a] += 1
                r_spike[a] = relaxation_value(after, t, rho_next, config, oracle)
            # E over (action, coin) given cost vector c collapses to
            # q.c + (c/scale).(r_spike - r_zero) + r_zero: the importance
            # weighting cancels the play probabilities exactly.
            lhs_values[j, x] = grid @ dist.probs + grid @ (r_spike - r_zero) / scale + r_zero

    mean_by_cost = lhs_values.mean(axis=0)               # (U, G)
    worst = mean_by_cost.argmax(axis=1)                  # adversary's grid pick per context
    picked = lhs_values[:, np.arange(num_contexts), worst]  # (draws, U)
    lhs_draws = picked @ context_dist.probs
    lhs = float(lhs_draws.mean())
    lhs_stderr = float(lhs_draws.std(ddof=1) / math.sqrt(draws)) if draws > 1 else 0.0
    rhs = float(rhs_samples.mean())
    rhs_stderr = float(rhs_samples.std(ddof=1) / math.sqrt(draws)) if draws > 1 else 0.0
    return AdmissibilityResult(
        lhs=lhs,
        rhs=rhs,
        lhs_stderr=lhs_stderr,
        rhs_stderr=rhs_stderr,
        draws=draws,
        round_index=t,
    )
