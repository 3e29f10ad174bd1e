"""The relaxation-based contextual bandit learner.

Each round the learner draws fresh randomness for the remaining rounds (a
``FutureDraw``), asks the value oracle K+1 questions about the history
extended by that randomness, turns the answers into a distribution by
water-filling, mixes with the uniform distribution for exploration, plays,
and finally records a discretized importance-weighted estimate of the
observed cost.  The oracle budget is exactly K+1 calls per round.

The history enters every score only through the (U, K) past matrix, the
per-context sum of the recorded estimates (``past_loss_matrix``):
``oracle_scores`` and ``relaxation_value`` take it, and
``RelaxationLearner`` updates it in place.

Randomness contract (one round consumes, in order):

1. future contexts -- one uniform per remaining round, inverse-CDF sampled
   (none in transductive mode, where the true future sequence is copied);
2. future sign vectors -- ``rng.integers(0, 2, size=(n, K))``;
3. future magnitudes -- one uniform per remaining round;
4. the played action -- one uniform;
5. the estimator coin -- one uniform.

This fixed order makes full traces reproducible by hand from the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .core import (
    ActionDistribution,
    ActionIndex,
    Context,
    FutureDraw,
    HistoryRecord,
    build_estimate,
    draw_estimator_coin,
)
from .environments import ContextDistribution
from .policies import ValueOracle, context_action_sums

MODES = ("iid-sampler", "transductive")

#: A source of future contexts: a distribution to sample from, or (in
#: transductive mode) the full realized context sequence for rounds 1..T.
ContextSource = Union[ContextDistribution, np.ndarray]


@dataclass(frozen=True)
class LearnerConfig:
    """Game dimensions plus the estimate scale.

    ``scale`` is the magnitude of the discretized cost estimates (each
    estimate is 0 or ``scale`` per coordinate) and simultaneously sets the
    exploration floor ``1/scale``.  It must be at least K or the minimax
    step is infeasible.
    """

    K: int
    T: int
    scale: float
    mode: str = "iid-sampler"

    def __post_init__(self) -> None:
        if self.K < 2:
            raise ValueError(f"need at least 2 actions, got K={self.K}")
        if self.T < 1:
            raise ValueError(f"horizon must be >= 1, got T={self.T}")
        if not self.scale >= self.K:
            raise ValueError(f"scale must be >= K, got scale={self.scale}, K={self.K}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


def tune_scale(num_actions: int, horizon: int, num_policies: int) -> float:
    """Cube-root tuning of the estimate scale, clamped to its K floor.

    Returns ``max(K, (K*T / ln N)**(1/3))`` as a real number (no rounding).
    The clamp engages exactly when ``T < K**2 * ln N``; callers should flag
    such runs as outside the tuned regime (see ``in_tuning_regime``).
    """
    if num_policies < 2:
        raise ValueError(f"need at least 2 policies to tune, got {num_policies}")
    if num_actions < 1 or horizon < 1:
        raise ValueError("num_actions and horizon must be positive")
    raw = (num_actions * horizon / math.log(num_policies)) ** (1.0 / 3.0)
    return max(float(num_actions), raw)


def in_tuning_regime(num_actions: int, horizon: int, num_policies: int) -> bool:
    """Whether the horizon is long enough for cube-root tuning to bind."""
    return horizon >= num_actions**2 * math.log(num_policies)


@dataclass(frozen=True)
class OracleScores:
    """The K+1 oracle answers for one round and their normalized gaps.

    ``minima[i]`` is the best cumulative loss over the class when an extra
    ``scale``-sized charge on action ``i`` at the current context is added
    to the sequence (``minima[0]``: no charge).  ``gaps[i-1]`` is
    ``(minima[i] - minima[0]) / scale``, the normalized price of action
    ``i`` this round.
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


def _checked_source(config: LearnerConfig, context_source: ContextSource) -> ContextSource:
    """The context source, checked against the mode (a sequence comes back as int64)."""
    if config.mode == "transductive":
        seq = np.asarray(context_source, dtype=np.int64)
        if seq.shape != (config.T,):
            raise ValueError(f"transductive context sequence must have length {config.T}")
        return seq
    if not isinstance(context_source, ContextDistribution):
        raise TypeError("iid-sampler mode needs a ContextDistribution source")
    return context_source


def sample_future(
    t: int,
    config: LearnerConfig,
    context_source: ContextSource,
    rng: np.random.Generator,
) -> FutureDraw:
    """Draw the randomness for rounds ``t+1 .. T``.

    Contexts come i.i.d. from the sampler (or verbatim from the known
    sequence in transductive mode); each sign entry is uniform on
    ``{-1, +1}``; each magnitude is ``scale`` with probability ``K/scale``
    and 0 otherwise.
    """
    if t > config.T:
        raise ValueError(f"round {t} beyond horizon {config.T}")
    if t < 0:
        raise ValueError(f"round must be >= 0, got {t}")
    n = config.T - t
    source = _checked_source(config, context_source)
    if config.mode == "transductive":
        contexts = source[t:].copy()
    else:
        contexts = source.sample(rng, size=n)
    signs = rng.integers(0, 2, size=(n, config.K)) * 2 - 1
    hit = rng.random(n) < config.K / config.scale
    magnitudes = np.where(hit, config.scale, 0.0)
    return FutureDraw(contexts=contexts, signs=signs, magnitudes=magnitudes)


def past_loss_matrix(history: Sequence[HistoryRecord], num_contexts: int, num_actions: int) -> np.ndarray:
    """Sum recorded estimates into a (U, K) per-context loss matrix.

    This is the "past" that the functional path takes.  Estimates are
    sparse, so this walks the nonzero ones directly, in history order.
    """
    mat = np.zeros((num_contexts, num_actions))
    for rec in history:
        if rec.estimate.coordinate:
            mat[rec.context, rec.estimate.coordinate - 1] += rec.estimate.scale
    return mat


def future_loss_matrix(rho: FutureDraw, num_contexts: int, num_actions: int) -> np.ndarray:
    """Sum the perturbation terms ``2 * sign * magnitude`` into a (U, K) matrix."""
    nz = rho.magnitudes > 0.0
    if not np.any(nz):
        return np.zeros((num_contexts, num_actions))
    weighted = rho.signs[nz] * (2.0 * rho.magnitudes[nz])[:, None]
    return context_action_sums(rho.contexts[nz], weighted, num_contexts)


def _check_past(past: np.ndarray, config: LearnerConfig, oracle: ValueOracle) -> None:
    """Reject a past loss matrix that is not (U, K)."""
    shape = (oracle.policy_class.num_contexts, config.K)
    if np.shape(past) != shape:
        raise ValueError(f"past loss matrix must have shape {shape}, got {np.shape(past)}")


def oracle_scores(
    past: np.ndarray,
    x_t: Context,
    rho: FutureDraw,
    config: LearnerConfig,
    oracle: ValueOracle,
) -> OracleScores:
    """Compute the round's K+1 oracle answers.

    ``past`` is the (U, K) sum of the recorded estimates
    (:func:`past_loss_matrix`).  Each answer is one oracle call on ``past``
    plus the perturbation terms from ``rho`` plus the single charge at the
    current context (absent for index 0); exactly K+1 calls total.
    """
    _check_past(past, config, oracle)
    num_contexts = oracle.policy_class.num_contexts
    base = past + future_loss_matrix(rho, num_contexts, config.K)
    contexts = np.arange(num_contexts)
    minima = np.empty(config.K + 1)
    minima[0] = oracle.value_arrays(contexts, base)
    for a in range(1, config.K + 1):
        charged = base.copy()
        charged[x_t, a - 1] += config.scale
        minima[a] = oracle.value_arrays(contexts, charged)
    return OracleScores.from_minima(minima, config.scale)


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
    q = np.zeros(gaps.size)
    m = 1.0
    for i in range(gaps.size):
        fill = min(max(gaps[i], 0.0), m)
        q[i] = fill
        m -= fill
    if m > 0.0:
        q[int(np.argmax(gaps))] += m
    return ActionDistribution(q)


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
    k = prob_rows.shape[1]
    if k != scores.num_actions:
        raise ValueError(f"got {k}-action rows for {scores.num_actions}-action scores")
    if scale < k:
        raise ValueError(f"scale must be >= K, got scale={scale}, K={k}")
    z = scale * prob_rows - scores.minima[1:]
    z0 = -scores.minima[0]
    return np.maximum(z - z0, 0.0).sum(axis=1) / scale + z0


def play_distribution(scores: OracleScores, config: LearnerConfig) -> ActionDistribution:
    """Water-fill the gaps, then mix with uniform for the exploration floor.

    Returns ``(1 - K/scale) * water_fill(gaps) + (1/scale) * ones``; every
    coordinate ends up at least ``1/scale``.
    """
    filled = water_fill(scores.gaps)
    mix = 1.0 - config.K / config.scale
    return ActionDistribution(mix * filled.probs + 1.0 / config.scale)


def relaxation_value(
    past: np.ndarray,
    rho: FutureDraw,
    config: LearnerConfig,
    oracle: ValueOracle,
) -> float:
    """Single-draw potential of the game after ``t = T - len(rho)`` rounds.

    Minus the oracle value on the (U, K) past matrix (the recorded
    estimates, :func:`past_loss_matrix`) plus the perturbation terms from
    ``rho``, plus the exploration budget ``len(rho) * K / scale`` for the
    remaining rounds.  One oracle call.
    """
    remaining = len(rho)
    if remaining > config.T:
        raise ValueError(f"draw covers {remaining} rounds, more than the horizon {config.T}")
    _check_past(past, config, oracle)
    num_contexts = oracle.policy_class.num_contexts
    base = past + future_loss_matrix(rho, num_contexts, config.K)
    value = oracle.value_arrays(np.arange(num_contexts), base)
    return -value + remaining * config.K / config.scale


def step(
    t: int,
    history: list[HistoryRecord],
    x_t: Context,
    cost_of: Callable[[ActionIndex], float],
    config: LearnerConfig,
    oracle: ValueOracle,
    context_source: ContextSource,
    rng: np.random.Generator,
) -> tuple[ActionIndex, list[HistoryRecord]]:
    """Play round ``t`` after ``history`` with :meth:`RelaxationLearner.play_round`.

    Returns the played action and the extended history (a new list).
    """
    if t != len(history) + 1:
        raise ValueError(f"round {t} does not follow a history of {len(history)} rounds")
    record = RelaxationLearner(config, oracle, context_source, history).play_round(x_t, cost_of, rng)
    return record.played_action, [*history, record]


class RelaxationLearner:
    """The round engine; one instance per replication.

    Keeps the (U, K) past matrix and the next round's number, not a record
    list; each new estimate is added to the matrix in place.  ``history``
    optionally gives the rounds already played (:func:`step` starts from
    one).  Instances are single-threaded.  Each replication gets its own
    learner, oracle and generator, as the harness does; there is no
    parallel path.
    """

    def __init__(
        self,
        config: LearnerConfig,
        oracle: ValueOracle,
        context_source: ContextSource,
        history: Sequence[HistoryRecord] = (),
    ) -> None:
        _checked_source(config, context_source)
        self.config = config
        self.oracle = oracle
        self.context_source = context_source
        self.round = len(history) + 1  # the next round to play (1-based)
        self._past = past_loss_matrix(history, oracle.policy_class.num_contexts, config.K)
        self.min_play_prob = float("inf")
        self.max_raw_coin_prob = 0.0  # the coin's Bernoulli parameter before clamping to 1

    def play_round(
        self,
        x_t: Context,
        cost_of: Callable[[ActionIndex], float],
        rng: np.random.Generator,
    ) -> HistoryRecord:
        """Play the next round: sample, score, play, estimate, record.

        ``cost_of`` reveals just the played action's cost, preserving bandit
        feedback.  The estimator coin uses the realized play distribution of
        this round (the one actually sampled from), so its success
        probability stays at most 1.
        """
        t = self.round
        if t > self.config.T:
            raise ValueError(f"round {t} beyond horizon {self.config.T}")
        config = self.config
        rho = sample_future(t, config, self.context_source, rng)
        scores = oracle_scores(self._past, x_t, rho, config, self.oracle)
        dist = play_distribution(scores, config)
        action = dist.sample(rng)
        cost = float(cost_of(action))
        prob = float(dist.probs[action - 1])
        coin = draw_estimator_coin(cost, prob, config.scale, rng)
        self.max_raw_coin_prob = max(self.max_raw_coin_prob, cost / (config.scale * prob))
        self.min_play_prob = min(self.min_play_prob, float(dist.probs.min()))
        record = HistoryRecord(
            context=x_t,
            played_dist=dist,
            played_action=action,
            observed_cost=cost,
            estimate=build_estimate(action, coin, config.scale),
        )
        self.round += 1
        if coin:
            self._past[x_t, action - 1] += config.scale
        return record
