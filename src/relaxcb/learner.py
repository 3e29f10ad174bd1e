"""The relaxation-based contextual bandit learner.

Each round the learner draws fresh randomness for the remaining rounds,
asks the value oracle K+1 questions about the history extended by that
randomness, picks one of K prebuilt plays by the answers, plays, and
records a discretized importance-weighted estimate of the observed cost.
The oracle budget is exactly K+1 calls per round, and those calls and the
oracle's query shape are all the learner sees of the policy class.

Every loss shown to the oracle is a whole multiple of ``scale``, so the
learner scores in those units on (U, K) int64 matrices: the past is the
coin count (``past_loss_matrix``), the future is ``2 * rho`` for the sign
sums ``rho`` drawn in law (``sample_future``: O(U*K), plus O(T-t) to count
a ``ContextSequence``'s known suffix), and a charged query adds 1 at
``(x_t, a)``.  The oracle's answers stay Python ints, so every gap is
exactly 0 or 1, at most one is 1, and a tie (all gaps 0: the base
minimisers disagree at ``x_t``) fills the lowest index: a round plays one
of the K ``LearnerConfig.vertex_plays`` (reference: :mod:`relaxcb.verify`).

Randomness contract (one round with ``n`` remaining rounds consumes, in
order):

1. hits -- ``rng.binomial(n, K/scale)``, the number of remaining rounds
   whose magnitude is nonzero (not drawn for a ``ContextSequence`` source);
2. per-context counts -- ``rng.multinomial(hits, probs)``; for a
   ``ContextSequence`` source instead ``rng.binomial(m, K/scale)``, thinning
   the vector ``m`` of each context's count in the known suffix;
3. heads -- ``rng.binomial(counts[:, None], 0.5, size=(U, K))``, drawn in
   row-major (u, k) order; each sign sum is ``2 * heads - counts``;
4. the played action -- one uniform;
5. the estimator coin -- one uniform.

This fixed order makes full traces reproducible by hand from the seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .core import (
    ActionDistribution,
    ActionIndex,
    Context,
    HistoryRecord,
    build_estimate,
    check_context,
    draw_estimator_coin,
)
from .environments import ContextDistribution, ContextSequence
from .policies import ValueOracle

#: A source of future contexts: a distribution to sample from (i.i.d.
#: contexts), or the known context sequence of rounds 1..T (transductive).
ContextSource = Union[ContextDistribution, ContextSequence]


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

    def __post_init__(self) -> None:
        if self.K < 2:
            raise ValueError(f"need at least 2 actions, got K={self.K}")
        if self.T < 1:
            raise ValueError(f"horizon must be >= 1, got T={self.T}")
        if not self.scale >= self.K:
            raise ValueError(f"scale must be >= K, got scale={self.scale}, K={self.K}")

    @functools.cached_property  # not a field, so ``==`` and ``hash`` see K, T and scale only
    def vertex_plays(self) -> tuple[ActionDistribution, ...]:
        """The K plays of :func:`play_distribution`: entry ``a-1`` is ``(1 - K/scale) * e_a + 1/scale``."""
        mix = 1.0 - self.K / self.scale
        return tuple(ActionDistribution(mix * vertex + 1.0 / self.scale) for vertex in np.eye(self.K))


def tune_scale(num_actions: int, horizon: int, num_policies: int) -> float:
    """Cube-root tuning of the estimate scale, clamped to its K floor.

    Returns ``max(K, (K*T / ln N)**(1/3))`` as a real number (no rounding).
    The clamp engages exactly when ``T < K**2 * ln N``; callers should flag
    such runs as outside the tuned regime (see ``in_tuning_regime``).

    This is not the minimiser of ``harness.bound_curve``'s final value,
    ``(K*T / (2 ln N))**(1/3)``: at K=5, N=50, T=2000 it returns 13.67
    (bound 2800.0) where the minimiser is 10.85 (bound 2764.4).
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


def _check_source(config: LearnerConfig, source: ContextSource) -> None:
    """O(1): the source is one of the two kinds, and a sequence covers rounds 1..T."""
    if isinstance(source, ContextSequence):
        if source.ids.size != config.T:
            raise ValueError(f"context sequence must have length {config.T}, got {source.ids.size}")
    elif not isinstance(source, ContextDistribution):
        raise TypeError(f"need a ContextDistribution or a ContextSequence, got {type(source).__name__}")


def _check_inputs(config: LearnerConfig, source: ContextSource, oracle: ValueOracle) -> None:
    """Check once that the config's K and the source's U match the oracle's policy class."""
    _check_source(config, source)
    u, k = oracle.shape
    if config.K != k:
        raise ValueError(f"config has K={config.K} actions, the policy class has {k}")
    if source.num_contexts != u:
        kind = "sequence" if isinstance(source, ContextSequence) else "distribution"
        raise ValueError(f"context {kind} has {source.num_contexts} contexts, the policy class has {u}")


def sample_future(
    t: int,
    config: LearnerConfig,
    source: ContextSource,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw the (U, K) integer sign sums of the perturbation for rounds ``t+1 .. T``.

    Each remaining round has a context (i.i.d. from a ``ContextDistribution``,
    or the known one for a ``ContextSequence`` source), a sign vector uniform
    on ``{-1, +1}^K`` and a magnitude that is ``scale`` with probability
    ``K/scale`` and 0 otherwise.  Entry (u, k) is the sum of sign k over the
    rounds at context u whose magnitude hits.  Only that sum reaches the
    oracle, so it is drawn directly in law (module docstring, steps 1-3):
    given the per-context hit counts ``n_u``, the entries are independent
    ``2 * Binomial(n_u, 1/2) - n_u``.  ``verify.row_wise_future`` draws the
    same matrix round by round and is the law reference.
    """
    if not 0 <= t <= config.T:
        raise ValueError(f"round {t} outside the horizon 0..{config.T}")
    _check_source(config, source)
    hit = config.K / config.scale
    if isinstance(source, ContextSequence):
        counts = rng.binomial(np.bincount(source.ids[t:], minlength=source.num_contexts), hit)
    else:
        counts = rng.multinomial(rng.binomial(config.T - t, hit), source.probs)
    heads = rng.binomial(counts[:, None], 0.5, size=(source.num_contexts, config.K))
    return 2 * heads - counts[:, None]


def past_loss_matrix(history: Sequence[HistoryRecord], num_contexts: int, num_actions: int) -> np.ndarray:
    """Count the recorded coins into a (U, K) int64 matrix, the past of :func:`oracle_scores`.

    The past loss matrix is ``scale`` times these counts.  A record without
    an estimate (an Exp4 or uniform round) is rejected.
    """
    mat = np.zeros((num_contexts, num_actions), dtype=np.int64)
    for rec in history:
        if rec.estimate is None:
            raise ValueError(f"round at context {rec.context} has no estimate to sum")
        if rec.estimate.coordinate:
            mat[rec.context, rec.estimate.coordinate - 1] += 1
    return mat


def future_loss_matrix(rho: np.ndarray) -> np.ndarray:
    """The perturbation's (U, K) loss matrix in ``scale`` units: each sign sum doubled."""
    return 2 * rho


def _base_matrix(past: np.ndarray, rho: np.ndarray, config: LearnerConfig, oracle: ValueOracle) -> np.ndarray:
    """The past counts plus the future loss matrix, after checking K and that both are int64 of the oracle's shape."""
    shape = oracle.shape
    if config.K != shape[1]:
        raise ValueError(f"config has K={config.K} actions, the policy class has {shape[1]}")
    for name, mat in (("past count", past), ("future draw", rho)):
        mat = np.asarray(mat)
        if mat.shape != shape or mat.dtype != np.int64:
            raise ValueError(f"{name} matrix must be int64 of shape {shape}, got {mat.dtype} {mat.shape}")
    return past + future_loss_matrix(rho)


def oracle_scores(
    past: np.ndarray,
    x_t: Context,
    rho: np.ndarray,
    config: LearnerConfig,
    oracle: ValueOracle,
) -> tuple[int, ...]:
    """The round's K+1 oracle answers, as Python ints in coin units.

    ``past`` is the (U, K) coin count (:func:`past_loss_matrix`) and ``rho``
    the (U, K) sign sums of the future (:func:`sample_future`).  Answer 0 is
    one oracle call on ``past`` plus the future loss matrix; answer ``a`` is
    the same query charged one coin at ``(x_t, a)``; exactly K+1 calls, in
    that order.  ``scale`` times an answer is the oracle minimum in loss
    units (``verify.OracleScores.from_minima``).  A context id that is not an
    integer, or lies outside the class's 0..U-1, fails before the first call.
    """
    check_context(x_t, oracle.shape[0])
    base = _base_matrix(past, rho, config, oracle)
    answers = [oracle.value_arrays(base)]
    for a in range(config.K):
        charged = base.copy()
        charged[x_t, a] += 1
        answers.append(oracle.value_arrays(charged))
    return tuple(answers)


def play_distribution(answers: Sequence[int], config: LearnerConfig) -> ActionDistribution:
    """Pick the round's play: the config's vertex play of the answers' gap vertex.

    Integer answers make the gaps ``answers[a] - answers[0]`` a vertex: K
    entries, each 0 or 1, at most one 1.  The play is ``vertex_plays[a-1]``
    for the action ``a`` with gap 1, else (a tie) ``vertex_plays[0]``: the
    water-fill of the gaps mixed with uniform.  Anything else is rejected.
    """
    gaps = [answer - answers[0] for answer in answers[1:]]
    ones = gaps.count(1)
    if len(gaps) != config.K or ones > 1 or ones + gaps.count(0) != len(gaps) or answers[0] % 1:
        raise ValueError(
            f"answers {answers} are not a vertex of {config.K} actions: integer gaps 0 or 1, at most one 1"
        )
    return config.vertex_plays[gaps.index(1) if ones else 0]


class RelaxationLearner:
    """The round engine; one instance per replication.

    Starts at round 1 with a zero (U, K) coin count and keeps that count
    and the next round's number, not a record list; each coin adds 1 to the
    count in place.  Instances are single-threaded.  Each replication gets
    its own learner, oracle and generator, as the harness does; there is no
    parallel path.
    """

    def __init__(
        self,
        config: LearnerConfig,
        oracle: ValueOracle,
        context_source: ContextSource,
    ) -> None:
        _check_inputs(config, context_source, oracle)
        self.config = config
        self.oracle = oracle
        self.context_source = context_source
        self.round = 1  # the next round to play
        self._past = np.zeros(oracle.shape, dtype=np.int64)
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
        probability stays at most 1.  ``x_t`` must be an integer context id
        of the class and, for a ``ContextSequence`` source, the known context
        of this round; a rejected round draws nothing from ``rng``.
        """
        t = self.round
        config, source = self.config, self.context_source
        if t > config.T:
            raise ValueError(f"round {t} beyond horizon {config.T}")
        check_context(x_t, self.oracle.shape[0])
        if isinstance(source, ContextSequence) and x_t != source.ids[t - 1]:
            raise ValueError(f"round {t} has the known context {source.ids[t - 1]}, got {x_t}")
        rho = sample_future(t, config, source, rng)
        answers = oracle_scores(self._past, x_t, rho, config, self.oracle)
        dist = play_distribution(answers, config)
        action = dist.sample(rng)
        cost = float(cost_of(action))
        prob = float(dist.probs[action - 1])
        coin = draw_estimator_coin(cost, prob, config.scale, rng)
        self.max_raw_coin_prob = max(self.max_raw_coin_prob, cost / (config.scale * prob))
        record = HistoryRecord(
            context=x_t,
            played_dist=dist,
            played_action=action,
            observed_cost=cost,
            estimate=build_estimate(action, coin),
        )
        self.round += 1
        if coin:
            self._past[x_t, action - 1] += 1
        return record
