"""Reference learners for regret comparison.

Exp4 is the statistically optimal but computationally heavy comparator: it
maintains one weight per policy (O(N) per round), so it exists to show the
oracle-efficient learner is competitive, not to be efficient itself.  The
uniform learner is the sanity floor.  Both play rounds through the same
``play_round(x_t, cost_of, rng) -> HistoryRecord`` as ``RelaxationLearner``
and keep no discretized estimate, so their records carry ``estimate=None``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .core import ActionDistribution, ActionIndex, Context, HistoryRecord
from .policies import PolicyClass


class Exp4Learner:
    """Exponential weights over the policy class, mixed with uniform play.

    Starts from uniform weights.  Mixing weight ``exploration = gamma =
    min(1, sqrt(K ln N / (T K)))``, in which K cancels (0.0442 at K=5, N=50,
    T=2000), and learning rate ``gamma / K``.  Auer et al. (2002) tune Exp4
    with ``sqrt(K ln N / ((e - 1) T))`` instead (0.0754 there).  One instance
    per replication; instances are single-threaded.
    """

    def __init__(self, policy_class: PolicyClass, horizon: int) -> None:
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        n = policy_class.num_policies
        k = policy_class.num_actions
        self.policy_class = policy_class
        self.exploration = min(1.0, math.sqrt(k * math.log(max(n, 2)) / (horizon * k)))
        self.learning_rate = self.exploration / k
        self.log_weights = np.zeros(n)

    def distribution(self, x_t: Context) -> ActionDistribution:
        """Weight-averaged action profile at ``x_t``, mixed with uniform."""
        k = self.policy_class.num_actions
        w = np.exp(self.log_weights - self.log_weights.max())
        w = w / w.sum()
        actions0 = self.policy_class.actions_for(x_t) - 1
        profile = np.bincount(actions0, weights=w, minlength=k)
        probs = (1.0 - self.exploration) * profile + self.exploration / k
        return ActionDistribution(probs)

    def play_round(
        self,
        x_t: Context,
        cost_of: Callable[[ActionIndex], float],
        rng: np.random.Generator,
    ) -> HistoryRecord:
        """Sample an action, observe its cost, then apply the importance-weighted update.

        Only policies that would have played the observed action are charged.
        The exploration floor keeps the importance weight at most
        ``K / exploration``, so log-weights stay finite; they are re-centered
        each round to avoid drift.  Consumes one uniform.
        """
        dist = self.distribution(x_t)
        action = dist.sample(rng)
        cost = float(cost_of(action))
        record = HistoryRecord(
            context=x_t, played_dist=dist, played_action=action, observed_cost=cost, estimate=None
        )
        estimated = cost / float(dist.probs[action - 1])
        played = self.policy_class.actions_for(x_t) == action
        self.log_weights = self.log_weights - self.learning_rate * estimated * played
        self.log_weights -= self.log_weights.max()
        return record


class UniformLearner:
    """Uniform play: the floor every learner should beat.  Consumes one uniform per round."""

    def __init__(self, num_actions: int) -> None:
        self.dist = ActionDistribution.uniform(num_actions)

    def play_round(
        self,
        x_t: Context,
        cost_of: Callable[[ActionIndex], float],
        rng: np.random.Generator,
    ) -> HistoryRecord:
        action = self.dist.sample(rng)
        return HistoryRecord(
            context=x_t,
            played_dist=self.dist,
            played_action=action,
            observed_cost=float(cost_of(action)),
            estimate=None,
        )
