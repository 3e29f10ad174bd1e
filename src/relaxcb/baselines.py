"""Reference learners for regret comparison.

Exp4 is the statistically optimal but computationally heavy comparator: it
maintains one weight per policy (O(N) per round), so it exists to show the
oracle-efficient learner is competitive, not to be efficient itself.  The
uniform learner is the sanity floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ActionDistribution, ActionIndex, Context
from .policies import PolicyClass


@dataclass
class Exp4State:
    """Exponential-weights state over the policy class."""

    log_weights: np.ndarray
    learning_rate: float
    exploration: float  # uniform mixing weight, also floors action probabilities
    policy_class: PolicyClass

    def __post_init__(self) -> None:
        self.log_weights = np.asarray(self.log_weights, dtype=float)
        if self.log_weights.shape != (self.policy_class.num_policies,):
            raise ValueError("need one log-weight per policy")
        if not np.all(np.isfinite(self.log_weights)):
            raise ValueError("log-weights must be finite")
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning rate must be > 0, got {self.learning_rate}")
        if not 0.0 <= self.exploration <= 1.0:
            raise ValueError(f"exploration must lie in [0, 1], got {self.exploration}")

    def policy_distribution(self) -> np.ndarray:
        w = np.exp(self.log_weights - self.log_weights.max())
        return w / w.sum()


def make_exp4_state(policy_class: PolicyClass, horizon: int) -> Exp4State:
    """Uniform initial weights with horizon-tuned exploration.

    Mixing weight ``gamma = min(1, sqrt(K ln N / (T K)))``, in which K cancels
    (0.0442 at K=5, N=50, T=2000), and learning rate ``gamma / K``.  Auer et al.
    (2002) tune Exp4 with ``sqrt(K ln N / ((e - 1) T))`` instead (0.0754 there).
    """
    n = policy_class.num_policies
    k = policy_class.num_actions
    gamma = min(1.0, math.sqrt(k * math.log(max(n, 2)) / (horizon * k)))
    return Exp4State(
        log_weights=np.zeros(n),
        learning_rate=gamma / k,
        exploration=gamma,
        policy_class=policy_class,
    )


def exp4_distribution(state: Exp4State, x_t: Context) -> ActionDistribution:
    """Weight-averaged action profile at ``x_t``, mixed with uniform."""
    k = state.policy_class.num_actions
    w = state.policy_distribution()
    actions0 = state.policy_class.actions_for(x_t) - 1
    profile = np.bincount(actions0, weights=w, minlength=k)
    probs = (1.0 - state.exploration) * profile + state.exploration / k
    return ActionDistribution(probs)


def exp4_step(
    state: Exp4State, x_t: Context, rng: np.random.Generator
) -> tuple[ActionDistribution, ActionIndex]:
    """Pick this round's distribution and sample an action from it."""
    dist = exp4_distribution(state, x_t)
    return dist, dist.sample(rng)


def exp4_update(
    state: Exp4State,
    x_t: Context,
    dist: ActionDistribution,
    action: ActionIndex,
    cost: float,
) -> None:
    """Importance-weighted exponential update from one observed cost.

    Only policies that would have played the observed action are charged.
    The exploration floor keeps the importance weight at most
    ``K / exploration``, so log-weights stay finite; they are re-centered
    each round to avoid drift.
    """
    if not 0.0 <= cost <= 1.0:
        raise ValueError(f"cost {cost} outside [0, 1]")
    estimated = cost / float(dist.probs[action - 1])
    played = state.policy_class.actions_for(x_t) == action
    state.log_weights = state.log_weights - state.learning_rate * estimated * played
    state.log_weights -= state.log_weights.max()


def uniform_step(
    num_actions: int, rng: np.random.Generator
) -> tuple[ActionDistribution, ActionIndex]:
    """Uniform play: the floor every learner should beat."""
    dist = ActionDistribution.uniform(num_actions)
    return dist, dist.sample(rng)
