"""Shared domain types and the discretized cost-estimate construction.

Conventions used throughout the package:

* Actions are 1-based integers in ``1..K``.  Coordinate 0 is reserved for
  the all-zeros element of the estimate domain (see :class:`EstimatedCost`).
* Contexts are opaque integer ids in ``0..U-1`` over a finite universe;
  policies act on these ids only.
* Every stochastic operation takes an explicit :class:`numpy.random.Generator`
  and consumes a documented number of draws, so runs are bit-reproducible
  given a seed.  Generators are never shared between threads.
* Probability vectors are validated against a fixed simplex tolerance and
  renormalized by the public constructors, which build the learner's plays
  once per config.  Nothing renormalizes silently: bad input fails loudly.

All types here are immutable value objects, safe to share across threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

Context = int
ActionIndex = int

#: Absolute tolerance for sum-to-one checks on probability vectors.
SIMPLEX_ATOL = 1e-9

#: Slack allowed when checking a probability against the 1/scale floor.
FLOOR_ATOL = 1e-12


def check_context(x_t: Context, num_contexts: int) -> None:
    """Reject a context id that is not an integer in ``0..num_contexts-1``; a bool is no id."""
    try:
        if isinstance(x_t, bool):  # operator.index(True) is 1
            raise TypeError
        operator.index(x_t)
    except TypeError:
        raise TypeError(f"context id {x_t} is not an integer") from None
    if not 0 <= x_t < num_contexts:
        raise ValueError(f"context id {x_t} outside 0..{num_contexts - 1} of a {num_contexts}-context class")


def sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw a 0-based index by inverse-CDF lookup, consuming exactly one uniform.

    ``probs`` must be an ndarray.  The ndarray methods are the functions
    ``np.cumsum`` and ``np.searchsorted`` dispatch to, so the index is the
    same; calling them directly skips the wrappers, which cost more than the
    work on a K-vector (timeit on a 2-core x86 host, K=4: 2.3 µs per draw
    against 4.2 µs).  A CDF that ends below ``u`` is clamped to the last
    index.
    """
    u = rng.random()
    idx = int(probs.cumsum().searchsorted(u, "right"))
    return min(idx, len(probs) - 1)


def check_simplex(probs) -> np.ndarray:
    """Validate a probability vector and return it renormalized and read-only.

    Accepts vectors whose sum deviates from 1 by at most ``SIMPLEX_ATOL``
    (and whose entries are at least ``-SIMPLEX_ATOL``); anything worse is
    rejected.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        raise ValueError("probs must be a non-empty 1-d vector")
    if not np.all(np.isfinite(probs)):
        raise ValueError("probs must be finite")
    if np.any(probs < -SIMPLEX_ATOL):
        raise ValueError(f"negative probability entry: {float(probs.min())}")
    total = float(probs.sum())
    if abs(total - 1.0) > SIMPLEX_ATOL:
        raise ValueError(f"probabilities sum to {total!r}, expected 1 within {SIMPLEX_ATOL}")
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    probs.flags.writeable = False
    return probs


@dataclass(frozen=True, eq=False)  # a generated __eq__ or __hash__ would fail on the probs array
class ActionDistribution:
    """Probability vector over the K actions, validated by :func:`check_simplex`."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", check_simplex(self.probs))

    @property
    def num_actions(self) -> int:
        return int(self.probs.size)

    @classmethod
    def uniform(cls, num_actions: int) -> "ActionDistribution":
        return cls(np.full(num_actions, 1.0 / num_actions))

    def sample(self, rng: np.random.Generator) -> ActionIndex:
        """Draw a 1-based action, consuming one uniform."""
        return sample_index(self.probs, rng) + 1


@dataclass(frozen=True)
class EstimatedCost:
    """Discretized importance-weighted cost estimate, in coin units.

    A realized estimate is either the zero vector (``coordinate == 0``) or
    one coin at exactly one action's coordinate; no other values occur.
    Keeping the coordinate instead of a dense vector makes the invariant
    structural; a coin is worth the learner config's ``scale``.
    """

    coordinate: int  # 0 for the zero vector, else the 1-based action

    def __post_init__(self) -> None:
        if self.coordinate < 0:
            raise ValueError(f"coordinate must be >= 0, got {self.coordinate}")


@dataclass(frozen=True)
class HistoryRecord:
    """One completed round of any learner: what was seen, played, observed and estimated.

    ``estimate`` is the discretized cost estimate of the relaxation learner,
    and ``None`` for a learner that keeps none (Exp4, uniform play).
    """

    context: Context
    played_dist: ActionDistribution
    played_action: ActionIndex
    observed_cost: float
    estimate: EstimatedCost | None

    def __post_init__(self) -> None:
        k = self.played_dist.num_actions
        if not 1 <= self.played_action <= k:
            raise ValueError(f"played action {self.played_action} outside 1..{k}")
        if not 0.0 <= self.observed_cost <= 1.0:
            raise ValueError(f"observed cost {self.observed_cost} outside [0, 1]")
        if self.estimate is not None and self.estimate.coordinate not in (0, self.played_action):
            raise ValueError("estimate coordinate must be 0 or the played action")


def draw_estimator_coin(cost: float, prob: float, scale: float, rng: np.random.Generator) -> int:
    """Draw the Bernoulli coin behind a discretized cost estimate.

    Returns 1 with probability ``cost / (scale * prob)``, where ``prob`` is
    the probability with which the played action was drawn.  The play
    distribution keeps ``prob >= 1/scale``, so the success probability never
    exceeds 1 (a float-epsilon excess is clamped).  Consumes one uniform.
    """
    if not 0.0 <= cost <= 1.0:
        raise ValueError(f"cost {cost} outside [0, 1]")
    if prob < 1.0 / scale - FLOOR_ATOL:
        raise ValueError(f"action probability {prob} below the 1/scale floor {1.0 / scale}")
    p = min(cost / (scale * prob), 1.0)
    return int(rng.random() < p)


def build_estimate(played: ActionIndex, coin: int) -> EstimatedCost:
    """Assemble the estimate for one round from the played action and its coin."""
    if played < 1:
        raise ValueError(f"played action must be >= 1, got {played}")
    if coin not in (0, 1):
        raise ValueError(f"coin must be 0 or 1, got {coin}")
    return EstimatedCost(coordinate=played if coin else 0)
