"""Context sources and oblivious cost adversaries.

Cost schedules are materialized in full before a run starts, so they are
structurally independent of the learner's actions.  Context universes stay
small so exhaustive policy tables remain tractable.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .core import check_simplex, sample_index
from .policies import PolicyClass

ADVERSARY_TYPES = ("stochastic-gap", "drifting", "policy-targeted")


@dataclass(frozen=True, eq=False)  # a generated __eq__ or __hash__ would fail on the probs array
class ContextDistribution:
    """Distribution over a finite universe of context ids ``0..U-1``."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", check_simplex(self.probs))

    @property
    def num_contexts(self) -> int:
        return int(self.probs.size)

    @classmethod
    def uniform(cls, num_contexts: int) -> "ContextDistribution":
        return cls(np.full(num_contexts, 1.0 / num_contexts))

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw context ids by inverse-CDF lookup, one uniform per draw."""
        if size is None:
            return sample_index(self.probs, rng)
        u = rng.random(size)
        cdf = np.cumsum(self.probs)
        idx = np.searchsorted(cdf, u, side="right")
        return np.minimum(idx, self.num_contexts - 1).astype(np.int64)


@dataclass(frozen=True, eq=False)  # a generated __eq__ or __hash__ would fail on the ids array
class ContextSequence:
    """The known context ids of rounds 1..T (transductive), checked once and kept read-only as int64."""

    ids: np.ndarray
    num_contexts: int

    def __post_init__(self) -> None:
        ids, u = np.asarray(self.ids), self.num_contexts
        if ids.ndim != 1 or ids.size == 0 or not np.issubdtype(ids.dtype, np.integer):
            raise ValueError(f"context ids need a non-empty 1-d integer array, got {ids.dtype} {ids.shape}")
        outside = ids[(ids < 0) | (ids >= u)]
        if outside.size:
            raise ValueError(f"known context id {outside[0]} outside 0..{u - 1} of a {u}-context class")
        object.__setattr__(self, "ids", ids.astype(np.int64))
        self.ids.flags.writeable = False


@dataclass(frozen=True, eq=False)  # a generated __eq__ or __hash__ would fail on the costs array
class CostSchedule:
    """A full horizon of cost vectors, fixed before the run (oblivious)."""

    costs: np.ndarray  # (T, K), entries in [0, 1]

    def __post_init__(self) -> None:
        costs = np.asarray(self.costs, dtype=float)
        if costs.ndim != 2 or costs.shape[0] < 1:
            raise ValueError(f"costs must be a (T, K) matrix, got shape {costs.shape}")
        if not np.all(np.isfinite(costs)) or costs.min() < 0.0 or costs.max() > 1.0:
            raise ValueError("cost entries must lie in [0, 1]")
        costs.flags.writeable = False
        object.__setattr__(self, "costs", costs)

    def cost(self, t: int, action: int) -> float:
        return float(self.costs[t - 1, action - 1])


def make_adversary(
    spec: dict,
    policy_class: PolicyClass,
    horizon: int,
    rng: np.random.Generator,
) -> CostSchedule:
    """Materialize an oblivious cost schedule.

    Supported ``spec["type"]`` values:

    * ``stochastic-gap`` -- one hidden action's costs are uniform on
      ``[0, 1-delta]``, all others uniform on ``[delta, 1]``, i.i.d. per
      round, so the hidden action is better by ``delta`` in expectation.
    * ``drifting`` -- the cheap action (cost 0.25 vs 0.75) rotates through
      the actions, advancing one step every ``period`` rounds.
    * ``policy-targeted`` -- a hidden action costs ``(1-delta)/2`` every
      round while each other action alternates, phase by phase, between
      ``(1+delta)/2`` and a higher clamped level; any policy playing the
      hidden action everywhere is best by at least ``delta`` per round.
    """
    kind = spec.get("type")
    k = policy_class.num_actions
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if kind == "stochastic-gap":
        delta = _get_delta(spec)
        target = int(rng.integers(1, k + 1))
        raw = rng.random((horizon, k))
        costs = delta + raw * (1.0 - delta)
        costs[:, target - 1] = raw[:, target - 1] * (1.0 - delta)
        return CostSchedule(costs)
    if kind == "drifting":
        period = _get_period(spec)
        costs = np.full((horizon, k), 0.75)
        rounds = np.arange(horizon)
        cheap = (rounds // period) % k
        costs[rounds, cheap] = 0.25
        return CostSchedule(costs)
    if kind == "policy-targeted":
        delta = _get_delta(spec)
        period = _get_period(spec)
        target = int(rng.integers(1, k + 1))
        base = (1.0 - delta) / 2.0
        costs = np.empty((horizon, k))
        costs[:, target - 1] = base
        phases = np.arange(horizon) // period
        for a in range(1, k + 1):
            if a == target:
                continue
            # Decoy level flips with the phase parity so which non-target
            # actions look second-best keeps changing.
            high = (phases + a) % 2 == 0
            costs[:, a - 1] = np.where(high, min(1.0, base + delta + 0.25), base + delta)
        return CostSchedule(costs)
    raise ValueError(f"unknown adversary type {kind!r}, expected one of {ADVERSARY_TYPES}")


def _get_delta(spec: dict) -> float:
    """``spec["delta"]``: a number in [0, 1] by ``harness.validate_config``'s rule (a bool is none)."""
    delta = spec.get("delta")
    if isinstance(delta, bool) or not isinstance(delta, numbers.Real) or not 0.0 <= delta <= 1.0:
        raise ValueError(f"adversary delta must be a number in [0, 1], got {delta!r}")
    return float(delta)


def _get_period(spec: dict) -> int:
    """``spec["period"]``: an integer >= 1 by ``harness.validate_config``'s rule (a bool is none)."""
    period = spec.get("period")
    if isinstance(period, bool) or not isinstance(period, numbers.Integral) or period < 1:
        raise ValueError(f"adversary period must be a positive integer, got {period!r}")
    return int(period)
