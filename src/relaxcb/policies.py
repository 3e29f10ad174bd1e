"""Finite policy classes and the offline cumulative-loss optimization oracle.

Policies are deterministic maps from context ids to actions, stored as an
explicit ``(num_policies, num_contexts)`` lookup table.  The oracle answers
one query: the minimum cumulative loss any single policy attains on a
weighted example sequence.  It is exact enumeration and every invocation is
counted, because the learner's efficiency claim is measured in oracle calls.

Policies depend on the context id only, so a query is the (U, K) matrix
whose row u sums the losses of the examples at context u.  Queries are int64
(the learner asks in units of its estimate scale), so every sum is exact in
any order and the answer is an exact ``int``.  A flat gather reads each
policy's cells through an ``(N, U)`` offset table built once per oracle.
:func:`best_policy_loss`, the comparator on real costs, sums a (T,) context
sequence into a float (U, K) matrix instead (:func:`context_action_sums`).

A learner's round asks one base query and then K charged queries, each the
base plus one cell.  So an oracle over a large table (``N * U`` at least
:data:`REMEMBER_MIN_CELLS`) remembers its last full query and every
policy's total.  A query that differs from it in one cell by ``delta``
changes exactly the totals of that cell's readers, by ``delta`` each:
``last_totals + delta * readers``.  Any other query runs the full gather
and is remembered.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .core import Context

#: Smallest table (N * U cells) for which an oracle remembers its last full
#: query; on smaller tables the bookkeeping costs more than it saves.  Timed
#: as base + K charged queries (2-core Intel Xeon, numpy 2.4, K=2 and 5): it
#: broke even near 2000 cells at U=10 and 4000 at U=50, cost 40-70% more at
#: 500 cells, and saved 25-55% at 8192 and 55-78% at 250000.
REMEMBER_MIN_CELLS = 8192


@dataclass(frozen=True, eq=False)  # a generated __eq__ or __hash__ would fail on the table array
class PolicyClass:
    """Deterministic policies as an explicit action lookup table.

    ``table[p, x]`` is the 1-based action policy ``p`` plays on context ``x``.
    """

    table: np.ndarray
    num_actions: int

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=np.int64)
        if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] < 1:
            raise ValueError(f"policy table must be 2-d and non-empty, got shape {table.shape}")
        if self.num_actions < 1:
            raise ValueError("num_actions must be >= 1")
        if table.min() < 1 or table.max() > self.num_actions:
            raise ValueError(f"table entries must lie in 1..{self.num_actions}")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @property
    def num_policies(self) -> int:
        return int(self.table.shape[0])

    @property
    def num_contexts(self) -> int:
        return int(self.table.shape[1])

    def actions_for(self, context: Context) -> np.ndarray:
        """Every policy's action on one context, as an (N,) vector."""
        return self.table[:, context]


def random_policy_class(
    num_policies: int,
    num_contexts: int,
    num_actions: int,
    rng: np.random.Generator,
) -> PolicyClass:
    """Draw a uniformly random policy table.

    Resamples until every action is played by some policy on some context,
    so comparators are never degenerate; raises ``ValueError`` after 100
    tables.
    """
    if num_policies * num_contexts < num_actions:
        raise ValueError("table too small to cover every action")
    for _ in range(100):
        table = rng.integers(1, num_actions + 1, size=(num_policies, num_contexts))
        if np.unique(table).size == num_actions:
            return PolicyClass(table=table, num_actions=num_actions)
    raise ValueError("no action-covering table found in 100 tries")


def context_action_sums(contexts: np.ndarray, values: np.ndarray, num_contexts: int) -> np.ndarray:
    """Sum the (m, K) rows of ``values`` by context id into a (U, K) matrix.

    One ``bincount`` over the flattened cells ``context * K + action``.  Each
    cell adds its rows in input order, exactly as a per-action ``bincount``
    would.  Context ids must lie in ``0..num_contexts-1``.
    """
    num_actions = values.shape[1]
    cells = contexts[:, None] * num_actions + np.arange(num_actions)
    sums = np.bincount(cells.ravel(), weights=values.ravel(), minlength=num_contexts * num_actions)
    return sums.reshape(num_contexts, num_actions)


class OracleStats:
    """Thread-safe count of oracle invocations (monotone non-decreasing)."""

    def __init__(self) -> None:
        self._calls = 0
        self._lock = threading.Lock()

    @property
    def calls(self) -> int:
        return self._calls

    def increment(self) -> None:
        with self._lock:
            self._calls += 1


class ValueOracle:
    """Offline optimization oracle over a finite policy class.

    Exposes only the *value* of the best policy on a weighted example
    sequence, never the policy itself.  Each call increments ``stats.calls``
    by exactly one, whether it answers or rejects the query.

    On a table of at least :data:`REMEMBER_MIN_CELLS` cells the oracle keeps
    its last full query as one ``(cells, totals)`` tuple, replaced in a
    single assignment and never mutated.  A call reads it once, so under
    concurrent calls each answer comes from the snapshot it was compared
    with and stays exact.
    """

    def __init__(self, policy_class: PolicyClass) -> None:
        self.policy_class = policy_class
        self.stats = OracleStats()
        # (N, U) offsets into the flat (U * K) per-context loss vector:
        # policy p at context u reads cell u * K + table[p, u] - 1.
        flat = policy_class.table - 1
        flat += np.arange(policy_class.num_contexts) * policy_class.num_actions
        self._flat = flat
        self._shape = (policy_class.num_contexts, policy_class.num_actions)
        self._remember = flat.size >= REMEMBER_MIN_CELLS
        self._last: tuple[np.ndarray, np.ndarray] | None = None

    def value_arrays(self, losses: np.ndarray) -> int:
        """Best cumulative loss over the class on the (U, K) int64 matrix ``losses``.

        Row u holds the losses at context u; another shape raises ``ValueError``,
        another dtype ``TypeError``.  A remembered query is copied, never a view.
        """
        self.stats.increment()
        if losses.shape != self._shape:
            raise ValueError(f"losses has shape {losses.shape}, expected {self._shape}")
        if losses.dtype != np.int64:
            raise TypeError(f"losses must be an int64 matrix, got {losses.dtype}")
        cells = losses.ravel()
        last = self._last  # one read: the answer comes from the snapshot it is compared with
        if last is not None:
            last_cells, last_totals = last
            changed = np.flatnonzero(cells != last_cells)
            if changed.size == 1:
                cell = int(changed[0])
                readers = self._flat[:, cell // self._shape[1]] == cell
                return int((last_totals + int(cells[cell] - last_cells[cell]) * readers).min())
        totals = cells.take(self._flat).sum(axis=1)
        if self._remember:
            self._last = (cells.copy(), totals)
        return int(totals.min())


def best_policy_loss(policy_class: PolicyClass, contexts, costs) -> float:
    """Exact hindsight comparator: the best policy's cumulative true cost.

    Computed by full enumeration over the class; this is the ground truth
    regret is reported against.
    """
    contexts = np.asarray(contexts, dtype=np.int64)
    costs = np.asarray(costs, dtype=float)
    if contexts.ndim != 1:
        raise ValueError("contexts must be a 1-d sequence of ids")
    if len(contexts) != len(costs):
        raise ValueError(f"{len(contexts)} contexts but {len(costs)} cost vectors")
    if len(contexts) == 0:
        return 0.0
    if costs.ndim != 2 or costs.shape[1] != policy_class.num_actions:
        raise ValueError(f"costs has shape {costs.shape}, expected (T, {policy_class.num_actions})")
    num_contexts = policy_class.num_contexts
    if contexts.min() < 0 or contexts.max() >= num_contexts:
        raise ValueError("context id outside the policy class universe")
    per_context = context_action_sums(contexts, costs, num_contexts)
    per_policy = per_context[np.arange(num_contexts)[None, :], policy_class.table - 1].sum(axis=1)
    return float(per_policy.min())
