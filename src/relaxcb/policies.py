"""Finite policy classes and the offline cumulative-loss optimization oracle.

Policies are deterministic maps from context ids to actions, stored as an
explicit ``(num_policies, num_contexts)`` lookup table.  Its context-major
0-based transpose, :attr:`PolicyClass.by_context`, is built once per class;
the oracle, the harness's comparator, Exp4 and the perturbation check read
it.  The oracle answers one query, the least cumulative loss any policy
attains on a weighted example sequence, by exact enumeration, and counts
every call: the learner's efficiency claim is measured in oracle calls.

Policies depend on the context id only, so a query is the (U, K) matrix
whose row u sums the losses of the examples at context u.  Queries are int64
(the learner asks in units of its estimate scale), and a cell may use at
most a U-th of int64's range, so every sum is exact in any order and the
answer is an exact ``int``.  A full query groups the U contexts into blocks
of g (:func:`_block_size`).  For each block it builds the table of all
``K**g`` sums of the block's cells with broadcast adds.  A ``(ceil(U / g),
N)`` index, built once per oracle, then gathers each policy's entry of every
block, and the rows are summed.  At g = 1 the table is the query itself
and the index is ``by_context`` plus each row's offset.

A learner's round asks one base query and then K charged queries, each the
base plus one cell (x, a).  So an oracle over a large table (``N * U`` at
least :data:`REMEMBER_MIN_CELLS`) remembers its last full query and every
policy's total.  A query that differs from it in one cell by ``delta``
changes exactly the totals of the policies playing a at x, by ``delta``
each.  With ``mins[b]``, the least remembered total among the policies
playing b at x, the answer is ``min(mins[a] + delta, min over b != a of
mins[b])``; the K minima of a column are computed once per remembered
query and column.  Any other query runs the full gather and is remembered.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

#: Smallest table (N * U cells) for which an oracle remembers its last full
#: query; on smaller tables the bookkeeping can cost more than it saves.
#: Timed as base + K charged queries with a new base each round (2-core
#: shared x86 host, numpy 2.4, U=2, 10 and 50): with column minima the
#: memory broke even near 2000 cells at K=2 (costing 5-27% below that) and
#: near 250 cells at K=5, and saved 8-29% (K=2) and 40-49% (K=5) at 8192.
REMEMBER_MIN_CELLS = 8192

#: Smallest table (N * U cells) whose full queries use blocks of more than
#: one context (:func:`_block_size`).  A table build adds about g numpy
#: calls; timed per full query (same host, K=2 and 5, U=10 and 50), g = 2
#: broke even near 8000 cells, lost up to 2x at 500, and won 30-40% from
#: 32000 cells on.
BLOCK_MIN_CELLS = 8192

_INT64_MAX = int(np.iinfo(np.int64).max)


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

    @functools.cached_property  # not a field, so it stays out of the dataclass's repr and fields
    def by_context(self) -> np.ndarray:
        """Read-only C-contiguous (U, N) int64 ``table.T - 1``: row x is every policy's 0-based action at x."""
        actions = np.subtract(self.table.T, 1, order="C")
        actions.flags.writeable = False
        return actions


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
        if np.bincount(table.ravel(), minlength=num_actions + 1)[1:].all():
            return PolicyClass(table=table, num_actions=num_actions)
    raise ValueError("no action-covering table found in 100 tries")


def _block_size(num_policies: int, num_contexts: int, num_actions: int) -> int:
    """Contexts per lookup-table block of an oracle over an (N, U) table with K actions.

    1 below :data:`BLOCK_MIN_CELLS` cells.  Otherwise the largest g, up to
    4 and to U, whose block table of ``K**g`` entries is at most a quarter
    of an index row of N: a full query then gathers ``ceil(U / g)`` entries
    per policy instead of U, and each table costs less than a quarter of
    the row it saves.  Timed at N=5000, U=50, K=5 (the ``wide_class``
    shape), a full query took 350-590 µs at g = 1, 186-225 at g = 2,
    126-194 at g = 3 and 102-170 at g = 4.
    """
    if num_policies * num_contexts < BLOCK_MIN_CELLS:
        return 1
    g = 1
    while g < min(4, num_contexts) and 4 * num_actions ** (g + 1) <= num_policies:
        g += 1
    return g


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

    Exposes only ``shape``, the (U, K) shape of a query, and the *value* of
    the best policy on a query, never the policy itself.  Each call
    increments ``stats.calls`` by exactly one, answered or rejected.

    A full query is answered through context blocks of ``g`` contexts
    (:func:`_block_size`): for each block a lookup table of all ``K**g``
    sums of the query's cells, and a contiguous ``(ceil(U / g), N)`` index
    whose row b gives each policy's entry in block b's table, built once
    from the class's :attr:`PolicyClass.by_context`.

    On a table of at least :data:`REMEMBER_MIN_CELLS` cells the oracle keeps
    its last full query as one ``(cells, totals)`` tuple, and the per-action
    minima of those totals over one context, grouped by that context's row
    of ``by_context``, as one ``(snapshot, context, mins, rest)`` tuple.
    Each is replaced in a single assignment and never mutated, and the
    minima are used only while their snapshot is the one a call read, so
    under concurrent calls each answer stays exact.
    """

    def __init__(self, policy_class: PolicyClass) -> None:
        self.policy_class = policy_class
        self.stats = OracleStats()
        n, u, k = policy_class.num_policies, policy_class.num_contexts, policy_class.num_actions
        self.shape = (u, k)
        self._bound = _INT64_MAX // u  # U cells this large sum to at most 2**63 - 1
        self._block = g = _block_size(n, u, k)
        blocks = -(-u // g)
        self._pad = np.zeros((blocks * g - u) * k, dtype=np.int64)  # cells of contexts filling the last block
        # row b: each policy's entry in block b's table, b * K**g plus the
        # block's 0-based actions as base-K digits (a filling context's is 0)
        index = np.zeros((blocks, n), dtype=np.int64)
        for j in range(g):
            index *= k
            rows = policy_class.by_context[j::g]
            index[: len(rows)] += rows
        index += (np.arange(blocks) * k**g)[:, None]
        self._index = index
        self._remember = n * u >= REMEMBER_MIN_CELLS
        self._last: tuple[np.ndarray, np.ndarray] | None = None
        self._column: tuple = (None, None, None, None)  # (snapshot, context, mins, rest)

    def value_arrays(self, losses: np.ndarray) -> int:
        """Best cumulative loss over the class on the (U, K) int64 matrix ``losses``.

        Row u holds the losses at context u; another shape, or a cell outside
        ``±(2**63 - 1) // U`` (where a policy's total could overflow int64),
        raises ``ValueError``, another dtype ``TypeError``.  A remembered query
        is copied, never a view.
        """
        self.stats.increment()
        if losses.shape != self.shape:
            raise ValueError(f"losses has shape {losses.shape}, expected {self.shape}")
        if losses.dtype != np.int64:
            raise TypeError(f"losses must be an int64 matrix, got {losses.dtype}")
        cells = losses.ravel()
        last = self._last  # one read: the answer comes from the snapshot it is compared with
        if last is not None:
            last_cells, last_totals = last
            changed = (cells != last_cells).nonzero()[0]  # np.flatnonzero without its wrapper's cost
            if changed.size == 1:  # the remembered query passed the bound; check the new cell only
                cell = int(changed[0])
                value = int(cells[cell])
                if abs(value) > self._bound:
                    raise ValueError(self._out_of_bounds())
                x, a = divmod(cell, self.shape[1])
                column = self._column
                if column[0] is not last or column[1] != x:
                    column = (last, x, *self._column_minima(last_totals, x))
                    self._column = column
                _, _, mins, rest = column
                return min(mins[a] + (value - int(last_cells[cell])), rest[a])
        if np.maximum.reduce(np.abs(cells).view(np.uint64)) > self._bound:  # abs(-2**63) is 2**63 unsigned
            raise ValueError(self._out_of_bounds())
        totals = np.add.reduce(self._block_tables(cells).take(self._index))
        if self._remember:
            self._last = (cells.copy(), totals)
        return int(np.minimum.reduce(totals))

    def _block_tables(self, cells: np.ndarray) -> np.ndarray:
        """Every block's ``K**g`` sums of its contexts' cells, one block after another.

        Row-major over the block's actions, so entry ``sum_j a_j * K**(g-1-j)``
        of block b sums cell ``a_j`` of its j-th context.  The contexts that
        pad the last block to ``g`` read zeros.
        """
        g = self._block
        if g == 1:
            return cells
        k = self.shape[1]
        rows = np.concatenate((cells, self._pad)).reshape(-1, g, k)
        tables = rows[:, g - 1]
        for j in range(g - 2, -1, -1):
            tables = (rows[:, j, :, None] + tables[:, None, :]).reshape(len(rows), -1)
        return tables.ravel()

    def _column_minima(self, totals: np.ndarray, x: int) -> tuple[list, list]:
        """Per action a, the least of ``totals`` over the policies playing a at ``x`` and over all others.

        Returns ``(mins, rest)`` as Python numbers (``inf`` where no policy
        is left), so a charged answer ``min(mins[a] + delta, rest[a])`` is
        exact.
        """
        actions = self.policy_class.by_context[x]
        least = np.full(self.shape[1], _INT64_MAX)
        np.minimum.at(least, actions, totals)
        mins = [
            m if m < _INT64_MAX or (actions == a).any() else math.inf  # no policy plays a at x
            for a, m in enumerate(least.tolist())
        ]
        low, second = sorted([*mins, math.inf])[:2]
        return mins, [second if m == low else low for m in mins]

    def _out_of_bounds(self) -> str:
        return f"a query cell lies outside ±{self._bound}, where a policy's total could overflow int64"
