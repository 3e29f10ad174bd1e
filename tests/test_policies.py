"""Policy classes and the value oracle.

The loop references here (``loop_value``, ``exactness_instances``) also
check the hindsight comparator, whose tests live in ``test_verify.py``.
"""

import sys
import threading

import numpy as np
import pytest

from relaxcb import (
    PolicyClass,
    ValueOracle,
    random_policy_class,
)
from relaxcb import policies
from relaxcb.learner import future_loss_matrix
from relaxcb.policies import REMEMBER_MIN_CELLS


def action_of(policy_class, policy, context):
    """The 1-based action ``policy`` plays on ``context``."""
    return int(policy_class.table[policy, context])


def brute_force_value(policy_class, contexts, losses):
    """Reference oracle: plain double loop over policies and examples, in the losses' own type."""
    best = None
    for p in range(policy_class.num_policies):
        total = 0
        for x, loss in zip(contexts, losses):
            total += loss[action_of(policy_class, p, x) - 1].item()
        best = total if best is None else min(best, total)
    return best if best is not None else 0


def per_context_counts(contexts, losses, num_contexts):
    """An integer example sequence summed into the (U, K) int64 query, one example at a time."""
    query = np.zeros((num_contexts, losses.shape[1]), dtype=np.int64)
    np.add.at(query, contexts, losses)
    return query


def loop_query_value(policy_class, query):
    """Reference answer to a (U, K) integer query: a loop over contexts adds each policy's cell."""
    totals = sum(query[x, policy_class.table[:, x] - 1] for x in range(policy_class.num_contexts))
    return int(totals.min())


def loop_per_context(contexts, values, num_contexts):
    """Reference aggregation: one ``bincount`` per action column."""
    per_context = np.empty((num_contexts, values.shape[1]))
    for a in range(values.shape[1]):
        per_context[:, a] = np.bincount(contexts, weights=values[:, a], minlength=num_contexts)
    return per_context


def loop_value(policy_class, contexts, losses):
    """Reference oracle value: per-action aggregation, then a 2-d index gather."""
    if len(contexts) == 0:
        return 0.0
    u = policy_class.num_contexts
    per_context = loop_per_context(contexts, losses, u)
    return float(per_context[np.arange(u)[None, :], policy_class.table - 1].sum(axis=1).min())


def exactness_instances(rng):
    """Random (class, contexts, losses) instances for bit-for-bit comparisons.

    Covers K = 2 and 5, N up to 5000, empty sequences, repeated and
    unordered contexts, and losses that are views into a larger array.
    """
    shapes = [(3, 2, 2), (7, 4, 2), (40, 10, 5), (500, 20, 2), (5000, 50, 5)]
    for n, u, k in shapes:
        pc = random_policy_class(n, u, k, rng)
        for m in (0, 1, u, 3 * u + 1):
            contexts = rng.integers(0, u, size=m)  # repeats, any order
            wide = rng.normal(size=(m, 2 * k)) * 10.0 ** rng.integers(-3, 4, size=(m, 1))
            yield pc, contexts, np.ascontiguousarray(wide[:, :k])
            yield pc, contexts, wide[:, ::2]  # non-contiguous rows and columns


class TestFlatAggregationExactness:
    """The oracle's block gather and the future matrix equal their loops exactly."""

    def test_value_arrays(self):
        # an integer example sequence, summed per context, answers as the loop over examples
        for pc, contexts, losses in exactness_instances(np.random.default_rng(12)):
            oracle = ValueOracle(pc)
            ints = np.rint(losses * 100.0).astype(np.int64)
            query = per_context_counts(contexts, ints, pc.num_contexts)
            assert oracle.value_arrays(query) == loop_value(pc, contexts, ints)
            assert oracle.stats.calls == 1

    def test_value_arrays_on_every_context_once(self):
        # the learner's query: contexts = arange(U), one aggregated row each
        rng = np.random.default_rng(13)
        for n, u, k in [(4, 2, 2), (50, 10, 5), (5000, 50, 5)]:
            pc = random_policy_class(n, u, k, rng)
            for _ in range(5):
                query = rng.integers(-(10**6), 10**6, size=(u, k))
                assert ValueOracle(pc).value_arrays(query) == loop_query_value(pc, query)

    def test_future_loss_matrix(self):
        rng = np.random.default_rng(15)
        for u, k in [(2, 2), (10, 5), (50, 5)]:
            for n in (0, 1, 40, 700):
                counts = rng.integers(0, n + 1, size=u)
                rho = 2 * rng.binomial(counts[:, None], 0.5, size=(u, k)) - counts[:, None]
                expected = np.array([[2 * int(rho[x, a]) for a in range(k)] for x in range(u)])
                got = future_loss_matrix(rho)
                assert got.dtype == np.int64 and np.array_equal(got, expected)


def sized_classes(rng, k):
    """Classes one row below and exactly at the memory threshold."""
    for u in (4, 16):
        for n in (REMEMBER_MIN_CELLS // u - 1, REMEMBER_MIN_CELLS // u):
            yield random_policy_class(n, u, k, rng)


class TestIncrementalOracle:
    """The oracle remembers a full query's totals, and only at or above the threshold."""

    def test_base_then_charges_on_both_sides_of_the_threshold(self):
        rng = np.random.default_rng(21)
        for k in (2, 5):
            for pc in sized_classes(rng, k):
                oracle = ValueOracle(pc)
                u = pc.num_contexts
                for _ in range(4):
                    base = rng.integers(-3000, 3000, size=(u, k))
                    assert oracle.value_arrays(base) == loop_query_value(pc, base)
                    snapshot = oracle._last
                    if pc.num_policies * u >= REMEMBER_MIN_CELLS:
                        assert np.array_equal(snapshot[0], base.ravel())
                    else:
                        assert snapshot is None
                    x = int(rng.integers(u))
                    for a in range(k):
                        charged = base.copy()
                        charged[x, a] += 1
                        assert oracle.value_arrays(charged) == loop_query_value(pc, charged)
                        assert oracle._last is snapshot  # a charged query leaves the memory alone


class TestMatrixQuery:
    """Integer queries ``value_arrays(M)`` answer as the loop over the policy table, exactly."""

    def both(self, pc, oracle, query):
        """Ask the oracle once; checks the count and returns the answer with the loop's."""
        before = oracle.stats.calls
        got = oracle.value_arrays(query)
        assert oracle.stats.calls == before + 1
        assert type(got) is int
        return got, loop_query_value(pc, query)

    def ask(self, oracle, query):
        """One query that must equal the loop reference."""
        got, expected = self.both(oracle.policy_class, oracle, query)
        assert got == expected
        return got

    @pytest.mark.parametrize("k", [2, 5])
    def test_random_tables(self, k):
        rng = np.random.default_rng(31)
        for n, u in [(3, 2), (40, 10), (500, 20), (5000, 50)]:
            pc = random_policy_class(n, u, k, rng)
            for _ in range(5):
                query = rng.integers(-1000, 1000, size=(u, k)) * 10 ** rng.integers(0, 12, size=(u, 1))
                self.ask(ValueOracle(pc), query)
            wide = rng.integers(-1000, 1000, size=(u, 2 * k))
            self.ask(ValueOracle(pc), wide[:, ::2])  # a non-contiguous matrix

    @pytest.mark.parametrize("k", [2, 5])
    def test_base_then_charges_on_both_sides_of_the_threshold(self, k):
        rng = np.random.default_rng(33)
        for pc in sized_classes(rng, k):
            oracle = ValueOracle(pc)
            u = pc.num_contexts
            for _ in range(3):
                base = rng.integers(-3000, 3000, size=(u, k))
                self.ask(oracle, base)
                x = int(rng.integers(u))
                for a in range(k):
                    # the learner's one coin, or any other one-cell change up or down
                    for delta in (1, int(rng.integers(-(10**9), 10**9))):
                        charged = base.copy()
                        charged[x, a] += delta
                        self.ask(oracle, charged)

    def test_repeat_two_cells_and_new_base(self):
        rng = np.random.default_rng(22)
        pc = random_policy_class(REMEMBER_MIN_CELLS // 8, 8, 5, rng)
        oracle = ValueOracle(pc)
        base = rng.integers(-50, 50, size=(8, 5))
        self.ask(oracle, base)
        self.ask(oracle, base.copy())  # no cell differs: a full gather
        two = base.copy()
        two[1, 0] += 7
        two[5, 3] += 7
        self.ask(oracle, two)  # two cells differ: a full gather, remembered
        assert np.array_equal(oracle._last[0], two.ravel())
        fresh = rng.integers(-50, 50, size=(8, 5))
        self.ask(oracle, fresh)
        charged = fresh.copy()
        charged[2, 4] += 1
        self.ask(oracle, charged)

    @pytest.mark.parametrize("k", [2, 5])
    def test_cell_read_by_no_policy_and_by_every_policy(self, k):
        rng = np.random.default_rng(23)
        n, u = REMEMBER_MIN_CELLS // 4, 4
        table = rng.integers(1, k + 1, size=(n, u))
        table[:, 0] = rng.integers(1, k, size=n)  # nobody plays action k on context 0
        table[:, 1] = 1  # everybody plays action 1 on context 1
        oracle = ValueOracle(PolicyClass(table=table, num_actions=k))
        base = rng.integers(-50, 50, size=(u, k))
        for x, a in [(0, k - 1), (1, 0)]:
            low = self.ask(oracle, base)
            charged = base.copy()
            charged[x, a] += 5
            assert self.ask(oracle, charged) == low + (5 if x == 1 else 0)

    def test_caller_mutating_the_matrix_after_the_call(self):
        # the memory must hold its own copy: had it kept a view of ``base``,
        # the next query, one cell off the mutated matrix, would be answered
        # from totals of the unmutated one
        rng = np.random.default_rng(34)
        u, k = 8, 5
        pc = random_policy_class(REMEMBER_MIN_CELLS // u, u, k, rng)
        oracle = ValueOracle(pc)
        for x1, a1, x2, a2 in [(0, 0, 1, 1), (3, 4, 3, 2), (7, 1, 2, 0)]:
            base = rng.integers(-50, 50, size=(u, k))
            oracle.value_arrays(base)
            base[x1, a1] -= 100  # mutated in place after the call
            charged = base.copy()
            charged[x2, a2] += 1
            self.ask(oracle, charged)

    def test_concurrent_queries_stay_exact(self):
        rng = np.random.default_rng(25)
        pc = random_policy_class(REMEMBER_MIN_CELLS // 8, 8, 5, rng)
        queries = []
        for _ in range(6):
            base = rng.integers(-50, 50, size=(8, 5))
            queries.append(base)
            # two charged columns per base: both the column minima cache and its replacement race
            x1, x2 = rng.choice(8, size=2, replace=False)
            for x, a in [(x1, 0), (x1, 1), (x1, 2), (x2, 3), (x2, 4)]:
                charged = base.copy()
                charged[x, a] += 1
                queries.append(charged)
        expected = [loop_query_value(pc, q) for q in queries]
        oracle = ValueOracle(pc)
        wrong = []

        def worker(offset):
            for i in range(60):
                j = (offset + i) % len(queries)
                if oracle.value_arrays(queries[j]) != expected[j]:
                    wrong.append(j)

        threads = [threading.Thread(target=worker, args=(6 * t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between calls, not every few ms
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert wrong == []
        assert oracle.stats.calls == 240

    def test_wrong_shape_rejected(self):
        pc = PolicyClass(table=np.array([[1, 2], [2, 1], [1, 1]]), num_actions=2)
        oracle = ValueOracle(pc)
        bad_shapes = [(2, 3), (1, 2), (3, 2), (4,)]  # the class is N=3, U=2, K=2
        for calls, shape in enumerate(bad_shapes, start=1):
            with pytest.raises(ValueError, match="shape"):
                oracle.value_arrays(np.zeros(shape, dtype=np.int64))
            assert oracle.stats.calls == calls

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_, np.int32])
    def test_other_dtype_rejected_and_counted(self, dtype):
        pc = PolicyClass(table=np.array([[1, 2], [2, 1], [1, 1]]), num_actions=2)
        oracle = ValueOracle(pc)
        with pytest.raises(TypeError, match="int64"):
            oracle.value_arrays(np.ones((2, 2), dtype=dtype))
        assert oracle.stats.calls == 1
        assert oracle.value_arrays(np.ones((2, 2), dtype=np.int64)) == 2
        assert oracle.stats.calls == 2

    def test_cell_beyond_the_int64_headroom_rejected_and_counted(self):
        # U cells of at most (2**63 - 1) // U each cannot overflow a policy's int64 total
        oracle = ValueOracle(PolicyClass(table=np.array([[1, 1], [2, 2]]), num_actions=2))
        bound = (2**63 - 1) // 2
        for bad in ([[2**62, 0], [2**62, 0]], [[0, 0], [-(2**63), 0]], [[bound + 1, 0], [0, 0]]):
            with pytest.raises(ValueError, match="overflow"):
                oracle.value_arrays(np.array(bad, dtype=np.int64))
        assert oracle.stats.calls == 3
        assert self.ask(oracle, np.array([[bound, 0], [bound, 0]])) == 0
        assert self.ask(oracle, np.array([[-bound, 0], [-bound, 0]])) == -2 * bound

    def test_charged_cell_beyond_the_headroom_rejected_and_counted(self):
        rng = np.random.default_rng(35)
        u, k = 8, 5
        oracle = ValueOracle(random_policy_class(REMEMBER_MIN_CELLS // u, u, k, rng))
        base = rng.integers(-50, 50, size=(u, k))
        self.ask(oracle, base)
        snapshot = oracle._last
        bound = (2**63 - 1) // u
        for value in (bound + 1, -bound - 1, -(2**63)):
            charged = base.copy()
            charged[2, 3] = value
            with pytest.raises(ValueError, match="overflow"):
                oracle.value_arrays(charged)
        assert oracle.stats.calls == 4 and oracle._last is snapshot
        charged[2, 3] = -bound
        self.ask(oracle, charged)


class TestBlockOracle:
    """Block lookup tables and per-action column minima answer as the loop over the table, exactly."""

    def ask(self, oracle, query):
        got = oracle.value_arrays(query)
        assert type(got) is int
        assert got == loop_query_value(oracle.policy_class, query)
        return got

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_full_queries_at_every_block_size(self, monkeypatch, g, k):
        monkeypatch.setattr(policies, "_block_size", lambda n, u, k: g)
        rng = np.random.default_rng(41 + g)
        for u in sorted({g, 5, 7, 2 * g + 1}):  # one block, and U both divisible by g and not
            pc = random_policy_class(60, u, k, rng)
            oracle = ValueOracle(pc)
            assert oracle._block == g
            bound = (2**63 - 1) // u
            for _ in range(4):
                query = rng.integers(-1000, 1000, size=(u, k)) * 10 ** rng.integers(0, 12, size=(u, 1))
                self.ask(oracle, query)
            self.ask(oracle, np.full((u, k), bound))  # the headroom, used up exactly
            self.ask(oracle, np.full((u, k), -bound))

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_charged_queries_from_column_minima(self, monkeypatch, g, k):
        monkeypatch.setattr(policies, "_block_size", lambda n, u, k: g)
        rng = np.random.default_rng(51 + g)
        u = 7
        table = rng.integers(1, k + 1, size=(REMEMBER_MIN_CELLS // u + 1, u))
        table[:, 0] = rng.integers(1, k, size=len(table))  # nobody plays action k on context 0
        table[:, 1] = 1  # everybody plays action 1 on context 1
        oracle = ValueOracle(PolicyClass(table=table, num_actions=k))
        assert oracle._block == g and oracle._remember
        for x1, x2 in [(0, 1), (1, 0), (6, 3)]:  # charged queries on two columns after one base
            base = rng.integers(-3000, 3000, size=(u, k))
            self.ask(oracle, base)
            snapshot = oracle._last
            for x in (x1, x2, x1):
                for a in range(k):
                    for delta in (1, -1, 10**9, -(10**9)):
                        charged = base.copy()
                        charged[x, a] += delta
                        self.ask(oracle, charged)
                        assert oracle._last is snapshot
                        assert oracle._column[:2] == (snapshot, x)

    def test_totals_at_the_top_of_int64(self):
        # 7 divides 2**63 - 1, so every total of the all-bound query is exactly 2**63 - 1;
        # a column minimum that large is a real group, not an empty one
        rng = np.random.default_rng(71)
        u, k = 7, 3
        table = rng.integers(1, k, size=(REMEMBER_MIN_CELLS // u + 1, u))  # nobody plays action 3
        oracle = ValueOracle(PolicyClass(table=table, num_actions=k))
        base = np.full((u, k), (2**63 - 1) // u)
        assert self.ask(oracle, base) == 2**63 - 1
        for a in range(k):
            charged = base.copy()
            charged[4, a] -= 1
            assert self.ask(oracle, charged) == 2**63 - 1 - (a < k - 1)

    @pytest.mark.parametrize("k", [255, 256, 257])
    def test_action_ids_at_the_edge_of_the_action_dtype(self, k):
        # column minima at K = 255..257, with actions K and K - 1 both played
        # at context 0; ask checks every answer against the loop
        rng = np.random.default_rng(k)
        table = rng.integers(1, k + 1, size=(REMEMBER_MIN_CELLS // 2, 2))
        table[:, 0] = k - (np.arange(len(table)) % 2)  # actions K and K - 1 on context 0
        oracle = ValueOracle(PolicyClass(table=table, num_actions=k))
        base = rng.integers(-50, 50, size=(2, k))
        self.ask(oracle, base)
        for a in (k - 2, k - 1):
            charged = base.copy()
            charged[0, a] -= 100
            self.ask(oracle, charged)

    def test_new_base_invalidates_column_minima(self):
        rng = np.random.default_rng(61)
        u, k = 8, 5
        oracle = ValueOracle(random_policy_class(REMEMBER_MIN_CELLS // u, u, k, rng))
        for _ in range(4):
            base = rng.integers(-50, 50, size=(u, k))
            self.ask(oracle, base)
            assert oracle._column[0] is not oracle._last  # the previous base's minima are stale
            for a in range(k):
                charged = base.copy()
                charged[3, a] += 1  # always the same column
                self.ask(oracle, charged)
                assert oracle._column[0] is oracle._last

    def test_block_size_rule(self):
        # acceptance (N=50, U=10, K=5) and verify (N=4, U=2, K=2) shapes run today's gather
        for n, u, k in [(50, 10, 5), (4, 2, 2)]:
            assert ValueOracle(random_policy_class(n, u, k, np.random.default_rng(0)))._block == 1
        assert policies._block_size(5000, 50, 5) == 4  # the wide class
        assert policies._block_size(5000, 3, 5) == 3  # never more than U
        assert policies._block_size(5000, 50, 50) == 1  # a 2-context block needs K**2 = 2500 > N / 4 entries
        assert policies._block_size(REMEMBER_MIN_CELLS // 50 - 1, 50, 2) == 1  # below BLOCK_MIN_CELLS


class TestPolicyClass:
    def test_validates_entries(self):
        with pytest.raises(ValueError, match="entries"):
            PolicyClass(table=np.array([[1, 4]]), num_actions=3)

    def test_shape_and_lookup(self):
        pc = PolicyClass(table=np.array([[1, 2], [2, 1]]), num_actions=2)
        assert pc.num_policies == 2
        assert pc.num_contexts == 2
        assert pc.table[1, 0] == 2
        np.testing.assert_array_equal(pc.by_context[1], [1, 0])

    def test_by_context(self):
        # the oracle, the comparator and Exp4 all read this one context-major action table
        pc = PolicyClass(table=np.array([[1, 3], [2, 1], [3, 3]]), num_actions=3)
        actions = pc.by_context
        np.testing.assert_array_equal(actions, [[0, 1, 2], [2, 0, 2]])
        assert actions.dtype == np.int64 and actions.flags.c_contiguous
        with pytest.raises(ValueError):
            actions[0, 0] = 1
        assert pc.by_context is actions

    def test_table_immutable(self):
        pc = PolicyClass(table=np.array([[1, 2]]), num_actions=2)
        with pytest.raises(ValueError):
            pc.table[0, 0] = 2


class TestRandomPolicyClass:
    def test_covers_all_actions(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pc = random_policy_class(5, 3, 4, rng)
            assert np.unique(pc.table).size == 4

    def test_accepts_the_first_covering_draw(self):
        # at (N, U, K) = (5, 3, 4) about one draw in 19 misses an action and is drawn again
        rng, reference = np.random.default_rng(0), np.random.default_rng(0)
        redraws = 0
        for _ in range(60):
            table = reference.integers(1, 5, size=(5, 3))
            while len(set(table.ravel().tolist())) < 4:
                redraws += 1
                table = reference.integers(1, 5, size=(5, 3))
            np.testing.assert_array_equal(random_policy_class(5, 3, 4, rng).table, table)
        assert redraws > 0

    def test_deterministic_given_seed(self):
        a = random_policy_class(6, 4, 3, np.random.default_rng(5))
        b = random_policy_class(6, 4, 3, np.random.default_rng(5))
        np.testing.assert_array_equal(a.table, b.table)

    def test_impossible_coverage_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            random_policy_class(1, 2, 5, np.random.default_rng(0))


class TestValueOracle:
    def test_two_policy_example(self):
        # constant policies x->1 and x->2; one example with losses (0.3, 0.7)
        pc = PolicyClass(table=np.array([[1], [2]]), num_actions=2)
        oracle = ValueOracle(pc)
        value = oracle.value_arrays(np.array([[3, 7]]))
        assert value == 3

    def test_singleton_class_exact_sum(self):
        pc = PolicyClass(table=np.array([[2, 1, 2]]), num_actions=2)
        oracle = ValueOracle(pc)
        losses = np.array([[1, 9], [5, 8], [4, 2]])  # row x: losses at context x
        assert oracle.value_arrays(losses) == 9 + 5 + 2

    def test_matches_brute_force_on_random_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n, u, k = int(rng.integers(1, 8)), int(rng.integers(1, 6)), int(rng.integers(2, 5))
            pc = PolicyClass(table=rng.integers(1, k + 1, size=(n, u)), num_actions=k)
            oracle = ValueOracle(pc)
            m = int(rng.integers(0, 12))
            contexts = rng.integers(0, u, size=m)
            losses = rng.integers(-100, 100, size=(m, k))
            query = per_context_counts(contexts, losses, u)
            assert oracle.value_arrays(query) == brute_force_value(pc, contexts, losses)

    def test_call_accounting(self):
        pc = PolicyClass(table=np.array([[1, 2]]), num_actions=2)
        oracle = ValueOracle(pc)
        for expect in range(1, 6):
            oracle.value_arrays(np.array([[5, 5], [0, 0]]))
            assert oracle.stats.calls == expect

    def test_concurrent_increments_not_lost(self):
        pc = PolicyClass(table=np.array([[1, 2]]), num_actions=2)
        oracle = ValueOracle(pc)
        losses = np.array([[1, 2], [3, 4]])

        def worker():
            for _ in range(200):
                oracle.value_arrays(losses)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert oracle.stats.calls == 800
