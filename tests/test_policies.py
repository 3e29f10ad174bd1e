"""Policy classes, the value oracle, and the hindsight comparator."""

import sys
import threading

import numpy as np
import pytest

from relaxcb import (
    PolicyClass,
    ValueOracle,
    best_policy_loss,
    random_policy_class,
)
from relaxcb.learner import future_loss_matrix
from relaxcb.policies import REMEMBER_MIN_CELLS, context_action_sums


def action_of(policy_class, policy, context):
    """The 1-based action ``policy`` plays on ``context``."""
    return int(policy_class.table[policy, context])


def brute_force_value(policy_class, contexts, losses):
    """Reference oracle: plain double loop over policies and examples."""
    best = None
    for p in range(policy_class.num_policies):
        total = 0.0
        for x, loss in zip(contexts, losses):
            total += float(loss[action_of(policy_class, p, x) - 1])
        best = total if best is None else min(best, total)
    return best if best is not None else 0.0


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
    """The flat ``bincount`` and flat gather equal the per-action loop exactly."""

    def test_context_action_sums(self):
        for pc, contexts, losses in exactness_instances(np.random.default_rng(11)):
            got = context_action_sums(contexts, losses, pc.num_contexts)
            assert np.array_equal(got, loop_per_context(contexts, losses, pc.num_contexts))

    def test_value_arrays(self):
        for pc, contexts, losses in exactness_instances(np.random.default_rng(12)):
            oracle = ValueOracle(pc)
            matrix = loop_per_context(contexts, losses, pc.num_contexts)
            assert oracle.value_arrays(matrix) == loop_value(pc, contexts, losses)
            assert oracle.stats.calls == 1

    def test_value_arrays_on_every_context_once(self):
        # the learner's query: contexts = arange(U), one aggregated row each
        rng = np.random.default_rng(13)
        for n, u, k in [(4, 2, 2), (50, 10, 5), (5000, 50, 5)]:
            pc = random_policy_class(n, u, k, rng)
            contexts = np.arange(u)
            for _ in range(5):
                losses = rng.normal(size=(u, k)) * 100.0
                assert ValueOracle(pc).value_arrays(losses) == loop_value(pc, contexts, losses)

    def test_best_policy_loss(self):
        for pc, contexts, costs in exactness_instances(np.random.default_rng(14)):
            assert best_policy_loss(pc, contexts, costs) == loop_value(pc, contexts, costs)

    def test_future_loss_matrix(self):
        rng = np.random.default_rng(15)
        for u, k in [(2, 2), (10, 5), (50, 5)]:
            for n in (0, 1, 40, 700):
                scale = float(rng.uniform(k, 3 * k))
                counts = rng.integers(0, n + 1, size=u)
                rho = 2 * rng.binomial(counts[:, None], 0.5, size=(u, k)) - counts[:, None]
                expected = np.array([[2.0 * scale * float(rho[x, a]) for a in range(k)] for x in range(u)])
                assert np.array_equal(future_loss_matrix(rho, scale), expected)


def same_value(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


class TestIncrementalOracle:
    """An oracle that remembers its last full query answers exactly as a fresh one."""

    def ask(self, oracle, losses):
        """One query; checks the count and a fresh oracle's answer."""
        before = oracle.stats.calls
        got = oracle.value_arrays(losses)
        assert oracle.stats.calls == before + 1
        assert same_value(got, ValueOracle(oracle.policy_class).value_arrays(losses))
        return got

    def sized_classes(self, rng):
        """Classes one row below and exactly at the memory threshold, at K=2 and 5."""
        for k in (2, 5):
            for u in (4, 16):
                for n in (REMEMBER_MIN_CELLS // u - 1, REMEMBER_MIN_CELLS // u):
                    yield random_policy_class(n, u, k, rng)

    def test_base_then_charges_on_both_sides_of_the_threshold(self):
        rng = np.random.default_rng(21)
        for pc in self.sized_classes(rng):
            oracle = ValueOracle(pc)
            u, k = pc.num_contexts, pc.num_actions
            for _ in range(4):
                base = rng.normal(size=(u, k)) * 10.0 ** rng.integers(-3, 4, size=(u, 1))
                self.ask(oracle, base)
                snapshot = oracle._last
                assert (snapshot is None) == (pc.num_policies * u < REMEMBER_MIN_CELLS)
                x = int(rng.integers(u))
                for a in range(k):
                    charged = base.copy()
                    charged[x, a] += float(rng.uniform(k, 3 * k))
                    self.ask(oracle, charged)
                    assert oracle._last is snapshot  # a charged query leaves the memory alone

    def test_repeat_two_cells_and_new_base(self):
        rng = np.random.default_rng(22)
        pc = random_policy_class(REMEMBER_MIN_CELLS // 8, 8, 5, rng)
        oracle = ValueOracle(pc)
        base = rng.normal(size=(8, 5))
        self.ask(oracle, base)
        self.ask(oracle, base.copy())  # no cell differs: a full gather
        two = base.copy()
        two[1, 0] += 7.0
        two[5, 3] += 7.0
        self.ask(oracle, two)  # two cells differ: a full gather, remembered
        assert np.array_equal(oracle._last[0], two.ravel())
        fresh = rng.normal(size=(8, 5))
        self.ask(oracle, fresh)
        charged = fresh.copy()
        charged[2, 4] += 7.0
        self.ask(oracle, charged)

    @pytest.mark.parametrize("k", [2, 5])
    def test_cell_read_by_no_policy_and_by_every_policy(self, k):
        rng = np.random.default_rng(23)
        n, u = REMEMBER_MIN_CELLS // 4, 4
        table = rng.integers(1, k + 1, size=(n, u))
        table[:, 0] = rng.integers(1, k, size=n)  # nobody plays action k on context 0
        table[:, 1] = 1  # everybody plays action 1 on context 1
        oracle = ValueOracle(PolicyClass(table=table, num_actions=k))
        base = rng.normal(size=(u, k))
        for x, a in [(0, k - 1), (1, 0)]:
            self.ask(oracle, base)
            charged = base.copy()
            charged[x, a] += 5.0
            self.ask(oracle, charged)

    def test_nan_cells(self):
        rng = np.random.default_rng(24)
        pc = random_policy_class(REMEMBER_MIN_CELLS // 8, 8, 5, rng)
        oracle = ValueOracle(pc)
        base = rng.normal(size=(8, 5))
        self.ask(oracle, base)
        for x, a in [(3, 2), (3, 3)]:
            charged = base.copy()
            charged[x, a] = np.nan  # the one differing cell is NaN
            assert np.isnan(self.ask(oracle, charged))
        with_nan = base.copy()
        with_nan[6, 1] = np.nan  # a NaN in the remembered query itself
        self.ask(oracle, with_nan)
        for a in range(5):
            charged = with_nan.copy()
            charged[6, a] += 5.0
            self.ask(oracle, charged)

    def test_concurrent_queries_stay_exact(self):
        rng = np.random.default_rng(25)
        pc = random_policy_class(REMEMBER_MIN_CELLS // 8, 8, 5, rng)
        queries = []
        for _ in range(6):
            base = rng.normal(size=(8, 5))
            queries.append(base)
            for a in range(5):
                charged = base.copy()
                charged[int(rng.integers(8)), a] += 5.0
                queries.append(charged)
        expected = [ValueOracle(pc).value_arrays(q) for q in queries]
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


def bits(value):
    """The 64 bits of a float, so that NaNs and signed zeros compare exactly."""
    return int(np.float64(value).view(np.uint64))


class TestMatrixQuery:
    """``value_arrays(M)`` answers as the per-action loop over contexts ``arange(U)``, bit for bit."""

    def both(self, pc, oracle, losses):
        """Ask the oracle once; checks the count and returns it with the loop's answer."""
        before = oracle.stats.calls
        got = oracle.value_arrays(losses)
        assert oracle.stats.calls == before + 1
        return got, loop_value(pc, np.arange(pc.num_contexts), losses)

    @pytest.mark.parametrize("k", [2, 5])
    def test_random_tables(self, k):
        rng = np.random.default_rng(31)
        for n, u in [(3, 2), (40, 10), (500, 20), (5000, 50)]:
            pc = random_policy_class(n, u, k, rng)
            for _ in range(5):
                losses = rng.normal(size=(u, k)) * 10.0 ** rng.integers(-3, 4, size=(u, 1))
                got, expected = self.both(pc, ValueOracle(pc), losses)
                assert got == expected
            wide = rng.normal(size=(u, 2 * k))
            got, expected = self.both(pc, ValueOracle(pc), wide[:, ::2])
            assert got == expected  # a non-contiguous matrix

    def test_nan_and_negative_zero_cells(self):
        rng = np.random.default_rng(32)
        for n, u, k in [(4, 2, 2), (40, 10, 5)]:
            pc = random_policy_class(n, u, k, rng)
            for fill in (np.nan, -0.0):
                losses = rng.normal(size=(u, k))
                losses[rng.random((u, k)) < 0.3] = fill
                losses[0] = fill  # every policy reads one such cell
                got, expected = self.both(pc, ValueOracle(pc), losses)
                assert bits(got) == bits(expected)
            zeros = np.full((u, k), -0.0)
            got, expected = self.both(pc, ValueOracle(pc), zeros)
            assert bits(got) == bits(expected) == bits(0.0)

    @pytest.mark.parametrize("k", [2, 5])
    def test_base_then_charges_on_both_sides_of_the_threshold(self, k):
        rng = np.random.default_rng(33)
        for u in (4, 16):
            for n in (REMEMBER_MIN_CELLS // u - 1, REMEMBER_MIN_CELLS // u):
                pc = random_policy_class(n, u, k, rng)
                oracle = ValueOracle(pc)
                for _ in range(3):
                    base = rng.normal(size=(u, k)) * 10.0 ** rng.integers(-3, 4, size=(u, 1))
                    special = rng.random((u, k))
                    base[special < 0.1] = np.nan
                    base[special > 0.9] = -0.0  # the memory holds +0.0, as the loop's bincount gives
                    queries = [base]
                    x = int(rng.integers(u))
                    for a in range(k):
                        charged = base.copy()
                        charged[x, a] += float(rng.uniform(k, 3 * k))
                        queries.append(charged)
                    for losses in queries:
                        got, expected = self.both(pc, oracle, losses)
                        assert bits(got) == bits(expected)
                    if n * u >= REMEMBER_MIN_CELLS:
                        cells = loop_per_context(np.arange(u), base, u).ravel()
                        assert np.array_equal(oracle._last[0].view(np.uint64), cells.view(np.uint64))
                    else:
                        assert oracle._last is None

    def test_caller_mutating_the_matrix_after_the_call(self):
        # the memory must hold its own copy: had it kept a view of ``base``,
        # the next query, one cell off the mutated matrix, would re-sum only
        # that cell's readers on top of totals of the unmutated one
        rng = np.random.default_rng(34)
        u, k = 8, 5
        pc = random_policy_class(REMEMBER_MIN_CELLS // u, u, k, rng)
        oracle = ValueOracle(pc)
        for x1, a1, x2, a2 in [(0, 0, 1, 1), (3, 4, 3, 2), (7, 1, 2, 0)]:
            base = rng.normal(size=(u, k))
            oracle.value_arrays(base)
            base[x1, a1] -= 100.0  # mutated in place after the call
            charged = base.copy()
            charged[x2, a2] += 7.0
            got = oracle.value_arrays(charged)
            assert got == ValueOracle(pc).value_arrays(charged)
            assert got == loop_value(pc, np.arange(u), charged)

    def test_wrong_shape_rejected(self):
        pc = PolicyClass(table=np.array([[1, 2], [2, 1], [1, 1]]), num_actions=2)
        oracle = ValueOracle(pc)
        bad_shapes = [(2, 3), (1, 2), (3, 2), (4,)]  # the class is N=3, U=2, K=2
        for calls, shape in enumerate(bad_shapes, start=1):
            with pytest.raises(ValueError, match="shape"):
                oracle.value_arrays(np.zeros(shape))
            assert oracle.stats.calls == calls


class TestPolicyClass:
    def test_validates_entries(self):
        with pytest.raises(ValueError, match="entries"):
            PolicyClass(table=np.array([[1, 4]]), num_actions=3)

    def test_shape_and_lookup(self):
        pc = PolicyClass(table=np.array([[1, 2], [2, 1]]), num_actions=2)
        assert pc.num_policies == 2
        assert pc.num_contexts == 2
        assert pc.table[1, 0] == 2
        np.testing.assert_array_equal(pc.actions_for(1), [2, 1])

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
        value = oracle.value_arrays(np.array([[0.3, 0.7]]))
        assert value == pytest.approx(0.3)

    def test_singleton_class_exact_sum(self):
        pc = PolicyClass(table=np.array([[2, 1, 2]]), num_actions=2)
        oracle = ValueOracle(pc)
        losses = np.array([[0.1, 0.9], [0.5, 0.8], [0.4, 0.2]])  # row x: losses at context x
        assert oracle.value_arrays(losses) == pytest.approx(0.9 + 0.5 + 0.2)

    def test_matches_brute_force_on_random_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n, u, k = int(rng.integers(1, 8)), int(rng.integers(1, 6)), int(rng.integers(2, 5))
            pc = PolicyClass(table=rng.integers(1, k + 1, size=(n, u)), num_actions=k)
            oracle = ValueOracle(pc)
            m = int(rng.integers(0, 12))
            contexts = rng.integers(0, u, size=m)
            losses = rng.normal(size=(m, k))
            assert oracle.value_arrays(context_action_sums(contexts, losses, u)) == pytest.approx(
                brute_force_value(pc, contexts, losses)
            )

    def test_call_accounting(self):
        pc = PolicyClass(table=np.array([[1, 2]]), num_actions=2)
        oracle = ValueOracle(pc)
        for expect in range(1, 6):
            oracle.value_arrays(np.array([[0.5, 0.5], [0.0, 0.0]]))
            assert oracle.stats.calls == expect

    def test_concurrent_increments_not_lost(self):
        pc = PolicyClass(table=np.array([[1, 2]]), num_actions=2)
        oracle = ValueOracle(pc)
        losses = np.array([[0.1, 0.2], [0.3, 0.4]])

        def worker():
            for _ in range(200):
                oracle.value_arrays(losses)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert oracle.stats.calls == 800


class TestBestPolicyLoss:
    def test_empty_horizon(self):
        pc = PolicyClass(table=np.array([[1, 2]]), num_actions=2)
        assert best_policy_loss(pc, [], np.zeros((0, 2))) == 0.0

    def test_single_round_covering_class(self):
        pc = PolicyClass(table=np.array([[1], [2]]), num_actions=2)
        assert best_policy_loss(pc, [0], np.array([[0.2, 0.9]])) == pytest.approx(0.2)

    def test_all_zero_costs(self):
        rng = np.random.default_rng(2)
        pc = random_policy_class(6, 3, 3, rng)
        assert best_policy_loss(pc, [0, 1, 2, 0], np.zeros((4, 3))) == 0.0

    def test_length_mismatch(self):
        pc = PolicyClass(table=np.array([[1, 2]]), num_actions=2)
        with pytest.raises(ValueError, match="contexts but"):
            best_policy_loss(pc, [0, 1], np.zeros((3, 2)))

    @pytest.mark.parametrize("context", [-1, 2])
    def test_rejects_out_of_universe_context(self, context):
        pc = PolicyClass(table=np.array([[1, 2]]), num_actions=2)
        with pytest.raises(ValueError, match="universe"):
            best_policy_loss(pc, [0, context], np.zeros((2, 2)))

    def test_matches_loop_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, u, k, t = 7, 4, 3, int(rng.integers(1, 15))
            pc = PolicyClass(table=rng.integers(1, k + 1, size=(n, u)), num_actions=k)
            contexts = rng.integers(0, u, size=t)
            costs = rng.random((t, k))
            expected = min(
                sum(costs[i, action_of(pc, p, contexts[i]) - 1] for i in range(t))
                for p in range(pc.num_policies)
            )
            assert best_policy_loss(pc, contexts, costs) == pytest.approx(expected)
