"""Policy classes, the value oracle, and the hindsight comparator."""

import threading

import numpy as np
import pytest

from relaxcb import (
    FutureDraw,
    OracleStats,
    PolicyClass,
    ValueOracle,
    best_policy_loss,
    random_policy_class,
)
from relaxcb.learner import future_loss_matrix
from relaxcb.policies import context_action_sums


def brute_force_value(policy_class, contexts, losses):
    """Reference oracle: plain double loop over policies and examples."""
    best = None
    for p in range(policy_class.num_policies):
        total = 0.0
        for x, loss in zip(contexts, losses):
            total += float(loss[policy_class.action_of(p, x) - 1])
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
            assert oracle.value_arrays(contexts, losses) == loop_value(pc, contexts, losses)
            assert oracle.stats.calls == 1

    def test_value_arrays_on_every_context_once(self):
        # the learner's query: contexts = arange(U), one aggregated row each
        rng = np.random.default_rng(13)
        for n, u, k in [(4, 2, 2), (50, 10, 5), (5000, 50, 5)]:
            pc = random_policy_class(n, u, k, rng)
            contexts = np.arange(u)
            for _ in range(5):
                losses = rng.normal(size=(u, k)) * 100.0
                assert ValueOracle(pc).value_arrays(contexts, losses) == loop_value(pc, contexts, losses)

    def test_best_policy_loss(self):
        for pc, contexts, costs in exactness_instances(np.random.default_rng(14)):
            assert best_policy_loss(pc, contexts, costs) == loop_value(pc, contexts, costs)

    def test_future_loss_matrix(self):
        rng = np.random.default_rng(15)
        for u, k in [(2, 2), (10, 5), (50, 5)]:
            for n, hit in [(0, 0.5), (1, 1.0), (40, 0.0), (40, 0.3), (700, 0.6)]:
                scale = float(rng.uniform(k, 3 * k))
                rho = FutureDraw(
                    contexts=rng.integers(0, u, size=n),
                    signs=rng.integers(0, 2, size=(n, k)) * 2 - 1,
                    magnitudes=np.where(rng.random(n) < hit, scale, 0.0),
                )
                nz = rho.magnitudes > 0.0
                weighted = rho.signs[nz] * (2.0 * rho.magnitudes[nz])[:, None]
                expected = loop_per_context(rho.contexts[nz], weighted, u)
                assert np.array_equal(future_loss_matrix(rho, u, k), expected)


class TestPolicyClass:
    def test_validates_entries(self):
        with pytest.raises(ValueError, match="entries"):
            PolicyClass(table=np.array([[1, 4]]), num_actions=3)

    def test_shape_and_lookup(self):
        pc = PolicyClass(table=np.array([[1, 2], [2, 1]]), num_actions=2)
        assert pc.num_policies == 2
        assert pc.num_contexts == 2
        assert pc.action_of(1, 0) == 2
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
    def test_empty_sequence_is_zero(self):
        oracle = ValueOracle(PolicyClass(table=np.array([[1, 2]]), num_actions=2))
        assert oracle.value_arrays(np.zeros(0, dtype=np.int64), np.zeros((0, 2))) == 0.0
        assert oracle.stats.calls == 1

    def test_two_policy_example(self):
        # constant policies x->1 and x->2; one example with losses (0.3, 0.7)
        pc = PolicyClass(table=np.array([[1], [2]]), num_actions=2)
        oracle = ValueOracle(pc)
        value = oracle.value_arrays(np.array([0]), np.array([[0.3, 0.7]]))
        assert value == pytest.approx(0.3)

    def test_singleton_class_exact_sum(self):
        pc = PolicyClass(table=np.array([[2, 1, 2]]), num_actions=2)
        oracle = ValueOracle(pc)
        contexts = np.array([0, 2, 1])
        losses = np.array([[0.1, 0.9], [0.4, 0.2], [0.5, 0.8]])
        assert oracle.value_arrays(contexts, losses) == pytest.approx(0.9 + 0.2 + 0.5)

    def test_matches_brute_force_on_random_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n, u, k = int(rng.integers(1, 8)), int(rng.integers(1, 6)), int(rng.integers(2, 5))
            pc = PolicyClass(table=rng.integers(1, k + 1, size=(n, u)), num_actions=k)
            oracle = ValueOracle(pc)
            m = int(rng.integers(0, 12))
            contexts = rng.integers(0, u, size=m)
            losses = rng.normal(size=(m, k))
            assert oracle.value_arrays(contexts, losses) == pytest.approx(
                brute_force_value(pc, contexts, losses)
            )

    def test_call_accounting(self):
        pc = PolicyClass(table=np.array([[1, 2]]), num_actions=2)
        stats = OracleStats()
        oracle = ValueOracle(pc, stats=stats)
        for expect in range(1, 6):
            oracle.value_arrays(np.array([0]), np.array([[0.5, 0.5]]))
            assert stats.calls == expect

    def test_concurrent_increments_not_lost(self):
        pc = PolicyClass(table=np.array([[1, 2]]), num_actions=2)
        oracle = ValueOracle(pc)
        contexts = np.array([0, 1], dtype=np.int64)
        losses = np.array([[0.1, 0.2], [0.3, 0.4]])

        def worker():
            for _ in range(200):
                oracle.value_arrays(contexts, losses)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert oracle.stats.calls == 800

    def test_rejects_out_of_universe_context(self):
        pc = PolicyClass(table=np.array([[1, 2]]), num_actions=2)
        oracle = ValueOracle(pc)
        with pytest.raises(ValueError, match="universe"):
            oracle.value_arrays(np.array([5]), np.array([[0.1, 0.2]]))


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
                sum(costs[i, pc.action_of(p, contexts[i]) - 1] for i in range(t))
                for p in range(pc.num_policies)
            )
            assert best_policy_loss(pc, contexts, costs) == pytest.approx(expected)
