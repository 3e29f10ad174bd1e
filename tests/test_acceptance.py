"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines as
they happen (without ``-s`` they appear in pytest's captured output).

Known red: criterion 5's sublinearity clause.  The learner's tuned
perturbation (magnitude ``scale`` with probability ``K/scale`` per remaining
round, doubled by the sign terms) keeps pairwise policy-score noise above
the accrued loss separations for most of a T=2000 run, so per-round regret
falls only from ~0.11 to ~0.08 and the 2000-round average stays above 0.8x
the 500-round average (0.877 on the stochastic-gap instance and 0.898 on
the policy-targeted one, with the future drawn in law; 0.869 and 0.907 with
the former round-by-round draw of the same law; robustly across seeds and
adversary constructions).  Shrinking the perturbation fourfold -- which
breaks the learner's guarantee -- moves the ratio to ~0.79, confirming the
cause.  The bound-conformance clause of criterion 5 passes.

Calibration note: Exp4, the statistically optimal baseline, reaches only
ratio ~0.82 on the same instance (criterion 10 measures it), so the 0.8
threshold is out of reach at this scale even for the best-known comparator.
"""

import math
import time

import numpy as np
import pytest

from relaxcb import (
    ContextDistribution,
    LearnerConfig,
    OracleScores,
    RelaxationLearner,
    ValueOracle,
    admissibility_check,
    emit_outputs,
    inner_sup_value,
    rademacher_bound_check,
    random_policy_class,
    run_experiment,
    sup_by_vertex_enumeration,
    theoretical_bound,
    unbiasedness_check,
    water_fill,
)
from relaxcb.verify import brute_force_minimax

MASTER_SEED = 20260809

GAP_CONFIG = {
    "K": 5,
    "T": 2000,
    "L": "auto",
    "learner": "relax",
    "reps": 20,
    "seed": MASTER_SEED,
    "policyClass": {"type": "table", "seed": 11, "N": 50, "U": 10, "K": 5},
    "environment": {
        "context": {"U": 10, "probs": "uniform"},
        "adversary": {"type": "stochastic-gap", "delta": 0.3, "seed": 5},
        "transductive": False,
    },
}

TARGETED_CONFIG = {
    **GAP_CONFIG,
    "environment": {
        "context": {"U": 10, "probs": "uniform"},
        "adversary": {"type": "policy-targeted", "delta": 0.2, "period": 200, "seed": 6},
        "transductive": False,
    },
}


#: Verdict lines collected for the terminal summary (see conftest.py).
VERDICTS: list[str] = []


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}"
    VERDICTS.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def gap_run():
    start = time.perf_counter()
    result = run_experiment(GAP_CONFIG)
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def targeted_run():
    start = time.perf_counter()
    result = run_experiment(TARGETED_CONFIG)
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def short_relax_run():
    return run_experiment({**GAP_CONFIG, "T": 500, "reps": 1})


def test_criterion_1_estimator_unbiasedness():
    start = time.perf_counter()
    res = unbiasedness_check(
        num_actions=4, scale=8.0, draws=100_000, rng=np.random.default_rng(101)
    )
    elapsed = time.perf_counter() - start
    ok = res.passed(3.0) and elapsed < 5.0
    _verdict(
        1,
        "estimator unbiasedness",
        ok,
        f"worst coordinate {res.worst_sigma:.2f} sigma over {res.draws} draws, {elapsed:.1f}s",
    )


def test_criterion_2_oracle_budget(short_relax_run):
    calls = short_relax_run.runs[0].oracle_calls
    expected = 500 * (5 + 1)
    _verdict(2, "oracle budget", calls == expected, f"{calls} calls over T=500, expected {expected}")


def test_criterion_3_minimax_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = -math.inf
    ok = True
    for k, mesh, count in ((2, 1e-3, 100), (3, 1e-2, 50)):
        for i in range(count):
            scale = float(k * (1 + i % 2))  # alternate scale = K and 2K
            minima = np.concatenate([[rng.normal()], rng.normal(0.0, scale, size=k)])
            scores = OracleScores.from_minima(minima, scale)
            achieved = inner_sup_value(water_fill(scores.gaps), scores, scale)
            _, grid_min = brute_force_minimax(scores, scale, mesh)
            gap = achieved - (grid_min + scale * mesh + 1e-6)
            worst = max(worst, gap)
            ok = ok and gap <= 0.0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _verdict(3, "minimax correctness", ok, f"worst slack violation {worst:.3g}, {elapsed:.1f}s")


def test_criterion_4_closed_form_inner_sup():
    rng = np.random.default_rng(104)
    worst = 0.0
    for i in range(100):
        k = 2 if i % 2 == 0 else 3
        scale = float(rng.uniform(k, 4 * k))
        minima = np.concatenate([[rng.normal()], rng.normal(0.0, scale, size=k)])
        scores = OracleScores.from_minima(minima, scale)
        q = rng.dirichlet(np.ones(k))
        closed = inner_sup_value(q, scores, scale)
        vertex = sup_by_vertex_enumeration(q, scores, scale)
        worst = max(worst, abs(closed - vertex))
    _verdict(4, "closed-form inner sup", worst <= 1e-9, f"max |closed - vertex| = {worst:.2e}")


def test_criterion_5_bound_conformance(gap_run, targeted_run):
    details = []
    ok = True
    for label, (result, elapsed) in (("stochastic-gap", gap_run), ("policy-targeted", targeted_run)):
        bound = theoretical_bound(5, 2000, result.scale, 50)
        final = result.final_regret_mean
        ratio = (result.mean_regret[1999] / 2000) / (result.mean_regret[499] / 500)
        conform = final <= bound
        sublinear = ratio < 0.8
        ok = ok and conform and sublinear and elapsed < 600.0
        details.append(
            f"{label}: regret {final:.1f} {'<=' if conform else '>'} bound {bound:.1f}, "
            f"ratio {ratio:.3f} {'<' if sublinear else '>='} 0.8, {elapsed:.0f}s"
        )
    _verdict(5, "bound conformance and sublinearity", ok, "; ".join(details))


def test_criterion_6_perturbation_bound():
    check = rademacher_bound_check(
        horizon=200, moment_bound=8.0, num_policies=16, scale=4.0,
        num_actions=2, num_contexts=4, samples=10_000, rng=np.random.default_rng(106),
    )
    _verdict(
        6,
        "perturbation moment bound",
        check.empirical <= check.bound,
        f"empirical {check.empirical:.2f} <= bound {check.bound:.2f} (stderr {check.stderr:.2f})",
    )


def test_criterion_7_one_step_admissibility():
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    scales = (2.0, 3.0, 4.0, 2.5, 5.0)
    ok = True
    margins = []
    for scale in scales:
        policy_class = random_policy_class(4, 2, 2, rng)
        config = LearnerConfig(K=2, T=2, scale=scale)
        dist = ContextDistribution.uniform(2)
        first = admissibility_check(policy_class, config, dist, [], draws=4000, rng=rng)
        oracle = ValueOracle(policy_class)
        costs = rng.random(2)
        learner = RelaxationLearner(config, oracle, dist)
        history = [learner.play_round(dist.sample(rng), lambda a: costs[a - 1], rng)]
        second = admissibility_check(policy_class, config, dist, history, draws=4000, rng=rng)
        ok = ok and first.passed(3.0) and second.passed(3.0)
        margins.extend([first.margin, second.margin])
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    _verdict(
        7,
        "one-step admissibility",
        ok,
        f"min margin {min(margins):.3f} over {len(margins)} checks, {elapsed:.0f}s",
    )


def test_criterion_8_exploration_floor(gap_run, targeted_run, short_relax_run):
    runs = gap_run[0].runs + targeted_run[0].runs + short_relax_run.runs
    floor = 1.0 / gap_run[0].scale
    min_prob = min(r.min_play_prob for r in runs)
    max_coin = max(r.max_coin_prob for r in runs)
    max_raw = max(r.max_raw_coin_prob for r in runs)
    ok = min_prob >= floor - 1e-12 and max_coin <= 1.0 and max_raw <= 1.0 + 1e-12
    _verdict(
        8,
        "exploration floor",
        ok,
        f"min play prob {min_prob:.6f} vs floor {floor:.6f}, max coin prob {max_coin:.12f}",
    )


def test_criterion_9_determinism(gap_run, targeted_run, tmp_path_factory):
    out = tmp_path_factory.mktemp("determinism")
    first_gap = emit_outputs(gap_run[0], out / "gap_a")
    first_tgt = emit_outputs(targeted_run[0], out / "tgt_a")
    second_gap = emit_outputs(run_experiment(GAP_CONFIG), out / "gap_b")
    second_tgt = emit_outputs(run_experiment(TARGETED_CONFIG), out / "tgt_b")
    same = (
        first_gap["regret_csv"].read_bytes() == second_gap["regret_csv"].read_bytes()
        and first_gap["realized_csv"].read_bytes() == second_gap["realized_csv"].read_bytes()
        and first_tgt["regret_csv"].read_bytes() == second_tgt["regret_csv"].read_bytes()
        and first_tgt["realized_csv"].read_bytes() == second_tgt["realized_csv"].read_bytes()
    )
    _verdict(9, "determinism", same, "re-run CSVs byte-identical for both environments")


def test_criterion_10_baseline_sanity(gap_run):
    uniform = run_experiment({**GAP_CONFIG, "learner": "uniform"})
    exp4 = run_experiment({**GAP_CONFIG, "learner": "exp4"})
    relax_final = gap_run[0].final_regret_mean
    uniform_final = uniform.final_regret_mean
    exp4_ratio = (exp4.mean_regret[1999] / 2000) / (exp4.mean_regret[499] / 500)
    ok = relax_final < uniform_final and exp4_ratio < 1.0
    _verdict(
        10,
        "baseline sanity",
        ok,
        f"relax {relax_final:.1f} < uniform {uniform_final:.1f}; exp4 ratio {exp4_ratio:.3f} < 1",
    )
