"""Output checks computed apart from relaxcb.

The instance is rebuilt here from the run config by the laws relaxcb
documents (seeded table draw, oblivious schedule, per-replication
``SeedSequence`` split with inverse-CDF contexts), and the comparator, final
regret and regret bound are recomputed from it.  Nothing here imports
relaxcb.
"""

from __future__ import annotations

import math

import numpy as np

POLICY_CHUNK = 512  # policies summed at a time, keeps the check's memory small


def policy_table(spec: dict, k: int) -> np.ndarray:
    """0-based (N, U) action table: uniform draws, redrawn until every action occurs."""
    rng = np.random.default_rng(np.random.SeedSequence(spec["seed"]))
    while True:
        table = rng.integers(1, k + 1, size=(spec["N"], spec["U"]))
        if np.unique(table).size == k:
            return table - 1


def cost_schedule(spec: dict, k: int, horizon: int) -> np.ndarray:
    """The (T, K) oblivious schedule for the two adversaries the workloads use."""
    rng = np.random.default_rng(np.random.SeedSequence(spec["seed"]))
    delta = spec["delta"]
    target = int(rng.integers(1, k + 1)) - 1
    if spec["type"] == "stochastic-gap":
        raw = rng.random((horizon, k))
        costs = delta + (1.0 - delta) * raw
        costs[:, target] = (1.0 - delta) * raw[:, target]
        return costs
    if spec["type"] == "policy-targeted":
        low = (1.0 - delta) / 2.0
        phase = np.arange(horizon) // spec["period"]
        costs = np.empty((horizon, k))
        for a in range(k):
            high_phase = (phase + a + 1) % 2 == 0
            costs[:, a] = np.where(high_phase, min(1.0, low + delta + 0.25), low + delta)
        costs[:, target] = low
        return costs
    raise ValueError(f"no reference schedule for adversary {spec['type']!r}")


def replication_contexts(cfg: dict) -> list[np.ndarray]:
    """Each replication's contexts: child r of the master seed, first grandchild,
    one uniform per round mapped through the uniform context CDF."""
    num_contexts = cfg["environment"]["context"]["U"]
    out = []
    for child in np.random.SeedSequence(cfg["seed"]).spawn(cfg["reps"]):
        context_seq = child.spawn(2)[0]
        u = np.random.default_rng(context_seq).random(cfg["T"])
        out.append(np.minimum((u * num_contexts).astype(np.int64), num_contexts - 1))
    return out


def comparator_loss(table0: np.ndarray, costs: np.ndarray, contexts: np.ndarray) -> float:
    """Best policy's total cost, summed policy by policy over the schedule."""
    rounds = np.arange(costs.shape[0])
    best = math.inf
    for lo in range(0, table0.shape[0], POLICY_CHUNK):
        actions = table0[lo : lo + POLICY_CHUNK][:, contexts]      # (chunk, T)
        best = min(best, float(costs[rounds, actions].sum(axis=1).min()))
    return best


def scale_and_bound(k: int, horizon: int, num_policies: int) -> tuple[float, float]:
    """Auto-tuned scale ``max(K, (K T / ln N)^(1/3))`` and the regret bound
    ``2 sqrt(2 T K scale ln N) + T K / scale``."""
    log_n = math.log(num_policies)
    scale = max(float(k), (k * horizon / log_n) ** (1.0 / 3.0))
    return scale, 2.0 * math.sqrt(2.0 * horizon * k * scale * log_n) + horizon * k / scale


class Reference:
    """Everything the checks need that does not depend on the learner's play."""

    def __init__(self, cfg: dict) -> None:
        self.cfg = cfg
        k, horizon = cfg["K"], cfg["T"]
        table0 = policy_table(cfg["policyClass"], k)
        costs = cost_schedule(cfg["environment"]["adversary"], k, horizon)
        self.comparators = [comparator_loss(table0, costs, x) for x in replication_contexts(cfg)]
        self.scale, self.bound = scale_and_bound(k, horizon, table0.shape[0])


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-8, abs_tol=1e-6)


def check_run(ref: Reference, result, summary: dict, regret_csv: bytes) -> list[str]:
    """Compare one experiment's outputs with the reference; return the failures."""
    cfg = ref.cfg
    k, horizon, reps = cfg["K"], cfg["T"], cfg["reps"]
    calls_per_rep = horizon * (k + 1)
    problems = []
    if len(result.runs) != reps:
        return [f"{len(result.runs)} replications reported, expected {reps}"]
    finals = []
    for run, comparator in zip(result.runs, ref.comparators):
        tag = f"rep {run.rep}"
        if not close(run.comparator_loss, comparator):
            problems.append(f"{tag}: comparator {run.comparator_loss!r} != recomputed {comparator!r}")
        final = float(np.sum(run.expected_costs)) - comparator
        finals.append(final)
        if not close(run.final_regret, final):
            problems.append(f"{tag}: final regret {run.final_regret!r} != sum(expected) - comparator {final!r}")
        if final > ref.bound:
            problems.append(f"{tag}: regret {final:.3f} above bound {ref.bound:.3f}")
        if run.oracle_calls != calls_per_rep:
            problems.append(f"{tag}: {run.oracle_calls} oracle calls, expected T*(K+1) = {calls_per_rep}")
        if run.min_play_prob < 1.0 / ref.scale - 1e-12:
            problems.append(f"{tag}: min play prob {run.min_play_prob!r} below 1/scale")
        if run.max_raw_coin_prob > 1.0 + 1e-9:
            problems.append(f"{tag}: coin probability {run.max_raw_coin_prob!r} above 1")
    if not math.isclose(summary["scale"], ref.scale, rel_tol=1e-12):
        problems.append(f"scale {summary['scale']!r} != recomputed {ref.scale!r}")
    if summary["oracle_calls_total"] != reps * calls_per_rep:
        problems.append(f"oracle_calls_total {summary['oracle_calls_total']} != {reps * calls_per_rep}")
    if not close(summary["comparator_loss_mean"], float(np.mean(ref.comparators))):
        problems.append("comparator_loss_mean disagrees with the recomputed comparators")
    if summary["min_play_prob"] < 1.0 / ref.scale - 1e-12 or summary["max_coin_prob"] > 1.0:
        problems.append("summary floor or coin probability out of range")
    last = regret_csv.decode().strip().splitlines()[-1].split(",")
    if int(last[0]) != horizon or not close(float(last[1]), float(np.mean(finals))):
        problems.append(f"regret.csv final row {last} != mean recomputed regret {np.mean(finals)!r}")
    if not close(float(last[3]), ref.bound):
        problems.append(f"regret.csv bound {last[3]} != recomputed {ref.bound!r}")
    return problems


VERIFY_SUITES = ("minimax", "unbiasedness", "perturbation-bound", "admissibility")


def check_verify(code: int, lines: list[str]) -> list[str]:
    """``relaxcb verify`` must exit 0 and print a [PASS] line for every suite."""
    problems = [] if code == 0 else [f"relaxcb verify exited with {code}"]
    for suite in VERIFY_SUITES:
        if not any(line.startswith(f"[PASS] {suite}:") for line in lines):
            problems.append(f"no [PASS] line for suite {suite}")
    return problems
