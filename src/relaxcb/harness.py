"""Experiment runner: config validation, replication loop, metrics, file output.

Randomness is split from a single master seed with ``numpy.random.SeedSequence``:
each replication spawns one child sequence, which in turn spawns one stream
for the context draws and one for the learner, in that order, so (config,
seed) fully determine every output file.
"""

from __future__ import annotations

import copy
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import Exp4Learner, UniformLearner
from .environments import ADVERSARY_TYPES, ContextDistribution, ContextSequence, CostSchedule, make_adversary
from .learner import ContextSource, LearnerConfig, RelaxationLearner, in_tuning_regime, tune_scale
from .policies import PolicyClass, ValueOracle, random_policy_class

LEARNERS = ("relax", "exp4", "uniform")


class ConfigError(ValueError):
    """Configuration problem, reported with the offending field's path."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


def bound_curve(num_actions: int, horizon: int, scale: float, num_policies: int) -> np.ndarray:
    """Regret cap for the relaxation learner at every prefix length 1..T.

    ``2*sqrt(2*t*K*scale*ln(N)) + t*K/scale`` with the natural log and a
    fixed scale.
    """
    if scale < num_actions:
        raise ValueError(f"scale must be >= K, got scale={scale}, K={num_actions}")
    if num_policies < 2:
        raise ValueError(f"need at least 2 policies, got {num_policies}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    rounds = np.arange(1, horizon + 1, dtype=float)
    log_n = math.log(num_policies)
    return 2.0 * np.sqrt(2.0 * rounds * num_actions * scale * log_n) + rounds * num_actions / scale


def theoretical_bound(num_actions: int, horizon: int, scale: float, num_policies: int) -> float:
    """The regret cap at the full horizon: the last entry of :func:`bound_curve`."""
    return float(bound_curve(num_actions, horizon, scale, num_policies)[-1])


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

_TOP_KEYS = {"K", "T", "L", "learner", "policyClass", "environment", "reps", "seed"}


def _check_fields(obj: dict, known: set, prefix: str = "") -> None:
    for key in obj:
        if key not in known:
            raise ConfigError(f"{prefix}{key}", f"unknown field (expected one of {sorted(known)})")


def validate_config(config: dict) -> dict:
    """Normalize a run config, raising :class:`ConfigError` with field paths."""
    if not isinstance(config, dict):
        raise ConfigError("<config>", "must be a JSON object")
    _check_fields(config, _TOP_KEYS)
    cfg = copy.deepcopy(config)

    k = _require_int(cfg, "K", minimum=2)
    t = _require_int(cfg, "T", minimum=1)
    cfg.setdefault("L", "auto")
    if cfg["L"] != "auto":
        if not isinstance(cfg["L"], (int, float)) or isinstance(cfg["L"], bool):
            raise ConfigError("L", f"must be 'auto' or a number, got {cfg['L']!r}")
        if not math.isfinite(cfg["L"]):
            raise ConfigError("L", f"must be finite, got {cfg['L']!r}")
        if cfg["L"] < k:
            raise ConfigError("L", f"must be >= K={k}, got {cfg['L']}")
        cfg["L"] = float(cfg["L"])
    cfg.setdefault("learner", "relax")
    if cfg["learner"] not in LEARNERS:
        raise ConfigError("learner", f"must be one of {LEARNERS}, got {cfg['learner']!r}")
    cfg["reps"] = _require_int(cfg, "reps", minimum=1, default=1)
    cfg["seed"] = _require_int(cfg, "seed", minimum=0, default=0)

    pc = cfg.get("policyClass")
    if not isinstance(pc, dict):
        raise ConfigError("policyClass", "must be an object")
    pc_type = pc.get("type")
    if pc_type == "table":
        _check_fields(pc, {"type", "seed", "N", "U", "K"}, "policyClass.")
        _require_int(pc, "N", minimum=1, path="policyClass.N")
        _require_int(pc, "U", minimum=1, path="policyClass.U")
        _require_int(pc, "seed", minimum=0, path="policyClass.seed")
        pc.setdefault("K", k)
        if pc["K"] != k:
            raise ConfigError("policyClass.K", f"must equal top-level K={k}, got {pc['K']}")
    elif pc_type == "explicit":
        _check_fields(pc, {"type", "table"}, "policyClass.")
        table = pc.get("table")
        if not isinstance(table, list) or not table or not all(isinstance(r, list) for r in table):
            raise ConfigError("policyClass.table", "must be a non-empty list of rows")
        widths = {len(r) for r in table}
        if len(widths) != 1:
            raise ConfigError("policyClass.table", "rows must have equal length")
        for row in table:
            for entry in row:
                if not isinstance(entry, int) or isinstance(entry, bool) or not 1 <= entry <= k:
                    raise ConfigError(
                        "policyClass.table", f"entries must be integers in 1..{k}, got {entry!r}"
                    )
    else:
        raise ConfigError("policyClass.type", f"must be 'table' or 'explicit', got {pc_type!r}")
    if pc_type == "table" and pc["N"] * pc["U"] < k:
        raise ConfigError("policyClass", f"N*U = {pc['N'] * pc['U']} cells cannot cover all K={k} actions")
    num_policies = pc["N"] if pc_type == "table" else len(pc["table"])
    if cfg["L"] == "auto" and num_policies < 2:
        raise ConfigError("L", f"'auto' needs at least 2 policies to tune, got {num_policies}")

    env = cfg.get("environment")
    if not isinstance(env, dict):
        raise ConfigError("environment", "must be an object")
    _check_fields(env, {"context", "adversary", "transductive"}, "environment.")
    env.setdefault("transductive", False)
    if not isinstance(env["transductive"], bool):
        raise ConfigError("environment.transductive", "must be a boolean")
    ctx = env.get("context")
    if not isinstance(ctx, dict):
        raise ConfigError("environment.context", "must be an object")
    _check_fields(ctx, {"U", "probs", "seed"}, "environment.context.")
    u = _require_int(ctx, "U", minimum=1, path="environment.context.U")
    ctx.setdefault("probs", "uniform")
    probs = ctx["probs"]
    if probs == "random":
        _require_int(ctx, "seed", minimum=0, path="environment.context.seed")
    elif "seed" in ctx:
        raise ConfigError("environment.context.seed", "is read only with probs 'random'")
    elif probs != "uniform":
        if not isinstance(probs, list) or len(probs) != u:
            raise ConfigError(
                "environment.context.probs",
                f"must be 'uniform', 'random' or a list of {u} probabilities",
            )
    class_u = pc["U"] if pc_type == "table" else len(pc["table"][0])
    if class_u != u:
        raise ConfigError(
            "environment.context.U",
            f"context universe ({u}) must match the policy table width ({class_u})",
        )
    adv = env.get("adversary")
    if not isinstance(adv, dict):
        raise ConfigError("environment.adversary", "must be an object")
    _check_fields(adv, {"type", "delta", "period", "seed"}, "environment.adversary.")
    if adv.get("type") not in ADVERSARY_TYPES:
        raise ConfigError(
            "environment.adversary.type",
            f"must be one of {ADVERSARY_TYPES}, got {adv.get('type')!r}",
        )
    unread = {"stochastic-gap": "period", "drifting": "delta"}.get(adv["type"])
    if unread in adv:
        raise ConfigError(f"environment.adversary.{unread}", f"is not read by a {adv['type']} adversary")
    if adv["type"] in ("stochastic-gap", "policy-targeted"):
        delta = adv.get("delta")
        if not isinstance(delta, (int, float)) or isinstance(delta, bool) or not 0 <= delta <= 1:
            raise ConfigError("environment.adversary.delta", f"must lie in [0, 1], got {delta!r}")
    if adv["type"] in ("drifting", "policy-targeted"):
        _require_int(adv, "period", minimum=1, path="environment.adversary.period")
    adv.setdefault("seed", cfg["seed"])
    _require_int(adv, "seed", minimum=0, path="environment.adversary.seed")
    return cfg


def _require_int(obj: dict, key: str, minimum: int | None = None, default=None, path: str | None = None):
    path = path or key
    if key not in obj:
        if default is not None:
            obj[key] = default
        else:
            raise ConfigError(path, "is required")
    value = obj[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(path, f"must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    return value


def policy_class_from_config(spec: dict, num_actions: int) -> PolicyClass:
    if spec["type"] == "table":
        rng = np.random.default_rng(np.random.SeedSequence(spec["seed"]))
        try:
            return random_policy_class(spec["N"], spec["U"], num_actions, rng)
        except ValueError as exc:
            raise ConfigError("policyClass.seed", f"{exc}; try another seed") from exc
    try:
        return PolicyClass(table=np.asarray(spec["table"], dtype=np.int64), num_actions=num_actions)
    except ValueError as exc:
        raise ConfigError("policyClass.table", str(exc)) from exc


def context_distribution_from_config(spec: dict) -> ContextDistribution:
    u = spec["U"]
    probs = spec.get("probs", "uniform")
    if probs == "uniform":
        return ContextDistribution.uniform(u)
    if probs == "random":
        rng = np.random.default_rng(np.random.SeedSequence(spec["seed"]))
        raw = rng.random(u) + 1e-3
        return ContextDistribution(raw / raw.sum())
    try:
        return ContextDistribution(np.asarray(probs, dtype=float))
    except ValueError as exc:
        raise ConfigError("environment.context.probs", str(exc)) from exc


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    """Per-round trace and summary of one replication.

    ``cumulative_regret[r-1]`` compares the expected costs so far against
    the best policy on the *prefix* of rounds 1..r; at r = T it equals
    ``sum(expected_costs) - comparator_loss``.  ``cumulative_realized_regret``
    is the same with the observed costs in place of the expected ones.
    """

    played_actions: np.ndarray
    expected_costs: np.ndarray
    cumulative_regret: np.ndarray
    cumulative_realized_regret: np.ndarray
    comparator_loss: float
    oracle_calls: int
    seed: int
    rep: int
    min_play_prob: float
    max_coin_prob: float
    max_raw_coin_prob: float

    @property
    def final_regret(self) -> float:
        return float(self.cumulative_regret[-1])


@dataclass
class ExperimentResult:
    """Aggregated replications plus everything needed to write outputs."""

    config: dict
    scale: float
    out_of_regime: bool
    runs: list[RunResult]
    mean_regret: np.ndarray
    stderr_regret: np.ndarray
    mean_realized_regret: np.ndarray
    stderr_realized_regret: np.ndarray
    bound: np.ndarray
    wall_time: float
    oracle_calls_total: int
    paths: dict = field(default_factory=dict)

    @property
    def final_regret_mean(self) -> float:
        return float(self.mean_regret[-1])

    @property
    def horizon(self) -> int:
        return int(self.mean_regret.size)


def run_experiment(config: dict) -> ExperimentResult:
    """Run R independent replications of one configuration and aggregate."""
    cfg = validate_config(config)
    k, horizon, reps = cfg["K"], cfg["T"], cfg["reps"]
    policy_class = policy_class_from_config(cfg["policyClass"], k)
    context_dist = context_distribution_from_config(cfg["environment"]["context"])
    adv_rng = np.random.default_rng(np.random.SeedSequence(cfg["environment"]["adversary"]["seed"]))
    schedule = make_adversary(cfg["environment"]["adversary"], policy_class, horizon, adv_rng)

    num_policies = policy_class.num_policies
    if cfg["L"] == "auto":
        scale = tune_scale(k, horizon, num_policies)
    else:
        scale = float(cfg["L"])
    out_of_regime = not in_tuning_regime(k, horizon, num_policies)
    learner_config = LearnerConfig(K=k, T=horizon, scale=scale)
    transductive = cfg["environment"]["transductive"]

    start = time.perf_counter()
    runs = []
    for rep, child in enumerate(np.random.SeedSequence(cfg["seed"]).spawn(reps)):
        ctx_ss, learner_ss = child.spawn(2)
        contexts = context_dist.sample(np.random.default_rng(ctx_ss), size=horizon)
        source = ContextSequence(contexts, context_dist.num_contexts) if transductive else context_dist
        runs.append(
            _run_one(
                kind=cfg["learner"],
                learner_config=learner_config,
                policy_class=policy_class,
                schedule=schedule,
                source=source,
                contexts=contexts,
                rng=np.random.default_rng(learner_ss),
                seed=cfg["seed"],
                rep=rep,
            )
        )
    wall = time.perf_counter() - start

    regrets = np.stack([r.cumulative_regret for r in runs])
    realized = np.stack([r.cumulative_realized_regret for r in runs])
    if reps > 1:
        stderr = regrets.std(axis=0, ddof=1) / math.sqrt(reps)
        stderr_realized = realized.std(axis=0, ddof=1) / math.sqrt(reps)
    else:
        stderr = np.zeros(horizon)
        stderr_realized = np.zeros(horizon)
    return ExperimentResult(
        config=cfg,
        scale=scale,
        out_of_regime=out_of_regime,
        runs=runs,
        mean_regret=regrets.mean(axis=0),
        stderr_regret=stderr,
        mean_realized_regret=realized.mean(axis=0),
        stderr_realized_regret=stderr_realized,
        bound=bound_curve(k, horizon, scale, max(num_policies, 2)),
        wall_time=wall,
        oracle_calls_total=sum(r.oracle_calls for r in runs),
    )


def _run_one(
    kind: str,
    learner_config: LearnerConfig,
    policy_class: PolicyClass,
    schedule: CostSchedule,
    source: ContextSource,
    contexts: np.ndarray,
    rng: np.random.Generator,
    seed: int,
    rep: int,
) -> RunResult:
    horizon, k = learner_config.T, learner_config.K
    by_context = np.subtract(policy_class.table.T, 1, order="C")  # row x: every policy's action index at x
    per_policy = np.zeros(policy_class.num_policies)
    played = np.empty(horizon, dtype=np.int64)
    expected = np.empty(horizon)
    regret = np.empty(horizon)
    realized_regret = np.empty(horizon)

    oracle = None
    if kind == "relax":
        oracle = ValueOracle(policy_class)
        learner = RelaxationLearner(learner_config, oracle, source)
    elif kind == "exp4":
        learner = Exp4Learner(policy_class, horizon)
    else:
        learner = UniformLearner(k)

    min_play = math.inf
    cum_expected = 0.0
    cum_realized = 0.0
    for t in range(1, horizon + 1):
        x = int(contexts[t - 1])
        cvec = schedule.costs[t - 1]
        record = learner.play_round(x, lambda a: cvec[a - 1], rng)
        dist = record.played_dist
        played[t - 1] = record.played_action
        expected[t - 1] = float(dist.probs @ cvec)
        min_play = min(min_play, float(dist.probs.min()))
        per_policy += cvec[by_context[x]]
        prefix_best = float(per_policy.min())
        cum_expected += expected[t - 1]
        cum_realized += record.observed_cost
        regret[t - 1] = cum_expected - prefix_best
        realized_regret[t - 1] = cum_realized - prefix_best

    raw_coin = learner.max_raw_coin_prob if oracle is not None else 0.0
    return RunResult(
        played_actions=played,
        expected_costs=expected,
        cumulative_regret=regret,
        cumulative_realized_regret=realized_regret,
        comparator_loss=float(per_policy.min()),
        oracle_calls=oracle.stats.calls if oracle is not None else 0,
        seed=seed,
        rep=rep,
        min_play_prob=min_play,
        max_coin_prob=min(raw_coin, 1.0),
        max_raw_coin_prob=raw_coin,
    )


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def emit_outputs(result: ExperimentResult, out_dir) -> dict:
    """Write the canonical CSV, the realized-cost CSV and the JSON summary.

    The CSVs are a pure function of (config, seed): re-running the same
    experiment reproduces them byte for byte.  Wall time lives only in the
    summary JSON.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    horizon = result.horizon

    regret_path = out / "regret.csv"
    lines = ["round,mean_regret,stderr_regret,bound"]
    for r in range(horizon):
        lines.append(
            f"{r + 1},{_fmt(result.mean_regret[r])},{_fmt(result.stderr_regret[r])},{_fmt(result.bound[r])}"
        )
    regret_path.write_text("\n".join(lines) + "\n", newline="\n")

    realized_path = out / "realized_regret.csv"
    lines = ["round,mean_regret_realized,stderr_regret_realized"]
    for r in range(horizon):
        lines.append(
            f"{r + 1},{_fmt(result.mean_realized_regret[r])},{_fmt(result.stderr_realized_regret[r])}"
        )
    realized_path.write_text("\n".join(lines) + "\n", newline="\n")

    summary = {
        "config": result.config,
        "learner": result.config["learner"],
        "horizon": horizon,
        "reps": result.config["reps"],
        "scale": result.scale,
        "out_of_regime": result.out_of_regime,
        "final_regret_mean": float(result.mean_regret[-1]),
        "final_regret_stderr": float(result.stderr_regret[-1]),
        "final_realized_regret_mean": float(result.mean_realized_regret[-1]),
        "final_bound": float(result.bound[-1]),
        "comparator_loss_mean": float(np.mean([r.comparator_loss for r in result.runs])),
        "per_rep_final_regret": [float(r.final_regret) for r in result.runs],
        "oracle_calls_total": result.oracle_calls_total,
        "min_play_prob": float(min(r.min_play_prob for r in result.runs)),
        "max_coin_prob": float(max(r.max_coin_prob for r in result.runs)),
        "wall_time_seconds": result.wall_time,
    }
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", newline="\n")

    result.paths = {
        "regret_csv": regret_path,
        "realized_csv": realized_path,
        "summary_json": summary_path,
    }
    return result.paths
