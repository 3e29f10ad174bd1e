"""Command-line entry points: ``relaxcb run`` and ``relaxcb verify``."""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .environments import ContextDistribution
from .harness import LEARNERS, ConfigError, emit_outputs, run_experiment
from .learner import LearnerConfig
from .policies import random_policy_class
from .verify import admissibility_check, minimax_check, rademacher_bound_check, unbiasedness_check


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="relaxcb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a JSON config")
    run_p.add_argument("--config", required=True, help="path to the JSON run config")
    run_p.add_argument("--out", required=True, help="output directory for CSV/JSON")
    run_p.add_argument("--reps", type=int, default=None, help="override replication count")
    run_p.add_argument("--seed", type=int, default=None, help="override master seed")
    run_p.add_argument("--learner", choices=LEARNERS, default=None)

    verify_p = sub.add_parser("verify", help="run the property suites and print pass/fail")
    verify_p.add_argument("--seed", type=int, default=2024)
    verify_p.add_argument("--quick", action="store_true", help="smaller sample sizes")

    args = parser.parse_args(argv)
    if args.command == "verify" and args.seed < 0:  # numpy.random.SeedSequence needs >= 0
        verify_p.error(f"argument --seed: must be >= 0, got {args.seed}")
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_verify(args)


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
        return 2
    overrides = {"reps": args.reps, "seed": args.seed, "learner": args.learner}
    if isinstance(config, dict):  # anything else is reported by validate_config
        config.update((key, value) for key, value in overrides.items() if value is not None)
    try:
        result = run_experiment(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        paths = emit_outputs(result, args.out)
    except OSError as exc:
        print(f"error: cannot write outputs to {args.out}: {exc}", file=sys.stderr)
        return 1
    print(
        f"{result.config['learner']}: final regret {result.final_regret_mean:.3f} "
        f"(bound {result.bound[-1]:.3f}, scale {result.scale:.4g}, "
        f"{result.config['reps']} reps, {result.wall_time:.1f}s)"
    )
    print(f"wrote {paths['regret_csv']}, {paths['realized_csv']}, {paths['summary_json']}")
    return 0


def _cmd_verify(args) -> int:
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    quick = args.quick
    checks: list[tuple[str, bool, str]] = []

    def report(name: str, ok: bool, detail: str) -> None:
        checks.append((name, ok, detail))
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")

    # Water-filling vs. grid search on random score instances.
    t0 = time.perf_counter()
    ok, worst_gap = minimax_check([(2, 1e-3, 10 if quick else 40), (3, 1e-2, 5 if quick else 20)], rng)
    report("minimax", ok, f"worst gap above grid minimum {worst_gap:.3g} ({time.perf_counter() - t0:.1f}s)")

    # Estimate unbiasedness through the real sampling path.
    res = unbiasedness_check(num_actions=4, scale=8.0, draws=20_000 if quick else 100_000, rng=rng)
    report("unbiasedness", res.passed(), f"worst coordinate at {res.worst_sigma:.2f} sigma")

    # Perturbation supremum against its analytic cap.
    check = rademacher_bound_check(
        horizon=200, moment_bound=8.0, num_policies=16, scale=4.0,
        num_actions=2, num_contexts=4, samples=2_000 if quick else 10_000, rng=rng,
    )
    report(
        "perturbation-bound",
        check.empirical <= check.bound,
        f"empirical {check.empirical:.2f} <= bound {check.bound:.2f}",
    )

    # One-step potential domination on tiny instances.
    ok = True
    margins = []
    for _ in range(1 if quick else 2):
        policy_class = random_policy_class(4, 2, 2, rng)
        config = LearnerConfig(K=2, T=2, scale=4.0)
        dist = ContextDistribution.uniform(2)
        adm = admissibility_check(policy_class, config, dist, [], 1_000 if quick else 4_000, rng)
        ok = ok and adm.passed()
        margins.append(adm.margin)
    report("admissibility", ok, "margins " + ", ".join(f"{m:.3f}" for m in margins))

    return 0 if all(ok for _, ok, _ in checks) else 1


if __name__ == "__main__":
    raise SystemExit(main())
