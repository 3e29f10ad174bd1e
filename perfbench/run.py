"""relaxcb benchmark: one workload per process, driven through the public CLI.

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 40 --trace 0

Run from the repository root.  The workload's config is generated from
``--seed`` and handed to ``relaxcb.cli.main(["run", ...])`` (or
``relaxcb.cli.main(["verify"])``), repeatedly until ``--seconds`` are used
up.  Every output is checked against ``check.py``.  The last stdout line is
one JSON object: end-to-end metrics with ``--trace 0``, per-layer metrics
(from a traced run alternated with an untraced one) with ``--trace 1``.
See README.md for the workloads and what each metric should move.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # pin BLAS pools before numpy loads

import argparse
import contextlib
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import check
from spans import Tracer, resolve

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("acceptance", "wide_class", "verify")
SETUPS_PER_SAMPLE = 3


class BenchError(RuntimeError):
    """The benchmark cannot run: missing package or a hook it needs is gone."""


class RoundOne(Exception):
    """Raised by the set-up probe when the learner is asked for round 1."""


def make_config(workload: str, seed: int) -> dict | None:
    """The run config for ``workload``; its seeds all derive from ``seed``."""
    if workload == "verify":
        return None
    master, table_seed, adversary_seed = (int(s) for s in np.random.SeedSequence(seed).generate_state(3))
    if workload == "acceptance":
        k, horizon, reps, n, u = 5, 2000, 2, 50, 10
        adversary = {"type": "stochastic-gap", "delta": 0.3, "seed": adversary_seed}
        transductive = False
    else:
        k, horizon, reps, n, u = 5, 500, 1, 5000, 50
        adversary = {"type": "policy-targeted", "delta": 0.3, "period": 50, "seed": adversary_seed}
        transductive = True
    return {
        "K": k, "T": horizon, "L": "auto", "learner": "relax", "reps": reps, "seed": master,
        "policyClass": {"type": "table", "seed": table_seed, "N": n, "U": u, "K": k},
        "environment": {
            "context": {"U": u, "probs": "uniform"},
            "adversary": adversary,
            "transductive": transductive,
        },
    }


def drop_relaxcb() -> None:
    """Forget every imported relaxcb module, so the next import starts from scratch.

    The dropped modules are collected here, outside any timed section, so
    that a timed run does not pay for collecting an earlier sample's garbage.
    """
    for name in [m for m in sys.modules if m == "relaxcb" or m.startswith("relaxcb.")]:
        del sys.modules[name]
    gc.collect()


def import_cli():
    try:
        return importlib.import_module("relaxcb.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import relaxcb from {SRC}: {exc}") from exc


def hook(module: str, qualname: str):
    found = resolve(module, qualname)
    if not found:
        raise BenchError(f"{module}.{qualname} is gone; the benchmark needs it")
    return found


class TimedLines:
    """A stdout stand-in that timestamps every completed line."""

    def __init__(self) -> None:
        self.lines: list[tuple[float, str]] = []
        self._partial = ""

    def write(self, text: str) -> int:
        self._partial += text
        *done, self._partial = self._partial.split("\n")
        now = time.perf_counter()
        self.lines.extend((now, line) for line in done)
        return len(text)

    def flush(self) -> None:
        pass


class Sample:
    """One full experiment: wall time, oracle calls, outputs and traced spans."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.oracle_calls = 0
        self.code = 0
        self.lines: list[tuple[float, str]] = []
        self.result = None
        self.tracer: Tracer | None = None
        self.start = 0.0


def setup_seconds(argv: list[str]) -> float:
    """Import relaxcb and build the instance, stopping where round 1 would start."""
    drop_relaxcb()
    start = time.perf_counter()
    cli = import_cli()
    if argv[0] == "run":
        owner, attr, original = hook("relaxcb.learner", "RelaxationLearner.play_round")

        def stop(*args, **kwargs):
            raise RoundOne

        setattr(owner, attr, stop)
        try:
            cli.main(argv)
        except RoundOne:
            pass
        else:
            raise BenchError("the run ended without playing a round")
        finally:
            setattr(owner, attr, original)
    return time.perf_counter() - start


def experiment(argv: list[str], traced: bool) -> Sample:
    """One full ``relaxcb`` command on freshly imported modules."""
    drop_relaxcb()
    cli = import_cli()
    sample = Sample()
    if traced:  # first, so that the hooks below wrap the traced functions
        sample.tracer = Tracer()
        sample.tracer.install()
    oracles = []
    owner, attr, init = hook("relaxcb.policies", "ValueOracle.__init__")

    def recording_init(self, *args, **kwargs):
        oracles.append(self)
        init(self, *args, **kwargs)

    setattr(owner, attr, recording_init)
    if argv[0] == "run":
        owner, attr, emit = hook("relaxcb.cli", "emit_outputs")

        def capturing_emit(result, out_dir):
            sample.result = result
            return emit(result, out_dir)

        setattr(owner, attr, capturing_emit)
    stdout = TimedLines()
    sample.start = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        sample.code = cli.main(argv)
    sample.seconds = time.perf_counter() - sample.start
    sample.lines = stdout.lines
    sample.oracle_calls = sum(o.stats.calls for o in oracles)
    return sample


def host_probe_ms() -> float:
    """A fixed pure-Python plus numpy computation; tells a slow host from a slow program."""
    start = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    mat = np.arange(40_000, dtype=float).reshape(200, 200) / 40_000
    for _ in range(50):
        mat = np.tanh(mat @ mat[:, ::-1])
    return (time.perf_counter() - start) * 1e3


def suite_seconds(sample: Sample) -> dict[str, float]:
    """Per-suite wall time of ``relaxcb verify``: the gap between its verdict lines."""
    out, previous = {}, sample.start
    for stamp, line in sample.lines:
        if line.startswith(("[PASS] ", "[FAIL] ")):
            out[line[7:].split(":", 1)[0]] = stamp - previous
            previous = stamp
    return out


def layer_metrics(sample: Sample, rounds: int) -> dict[str, float]:
    """Per-layer figures of one traced experiment.

    ``rounds`` is the number of learner rounds (T x reps) for ``run``; for
    ``verify`` it is the number of estimator coins drawn, one per simulated
    round of the unbiasedness suite.
    """
    tr = sample.tracer
    if rounds == 0:
        rounds = tr.calls("coin")
    per_round = (lambda s: s / rounds * 1e6) if rounds else (lambda s: 0.0)
    calls = tr.calls("oracle")
    suites = suite_seconds(sample)
    return {
        "policies.oracle_us_per_call": tr.total("oracle") / calls * 1e6 if calls else 0.0,
        "policies.oracle_us_per_round": per_round(tr.total("oracle")),
        "policies.oracle_calls": calls,
        "learner.future_draw_us_per_round": per_round(tr.total("future_draw")),
        "learner.future_draw_values_per_round": tr.values("future_draw") / rounds if rounds else 0.0,
        "learner.aggregate_us_per_round": per_round(tr.total("aggregate_future", "aggregate_past")),
        "learner.play_us_per_round": per_round(tr.total("play")),
        "learner.round_self_us": per_round(tr.self_time("round")),
        "core.coin_estimate_us_per_round": per_round(tr.total("coin", "estimate", "action_sample")),
        "harness.bookkeeping_us_per_round": per_round(tr.self_time("experiment")),
        "harness.emit_s": tr.total("emit"),
        "harness.policy_class_s": tr.total("policy_class"),
        "environments.adversary_s": tr.total("adversary"),
        "verify.minimax_s": suites.get("minimax", 0.0),
        "verify.unbiasedness_s": suites.get("unbiasedness", 0.0),
        "verify.perturbation_s": suites.get("perturbation-bound", 0.0),
        "verify.admissibility_s": suites.get("admissibility", 0.0),
    }


UNITS = {
    "run_s": "s", "oracle_calls_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
    "policies.oracle_calls": "count", "learner.future_draw_values_per_round": "count",
    "host.probe_ms": "ms", "trace.overhead_s": "s",
}


def unit_of(name: str) -> str:
    return UNITS.get(name) or ("us" if "_us" in name else "s")


class Bench:
    def __init__(self, workload: str, seed: int) -> None:
        self.cfg = make_config(workload, seed)
        if self.cfg is None:
            self.argv = ["verify"]
            self.reference = None
            self.rounds = 0
        else:
            config_path = OUT / "config.json"
            config_path.write_text(json.dumps(self.cfg, indent=1))
            self.argv = ["run", "--config", str(config_path), "--out", str(OUT / "run")]
            self.reference = check.Reference(self.cfg)
            self.rounds = self.cfg["T"] * self.cfg["reps"]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_csvs: bytes | None = None

    def run(self, traced: bool) -> Sample | None:
        """One experiment plus its output checks; None when it raised."""
        self.attempted += 1
        try:
            sample = experiment(self.argv, traced)
        except BenchError:
            raise
        except Exception as exc:  # a crashing experiment counts as failed, the run goes on
            self.failed += 1
            print(f"experiment failed: {exc!r}", file=sys.stderr)
            return None
        if self.reference is None:
            self.problems += check.check_verify(sample.code, [line for _, line in sample.lines])
        else:
            self.problems += self.check_run(sample)
        if traced and self.reference is not None and sample.tracer.calls("oracle") != sample.oracle_calls:
            self.problems.append("traced oracle count disagrees with the oracle's own count")
        return sample

    def check_run(self, sample: Sample) -> list[str]:
        if sample.code != 0:
            return [f"relaxcb run exited with {sample.code}"]
        out = OUT / "run"
        try:
            regret_csv = (out / "regret.csv").read_bytes()
            csvs = regret_csv + b"\0" + (out / "realized_regret.csv").read_bytes()
            summary = json.loads((out / "summary.json").read_text())
        except (OSError, ValueError) as exc:
            return [f"unreadable run outputs: {exc}"]
        finally:
            shutil.rmtree(out, ignore_errors=True)  # the next sample must write its own
        problems = check.check_run(self.reference, sample.result, summary, regret_csv)
        if self.first_csvs is None:
            self.first_csvs = csvs
        elif csvs != self.first_csvs:
            problems.append("re-run CSVs are not byte-identical")
        sample.result = None
        return problems


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def measure(bench: Bench, seconds: float, trace: bool) -> dict[str, float]:
    """Repeat whole samples until the next one would overrun ``seconds``."""
    deadline = time.perf_counter() + seconds
    untraced, traced, setups, probes = [], [], [], []
    peak_rss_mb = 0.0
    n = 0
    while True:
        began = time.perf_counter()
        if trace:
            probes.append(host_probe_ms())
            for is_traced in ((False, True) if n % 2 == 0 else (True, False)):
                sample = bench.run(is_traced)
                if sample is not None:
                    (traced if is_traced else untraced).append(sample)
        else:
            sample = bench.run(False)
            if sample is not None:
                untraced.append(sample)
            if n == 0:
                # The high-water mark of one experiment in a fresh process;
                # later re-imports leave garbage that would make it grow with
                # the number of samples, and so with host speed.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setups += [setup_seconds(bench.argv) for _ in range(SETUPS_PER_SAMPLE)]
        n += 1
        now = time.perf_counter()
        if n >= (1 if trace else 2) and now + (now - began) > deadline:
            break
    if not trace:
        return {
            "run_s": median([s.seconds for s in untraced]),
            "oracle_calls_per_s": median([s.oracle_calls / s.seconds for s in untraced]),
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
    per_sample = [layer_metrics(s, bench.rounds) for s in traced]
    metrics = {name: median([m[name] for m in per_sample]) for name in per_sample[0]} if per_sample else {}
    metrics["host.probe_ms"] = median(probes)
    metrics["trace.overhead_s"] = median([s.seconds for s in traced]) - median([s.seconds for s in untraced])
    absent = sorted({name for s in traced for name in s.tracer.absent})
    if absent:
        print("absent layers (reported as 0): " + ", ".join(absent))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "relaxcb" / "cli.py").is_file():
        print(f"error: no relaxcb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Set-up samples re-import relaxcb; let them load cached bytecode as an
    # installed package would, whatever PYTHONDONTWRITEBYTECODE says.
    sys.dont_write_bytecode = False
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()
    try:
        import_cli()  # first import also loads numpy's extras; not a set-up sample
        bench = Bench(args.workload, args.seed)
        metrics = measure(bench, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    for problem in list(dict.fromkeys(bench.problems))[:20]:
        print(f"check failed: {problem}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
