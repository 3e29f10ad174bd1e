"""Span tracing of relaxcb's layers from outside the package.

The traced run replaces named public functions and methods of the freshly
imported ``relaxcb`` modules with wrappers that time each call.  Spans nest:
a wrapper charges its duration to the enclosing span as child time, so a
span's self time is its duration minus the traced calls made inside it.
Nothing inside ``relaxcb`` is edited; a name that no longer exists (after a
refactor) is reported as absent and its metrics read 0.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

#: (label, module, qualified name) of every traced callable.
TRACED = (
    ("oracle", "relaxcb.policies", "ValueOracle.value_arrays"),
    ("future_draw", "relaxcb.learner", "sample_future"),
    ("aggregate_future", "relaxcb.learner", "future_loss_matrix"),
    ("aggregate_past", "relaxcb.learner", "past_loss_matrix"),
    ("play", "relaxcb.learner", "play_distribution"),
    ("round", "relaxcb.learner", "RelaxationLearner.play_round"),
    ("coin", "relaxcb.core", "draw_estimator_coin"),
    ("estimate", "relaxcb.core", "build_estimate"),
    ("action_sample", "relaxcb.core", "sample_index"),
    ("experiment", "relaxcb.harness", "run_experiment"),
    ("emit", "relaxcb.harness", "emit_outputs"),
    ("policy_class", "relaxcb.harness", "policy_class_from_config"),
    ("adversary", "relaxcb.environments", "make_adversary"),
)


class Span:
    __slots__ = ("calls", "total", "self_time", "values")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.values = 0


def values_returned(result) -> int:
    """Number of array entries a call returned (arrays held as attributes count)."""
    if isinstance(result, np.ndarray):
        return int(result.size)
    fields = getattr(result, "__dict__", {})
    return sum(int(v.size) for v in fields.values() if isinstance(v, np.ndarray))


def resolve(module: str, qualname: str):
    """Return (owner, attribute, current value), or None when the name is gone."""
    owner = sys.modules.get(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    value = getattr(owner, attr, None) if owner is not None else None
    return None if value is None else (owner, attr, value)


def replace_everywhere(original, replacement) -> None:
    """Rebind every ``relaxcb`` module global that refers to ``original``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "relaxcb" or name.startswith("relaxcb.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


class Tracer:
    """Per-label call counts, total and self times for one traced experiment."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []

    def install(self) -> None:
        """Wrap every traced name present in the currently imported package."""
        for label, module, qualname in TRACED:
            found = resolve(module, qualname)
            if found is None:
                self.absent.append(f"{module}.{qualname}")
                continue
            owner, attr, original = found
            wrapped = self._wrap(label, original)
            if "." in qualname:
                setattr(owner, attr, wrapped)
            else:
                replace_everywhere(original, wrapped)

    def _wrap(self, label: str, fn):
        span = self.spans.setdefault(label, Span())
        stack = self._stack
        count_values = label == "future_draw"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                span.calls += 1
                span.total += duration
                span.self_time += duration - children[0]
                if stack:
                    stack[-1][0] += duration
            if count_values:
                span.values += values_returned(result)
            return result

        return wrapper

    def total(self, *labels: str) -> float:
        return sum(self.spans[l].total for l in labels if l in self.spans)

    def self_time(self, label: str) -> float:
        return self.spans[label].self_time if label in self.spans else 0.0

    def calls(self, label: str) -> int:
        return self.spans[label].calls if label in self.spans else 0

    def values(self, label: str) -> int:
        return self.spans[label].values if label in self.spans else 0
