"""Span tracer that wraps dpsurvey's public functions from outside the package.

The traced benchmark process installs wrappers at the import sites the
pipeline and the oracle call through (module attributes and class methods),
so nothing under ``src/`` has to know it is being measured.  Two kinds of
wrapper exist:

* span wrappers record one span per call (name, start, end, parent span,
  op id); spans stay in memory and are written when the run ends;
* leaf wrappers are for calls made thousands of times per op (record
  lookups, randomized-response channel evaluations, neighbor pairs): they
  add time and a call count to the current op instead of storing a span.

A span's self time is its duration minus the time its child spans and
leaf calls cover.  Every wrapped call is timed on ``time.perf_counter``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from contextlib import contextmanager

clock = time.perf_counter


def _size(value) -> int:
    return len(value)


def _frame_rows(frame) -> int:
    return frame.n


def _sample_units(sample) -> int:
    return len(sample.ids)


# (dotted import site, metric group, kind, optional count of the result).
# "weighting.*" expands to every public function of that module.
TARGETS = (
    ("dpsurvey.pipeline.load_frame_csv", "frames.load", "span", ("frames.rows", _frame_rows)),
    ("dpsurvey.frames.Frame.record_by_id", "frames.lookup", "leaf", None),
    ("dpsurvey.frames.Frame.strata", "frames.group", "leaf", None),
    ("dpsurvey.frames.Frame.clusters", "frames.group", "leaf", None),
    ("dpsurvey.frames.Frame.with_y", "frames.copy", "leaf", None),
    ("dpsurvey.frames.Frame.with_x", "frames.copy", "leaf", None),
    ("dpsurvey.designs.draw", "designs.draw", "span", ("designs.sample_units", _sample_units)),
    ("dpsurvey.designs.inclusion_probs", "designs.pi", "span", None),
    ("dpsurvey.pipeline.inclusion_probs", "designs.pi", "span", None),
    ("dpsurvey.audit.inclusion_probs", "designs.pi", "span", None),
    ("dpsurvey.designs.allocate_strata", "designs.allocate", "span", None),
    ("dpsurvey.audit.allocate_strata", "designs.allocate", "span", None),
    ("dpsurvey.audit.sample_space", "designs.space", "span", ("designs.space_outcomes", _size)),
    ("dpsurvey.audit.neighbors", "audit.neighbors", "pairs", None),
    ("dpsurvey.weighting.*", "weighting.adjust", "span", None),
    ("dpsurvey.pipeline.fit_dp_regression", "imputation.fit", "span", None),
    ("dpsurvey.pipeline.fit_dp_mean_model", "imputation.fit", "span", None),
    ("dpsurvey.pipeline.impute_parametric", "imputation.impute", "leaf", None),
    ("dpsurvey.pipeline.ht_mean", "estimators.estimate", "span", None),
    ("dpsurvey.pipeline.ht_total", "estimators.estimate", "span", None),
    ("dpsurvey.pipeline.unweighted_mean", "estimators.estimate", "span", None),
    ("dpsurvey.pipeline.release_laplace", "mechanisms.release", "span", None),
    ("dpsurvey.mechanisms.PrivacyLedger.charge", "mechanisms.ledger", "leaf", None),
    ("dpsurvey.audit.RandomizedResponse.event_probs", "audit.channel", "leaf", None),
)


# Per-layer metric -> (how it is derived from one op's trace, key).
#   span_time   summed duration of the group's outermost spans (inclusive)
#   span_calls  number of the group's spans
#   self_time   summed self time of the op's root spans of that group
#   leaf_time / leaf_calls   aggregated leaf-call time and count
#   value       a count made by a wrapper, or a value the op itself set
#   coverage    share of the op's root-span time covered by child spans
LAYER_METRICS = {
    "frames.load_s": ("span_time", "frames.load"),
    "frames.rows": ("value", "frames.rows"),
    "frames.lookup_s": ("leaf_time", "frames.lookup"),
    "frames.lookup_calls": ("leaf_calls", "frames.lookup"),
    "frames.group_s": ("leaf_time", "frames.group"),
    "frames.group_calls": ("leaf_calls", "frames.group"),
    "frames.copy_s": ("leaf_time", "frames.copy"),
    "frames.copy_calls": ("leaf_calls", "frames.copy"),
    "designs.draw_s": ("span_time", "designs.draw"),
    "designs.draw_warm_s": ("value", "designs.draw_warm_s"),
    "designs.sample_units": ("value", "designs.sample_units"),
    "designs.pi_s": ("span_time", "designs.pi"),
    "designs.pi_calls": ("span_calls", "designs.pi"),
    "designs.allocate_s": ("span_time", "designs.allocate"),
    "designs.space_s": ("span_time", "designs.space"),
    "designs.space_calls": ("span_calls", "designs.space"),
    "designs.space_outcomes": ("value", "designs.space_outcomes"),
    "weighting.adjust_s": ("span_time", "weighting.adjust"),
    "weighting.calls": ("span_calls", "weighting.adjust"),
    "imputation.fit_s": ("span_time", "imputation.fit"),
    "imputation.impute_s": ("leaf_time", "imputation.impute"),
    "imputation.imputed": ("leaf_calls", "imputation.impute"),
    "estimators.estimate_s": ("span_time", "estimators.estimate"),
    "mechanisms.release_s": ("span_time", "mechanisms.release"),
    "mechanisms.release_calls": ("span_calls", "mechanisms.release"),
    "mechanisms.ledger_charges": ("leaf_calls", "mechanisms.ledger"),
    "pipeline.self_s": ("self_time", "pipeline"),
    "audit.self_s": ("self_time", "audit"),
    "audit.neighbors_s": ("leaf_time", "audit.neighbors"),
    "audit.pairs": ("value", "audit.pairs"),
    "audit.datasets": ("value", "audit.datasets"),
    "audit.channel_s": ("leaf_time", "audit.channel"),
    "audit.channel_calls": ("leaf_calls", "audit.channel"),
    "audit.categories": ("value", "audit.categories"),
    "trace.coverage": ("coverage", None),
}


class _Span:
    __slots__ = ("id", "parent", "op", "name", "group", "start", "end", "child", "outer")

    def __init__(self, span_id, parent, op, name, group, start, outer):
        self.id = span_id
        self.parent = parent
        self.op = op
        self.name = name
        self.group = group
        self.start = start
        self.end = None
        self.child = 0.0      # time covered by child spans and leaf calls
        self.outer = outer    # no enclosing span of the same group

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """Collects spans and leaf aggregates per op; ``install`` patches targets."""

    def __init__(self):
        self.spans: list[_Span] = []
        self.missing: list[str] = []
        self.wrapped: list[str] = []
        self.op = None
        self.on = True
        self._stack: list[_Span] = []
        self._depth: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.leaves: dict[str, list] = {}     # group -> [time, calls], current op
        self.values: dict[str, float] = {}    # counted per-layer values, current op
        self.last_result: dict[str, object] = {}

    # -- op lifecycle -------------------------------------------------------

    def begin_op(self, op) -> None:
        self.op = op
        self.leaves = {}
        self.values = {}
        self.last_result = {}

    def count(self, name: str, amount: int) -> None:
        self.values[name] = self.values.get(name, 0) + amount

    @contextmanager
    def paused(self):
        self.on = False
        try:
            yield
        finally:
            self.on = True

    @contextmanager
    def span(self, name: str, group: str):
        """Span around a block of the benchmark's own code (the op roots)."""
        record = self._open(name, group)
        try:
            yield record
        finally:
            self._close(record)

    def _open(self, name: str, group: str) -> _Span:
        depth = self._depth.get(group, 0)
        self._depth[group] = depth + 1
        parent = self._stack[-1].id if self._stack else None
        record = _Span(len(self.spans), parent, self.op, name, group, clock(), depth == 0)
        self.spans.append(record)
        self._stack.append(record)
        return record

    def _close(self, record: _Span) -> None:
        record.end = clock()
        self._stack.pop()
        self._depth[record.group] -= 1
        if self._stack:
            self._stack[-1].child += record.duration

    def _leaf(self, group: str, elapsed: float, calls: int = 1) -> None:
        acc = self.leaves.get(group)
        if acc is None:
            acc = self.leaves[group] = [0.0, 0]
        acc[0] += elapsed
        acc[1] += calls
        if self._stack:
            self._stack[-1].child += elapsed

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, name, group, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            record = tracer._open(name, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record)
            tracer.last_result[group] = result
            if counter is not None:
                metric, count_of = counter
                try:
                    tracer.count(metric, count_of(result))
                except (AttributeError, TypeError):  # the result changed shape
                    if f"{name} -> {metric}" not in tracer.missing:
                        tracer.missing.append(f"{name} -> {metric}")
            return result

        return wrapper

    def _leaf_wrapper(self, fn, group):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leaf(group, clock() - start)

        return wrapper

    def _pairs_wrapper(self, fn, group):
        """Times every ``next()`` of a neighbor-pair generator, counts pairs
        and the distinct base datasets they start from."""
        tracer = self

        def wrapper(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            previous_base = None
            while True:
                start = clock()
                try:
                    pair = next(iterator)
                except StopIteration:
                    if tracer.on:
                        tracer._leaf(group, clock() - start, 0)
                    return
                if tracer.on:
                    tracer._leaf(group, clock() - start)
                    tracer.count("audit.pairs", 1)
                    base = pair[0]
                    try:
                        new_base = bool(base != previous_base)
                    except (TypeError, ValueError):  # e.g. array-valued datasets
                        new_base = base is not previous_base
                    if new_base:
                        tracer.count("audit.datasets", 1)
                        previous_base = base
                yield pair

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Patch every resolvable target; unresolvable ones go to ``missing``."""
        for dotted, group, kind, counter in targets:
            for site in _expand(dotted):
                owner, attr, fn = _resolve(site)
                if fn is None or not callable(fn):
                    self.missing.append(site)
                    continue
                if kind == "span":
                    wrapper = self._span_wrapper(fn, site, group, counter)
                elif kind == "leaf":
                    wrapper = self._leaf_wrapper(fn, group)
                else:
                    wrapper = self._pairs_wrapper(fn, group)
                self._restore.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
                self.wrapped.append(site)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reporting ------------------------------------------------------------

    def op_metrics(self, op) -> dict[str, float]:
        """Every LAYER_METRICS value for one finished op."""
        spans = [s for s in self.spans if s.op == op]
        metrics = {}
        for name, (source, key) in LAYER_METRICS.items():
            if source == "span_time":
                value = sum(s.duration for s in spans if s.group == key and s.outer)
            elif source == "span_calls":
                value = sum(1 for s in spans if s.group == key)
            elif source == "self_time":
                value = sum(s.self_time for s in spans if s.group == key and s.parent is None)
            elif source == "leaf_time":
                value = self.leaves.get(key, (0.0, 0))[0]
            elif source == "leaf_calls":
                value = self.leaves.get(key, (0.0, 0))[1]
            elif source == "coverage":
                roots = [s for s in spans if s.parent is None]
                total = sum(s.duration for s in roots)
                value = sum(s.child for s in roots) / total if total > 0 else 0.0
            else:
                value = self.values.get(key, 0)
            metrics[name] = value
        return metrics

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s.id, "parent": s.parent, "op": s.op, "name": s.name,
                    "start": s.start, "end": s.end, "self": s.self_time}) + "\n")


def _expand(dotted: str) -> list[str]:
    if not dotted.endswith(".*"):
        return [dotted]
    module_name = dotted[:-2]
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return [dotted]
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    return [f"{module_name}.{name}" for name in names
            if inspect.isfunction(getattr(module, name, None))]


def _resolve(dotted: str):
    """(owner, attribute, current value) for a dotted site, or a None value."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None, parts[-1], None
        # only patch attributes the owner defines itself, so uninstall restores them
        if parts[-1] not in getattr(owner, "__dict__", {}):
            return owner, parts[-1], None
        return owner, parts[-1], getattr(owner, parts[-1])
    return None, parts[-1], None
