"""Span recorder for the traced run, the wrappers that feed it, and the
per-layer metrics it yields.

A span is a name, a start, an end and the index of its parent span.
Each wrapped public function opens a span on entry and closes it on
return.  The Euler-rooting iterator opens one span per rooting it
produces, so its self time is the time spent inside the enumerator and
not in the caller's loop body.  A span's self time is its duration minus
the durations of its child spans.  Spans stay in memory until the caller
turns them into metrics.

``traces``, ``composition`` and ``estrada`` bind ``enumerate_rootings``,
``contribution_parts``, ``trace`` and ``canonical_form`` by name, so a
wrapper must replace the function at every module that holds it, not
only where it is defined.  ``Instrumented`` does that for every
``hypertrace`` module loaded.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterator

WRAPPED = {
    "hypertrace.euler": ("enumerate_rootings", "contribution_parts", "build_digraph",
                         "arborescence_count"),
    "hypertrace.traces": ("trace", "trace_local", "trace_table"),
    "hypertrace.hypergraph": ("canonical_form", "enumerate_hypertrees"),
    "hypertrace.estrada": ("estrada_index", "extremal_scan"),
    "hypertrace.composition": ("local_trace_profile", "coalescence_local_trace",
                               "relocation_difference", "audit_path_shift",
                               "audit_edge_shift", "audit_cored_shift"),
}
GENERATORS = frozenset({"euler.enumerate_rootings"})


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(index)
        self.spans.append([name, perf_counter(), 0.0, parent])
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def observe(self, name: str, args: tuple, result: object) -> None:
        """Work counters taken from a wrapped call's arguments and result."""
        if name == "euler.arborescence_count":
            size = len(args[0].vertices) - 1
            self.counters["euler.minors"] += 1
            self.counters["euler.minor_size_sum"] += size
            self.maxima["euler.minor_size_max"] = max(self.maxima["euler.minor_size_max"], size)
        elif name in ("traces.trace", "traces.trace_local"):
            self._bits(result)
        elif name == "traces.trace_table":
            for value in result.entries.values():
                self._bits(value)
        elif name == "hypergraph.enumerate_hypertrees":
            self.counters["hypergraph.classes"] += len(result)
        elif name == "estrada.estrada_index":
            self.maxima["estrada.depth_max"] = max(self.maxima["estrada.depth_max"], result.depth)
            self.counters["estrada.trace_orders"] += len(result.traces) - 1
        elif name == "composition.local_trace_profile":
            self.counters["composition.profile_entries"] += len(result.entries)
        elif name.startswith("composition.audit_"):
            self.counters["composition.audit_rows"] += len(result.rows)

    def _bits(self, value) -> None:
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
        self.maxima["traces.result_bits_max"] = max(self.maxima["traces.result_bits_max"], bits)


def _wrap_call(recorder: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        recorder.observe(name, args, result)
        return result

    return wrapper


def _wrap_generator(recorder: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs) -> Iterator:
        recorder.counters[f"{name}.calls"] += 1
        items = fn(*args, **kwargs)
        while True:
            index = recorder.open(name)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                recorder.close(index)
            recorder.counters[f"{name}.items"] += 1
            yield item

    return wrapper


class Instrumented:
    """Context manager that routes every wrapped function through a recorder.

    On entry each function in ``WRAPPED`` is replaced, in every loaded
    ``hypertrace`` module that binds it, by a wrapper; on exit the
    originals are put back.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.originals: dict[int, tuple[Callable, Callable]] = {}
        self.sites: list[tuple[object, str, Callable]] = []

    def __enter__(self) -> "Instrumented":
        for module_name, functions in WRAPPED.items():
            module = importlib.import_module(module_name)
            for function in functions:
                fn = getattr(module, function)
                name = f"{module_name.rsplit('.', 1)[-1]}.{function}"
                wrap = _wrap_generator if name in GENERATORS else _wrap_call
                self.originals[id(fn)] = (fn, wrap(self.recorder, name, fn))
        for module in hypertrace_modules():
            for attr, value in list(vars(module).items()):
                pair = self.originals.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])
                    self.sites.append((module, attr, value))
        return self

    def __exit__(self, *exc_info) -> None:
        for module, attr, value in self.sites:
            setattr(module, attr, value)
        self.sites.clear()

    def unwrapped_sites(self) -> list[str]:
        """Module attributes that still hold an original function."""
        originals = {id(fn) for fn, _ in self.originals.values()}
        return [
            f"{module.__name__}.{attr}"
            for module in hypertrace_modules()
            for attr, value in vars(module).items()
            if id(value) in originals
        ]


def hypertrace_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if name == "hypertrace" or name.startswith("hypertrace.")]


# --- per-layer metrics ----------------------------------------------------

# name -> unit, in the order they are reported
LAYER_METRICS = {
    "euler.enumerate_s": "s",
    "euler.rootings": "count",
    "euler.enumerate_calls": "count",
    "euler.rootings_per_s": "1/s",
    "euler.contribution_s": "s",
    "euler.build_digraph_s": "s",
    "euler.arborescence_s": "s",
    "euler.minor_size_max": "count",
    "euler.minor_size_mean": "count",
    "traces.calls": "count",
    "traces.self_s": "s",
    "traces.result_bits_max": "bits",
    "hypergraph.canonical_calls": "count",
    "hypergraph.canonical_s": "s",
    "hypergraph.canonical_max_s": "s",
    "hypergraph.enumerate_hypertrees_s": "s",
    "hypergraph.classes": "count",
    "estrada.calls": "count",
    "estrada.self_s": "s",
    "estrada.depth_max": "count",
    "estrada.trace_orders": "count",
    "estrada.scan_self_s": "s",
    "composition.profile_calls": "count",
    "composition.profile_s": "s",
    "composition.profile_entries": "count",
    "composition.compose_s": "s",
    "composition.audit_s": "s",
    "composition.audit_rows": "count",
}

TRACE_FUNCTIONS = ("traces.trace", "traces.trace_local", "traces.trace_table")
COMPOSE_FUNCTIONS = ("composition.coalescence_local_trace", "composition.relocation_difference")
AUDIT_FUNCTIONS = ("composition.audit_path_shift", "composition.audit_edge_shift",
                   "composition.audit_cored_shift")


def span_totals(recorder: Recorder) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
    """Self time, span count and longest span per name."""
    spans = recorder.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    longest: dict[str, float] = defaultdict(float)
    for (name, start, end, _), children in zip(spans, child_time):
        self_time[name] += end - start - children
        count[name] += 1
        longest[name] = max(longest[name], end - start)
    return self_time, count, longest


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    self_time, count, longest = span_totals(recorder)
    c, mx = recorder.counters, recorder.maxima
    enumerate_s = self_time["euler.enumerate_rootings"]
    rootings = c["euler.enumerate_rootings.items"]
    minors = c["euler.minors"]
    values = {
        "euler.enumerate_s": enumerate_s,
        "euler.rootings": rootings,
        "euler.enumerate_calls": c["euler.enumerate_rootings.calls"],
        "euler.rootings_per_s": rootings / enumerate_s if enumerate_s else 0.0,
        "euler.contribution_s": self_time["euler.contribution_parts"],
        "euler.build_digraph_s": self_time["euler.build_digraph"],
        "euler.arborescence_s": self_time["euler.arborescence_count"],
        "euler.minor_size_max": mx["euler.minor_size_max"],
        "euler.minor_size_mean": c["euler.minor_size_sum"] / minors if minors else 0.0,
        "traces.calls": sum(count[n] for n in TRACE_FUNCTIONS),
        "traces.self_s": sum(self_time[n] for n in TRACE_FUNCTIONS),
        "traces.result_bits_max": mx["traces.result_bits_max"],
        "hypergraph.canonical_calls": count["hypergraph.canonical_form"],
        "hypergraph.canonical_s": self_time["hypergraph.canonical_form"],
        "hypergraph.canonical_max_s": longest["hypergraph.canonical_form"],
        "hypergraph.enumerate_hypertrees_s": self_time["hypergraph.enumerate_hypertrees"],
        "hypergraph.classes": c["hypergraph.classes"],
        "estrada.calls": count["estrada.estrada_index"],
        "estrada.self_s": self_time["estrada.estrada_index"],
        "estrada.depth_max": mx["estrada.depth_max"],
        "estrada.trace_orders": c["estrada.trace_orders"],
        "estrada.scan_self_s": self_time["estrada.extremal_scan"],
        "composition.profile_calls": count["composition.local_trace_profile"],
        "composition.profile_s": self_time["composition.local_trace_profile"],
        "composition.profile_entries": c["composition.profile_entries"],
        "composition.compose_s": sum(self_time[n] for n in COMPOSE_FUNCTIONS),
        "composition.audit_s": sum(self_time[n] for n in AUDIT_FUNCTIONS),
        "composition.audit_rows": c["composition.audit_rows"],
    }
    assert values.keys() == LAYER_METRICS.keys()
    return values


def layer_shares(recorder: Recorder, wall: float) -> dict[str, float]:
    """Each module's self time as a share of the pass's wall time; the
    rest is time outside any wrapped function."""
    self_time, _, _ = span_totals(recorder)
    shares: dict[str, float] = defaultdict(float)
    for name, seconds in self_time.items():
        shares[name.split(".", 1)[0]] += seconds / wall
    shares["unwrapped"] = 1.0 - sum(shares.values())
    return dict(shares)


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
