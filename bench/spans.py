"""Span tracing of twinassets from outside the package.

`install` rebinds the public functions of each module (and the few
private helpers a per-module metric needs) to wrappers that record a span
(id, parent id, name, thread, start, end) per call. Spans are kept in
memory and written out once by `Tracer.dump`; `layer_metrics` turns a
dumped trace into the per-module metrics. Counts are recorded at the
same boundaries: normals drawn from every substream generator, attributed
to the innermost span, and NoiseDraw fields read by their consumers.

The package is not edited: every hook is an attribute rebinding made by
the benchmark's own process after `import twinassets`.
"""

import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("seeding", "engine", "twin", "pricing", "harness", "cli")
# Private helpers that carry a per-module metric: grid/cell timing,
# option merging (part of parsing) and output writing.
PRIVATE = {"harness": ("_run_grid",), "cli": ("_merged_options", "_write_output")}


class Tracer:
    """In-memory span and counter store; safe to use from pool threads."""

    def __init__(self):
        self.spans = []  # (id, parent id or 0, name, thread ident, start ns, end ns)
        self.draws = []  # (innermost span name, normals drawn)
        self.reads = []  # normals read, one entry per NoiseDraw field first read
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple[int, str]:
        """(id, name) of the innermost open span on this thread, or (0, "")."""
        stack = self._stack()
        return stack[-1] if stack else (0, "")

    def call(self, name: str, fn, args, kwargs, parent: int | None = None):
        stack = self._stack()
        span_id = next(self._ids)
        if parent is None:
            parent = stack[-1][0] if stack else 0
        stack.append((span_id, name))
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, parent, name, threading.get_ident(), start, end))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def dump(self, path: str) -> None:
        draws = defaultdict(int)
        for name, count in self.draws:
            draws[name] += count
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "draws": draws, "reads": sum(self.reads)}, fh)


class _CountingGenerator:
    """Forwards to a numpy Generator, recording each standard_normal draw."""

    def __init__(self, rng, tracer: Tracer):
        self._rng = rng
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        out = self._rng.standard_normal(*args, **kwargs)
        self._tracer.draws.append((self._tracer.current()[1], int(np.size(out))))
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


class _NormProxy:
    """scipy.stats.norm with a traced `cdf`."""

    def __init__(self, dist, cdf):
        self._dist = dist
        self.cdf = cdf

    def __getattr__(self, name):
        return getattr(self._dist, name)


def _read_tracking(noise_cls, tracer: Tracer):
    """Subclass of NoiseDraw that records the size of each field on its first read."""
    fields = frozenset(f.name for f in dataclasses.fields(noise_cls))

    class ReadTrackingDraw(noise_cls):
        def __getattribute__(self, name):
            value = object.__getattribute__(self, name)
            if name in fields:
                seen = object.__getattribute__(self, "_seen")
                if name not in seen:
                    seen.add(name)
                    tracer.reads.append(int(np.size(value)))
            return value

    def track(draw):
        tracked = ReadTrackingDraw(**{name: getattr(draw, name) for name in fields})
        object.__setattr__(tracked, "_seen", set())
        return tracked

    return track


def install(tracer: Tracer, package) -> None:
    """Rebind every traced function of `package` to its span-recording wrapper."""
    modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and (not attr.startswith("_") or attr in PRIVATE.get(layer, ()))
            ):
                wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj)

    seeding, engine, pricing, harness, cli = (
        modules[m] for m in ("seeding", "engine", "pricing", "harness", "cli")
    )

    substream = seeding.substream
    wrapped[substream] = tracer.wrap(
        "seeding.substream",
        lambda *a, **k: _CountingGenerator(substream(*a, **k), tracer),
    )

    run_grid = harness._run_grid

    def traced_grid(grid, cell_fn, *args, **kwargs):
        # pool threads start with an empty span stack, so the cell spans
        # name the grid span as their parent explicitly
        parent = tracer.current()[0]

        def cell(*lm):
            return tracer.call("harness.cell", cell_fn, lm, {}, parent=parent)

        return run_grid(grid, cell, *args, **kwargs)

    wrapped[run_grid] = tracer.wrap("harness._run_grid", traced_grid)

    build_parser = cli.build_parser

    def traced_build_parser():
        parser = build_parser()
        parser.parse_args = tracer.wrap("cli.parse_args", parser.parse_args)
        return parser

    wrapped[build_parser] = tracer.wrap("cli.build_parser", traced_build_parser)

    for module in (package, *modules.values()):
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
            elif isinstance(obj, dict):  # dispatch tables such as cli._RUNNERS
                for key, value in obj.items():
                    if inspect.isfunction(value) and value in wrapped:
                        obj[key] = wrapped[value]

    sample = engine.NoiseDraw.sample.__func__
    track = _read_tracking(engine.NoiseDraw, tracer)
    engine.NoiseDraw.sample = classmethod(
        lambda cls, *a, **k: track(tracer.call("engine.NoiseDraw.sample", sample, (cls, *a), k))
    )
    pricing.norm = _NormProxy(pricing.norm, tracer.wrap("pricing.normal_cdf", pricing.norm.cdf))


def _covered_ns(start: int, end: int, intervals: list) -> int:
    """Length of [start, end] covered by the union of `intervals`."""
    covered, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-module metrics of one dumped trace.

    `<function>_s` is the summed duration of that function's spans (busy
    time over all threads, children included); `twin.relation_s` and
    `cli.run_self_s` are self times, a span's duration minus the part of
    it its child spans cover.
    """
    calls = defaultdict(int)
    total_ns = defaultdict(int)
    self_ns = defaultdict(int)
    children = defaultdict(list)
    for _, parent, _, _, start, end in trace["spans"]:
        children[parent].append((start, end))
    for span_id, _, name, _, start, end in trace["spans"]:
        calls[name] += 1
        total_ns[name] += end - start
        self_ns[name] += end - start - _covered_ns(start, end, children.get(span_id, []))

    def seconds(*names):
        return sum(total_ns[n] for n in names) / 1e9

    def self_seconds(prefix):
        return sum(v for n, v in self_ns.items() if n.startswith(prefix)) / 1e9

    draws = trace["draws"]
    drawn = sum(count for name, count in draws.items() if name.startswith("engine."))
    # simulate_paths consumes every normal it draws (both arrays enter the
    # log-returns); NoiseDraw fields count as read on first access
    read = trace["reads"] + draws.get("engine.simulate_paths", 0)
    return {
        "seeding.substream_calls": calls["seeding.substream"],
        "seeding.substream_s": seconds("seeding.substream"),
        "engine.normal_draws": drawn,
        "engine.noise_sample_s": seconds("engine.NoiseDraw.sample"),
        "engine.draws_used_ratio": read / drawn if drawn else 0.0,
        "engine.terminal_pair_s": seconds("engine.terminal_pair"),
        "engine.simulate_paths_s": seconds("engine.simulate_paths"),
        "twin.relation_s": self_seconds("twin."),
        "twin.deterministic_term_calls": calls["twin.deterministic_term"],
        "pricing.twin_call_calls": calls["pricing.twin_call"],
        "pricing.twin_call_s": seconds("pricing.twin_call"),
        "pricing.normal_cdf_calls": calls["pricing.normal_cdf"],
        "pricing.normal_cdf_s": seconds("pricing.normal_cdf"),
        "pricing.bs_call_s": seconds("pricing.bs_call"),
        "harness.cells": calls["harness.cell"],
        "harness.grid_s": seconds("harness._run_grid"),
        "harness.cell_busy_s": seconds("harness.cell"),
        "cli.parse_s": seconds("cli.build_parser", "cli.parse_args", "cli._merged_options"),
        "cli.run_self_s": self_seconds("cli.run_"),
        "cli.write_s": seconds("cli._write_output"),
    }
