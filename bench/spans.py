"""Span recorder for the traced benchmark run, and per-layer metrics from its spans.

The traced run wraps, from outside, the names ``moczsim.simulate`` imported
from each layer module, plus ``moczsim.radar.correlation_value_at`` so that
the calls nested under ``estimate_delay`` are caught.  ``simulate._fade_batch``
(the channel model of the BER sweep) is the one private layer boundary
wrapped.  ``simulate._rng_for`` is wrapped as a marker, not a span: every task
of a sweep starts by deriving its random stream from (purpose, point, index),
so each call marks the start of one workload unit (a batch at one SNR point,
one CPI, one CFAR chunk) on its thread.

Wrappers exist only inside ``traced()`` and the original objects are put back
when it exits, also on error.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None  # enclosing span on the same thread
    thread: int
    unit: int | None  # id of the workload unit the span belongs to
    work: int = 0
    nbytes: int = 0


@dataclass
class Unit:
    id: int
    key: tuple  # (purpose, point or sweep index, batch, trial or chunk index)
    start: float
    thread: int
    parent: int | None  # span open on the thread when the unit began


class Recorder:
    """Thread-safe in-memory span store; nothing is written until the run ends."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.spans: list[Span] = []
        self.units: list[Unit] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def call(self, name: str, fn, args: tuple, kwargs: dict, measure=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = self._stack()
        sid = self._next_id()
        span = Span(sid, name, 0.0, 0.0, stack[-1] if stack else None,
                    threading.get_ident(), getattr(self._local, "unit", None))
        stack.append(sid)
        span.start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)
        if measure is not None:
            span.work, span.nbytes = measure(args, out)
        return out

    def root(self, name: str, fn, *args):
        """A top-level span, such as one entry-point call, outside any unit.

        Clearing the thread's unit first keeps the last unit of one call
        from taking in the next call.
        """
        self._local.unit = None
        return self.call(name, fn, args, {})

    def mark_unit(self, key: tuple) -> None:
        stack = self._stack()
        unit = Unit(self._next_id(), key, time.perf_counter(), threading.get_ident(),
                    stack[-1] if stack else None)
        self._local.unit = unit.id
        with self._lock:
            self.units.append(unit)

    def to_json(self) -> dict:
        return {
            "spans": [vars(s) for s in self.spans],
            "units": [vars(u) for u in self.units],
        }


# --------------------------------------------------------------------------
# what each layer call handled
# --------------------------------------------------------------------------


def _nbytes(*objs) -> int:
    return sum(o.nbytes for o in objs if isinstance(o, np.ndarray))


def _rows(args, out):  # packets: (B, n) batches in and out
    return np.atleast_2d(args[0]).shape[0], _nbytes(args[0], out)


def _decoded(args, out):
    return np.atleast_2d(args[0]).shape[0], _nbytes(args[0], *out)


def _size_of_first(args, out):  # samples or cells of the first argument
    return np.size(args[0]), _nbytes(args[0], out)


def _size_of_second(args, out):  # received samples, or lags evaluated
    return np.size(args[1]), _nbytes(args[0], args[1], out)


def _size_of_out(args, out):
    return np.size(out), _nbytes(args[0], out)


def _music(args, out):  # one covariance matrix per call
    return 1, _nbytes(args[0], args[1], out)


def _count(args, out):  # detections in
    return len(args[0]), 0


# (module, attribute, span name, work unit, what the call handled)
LAYERS = (
    ("moczsim.simulate", "encode_batch", "huffman.encode_batch", "packets", _rows),
    ("moczsim.simulate", "dizet_decode_batch", "dizet.dizet_decode_batch", "packets",
     _decoded),
    ("moczsim.simulate", "_fade_batch", "simulate.fade", "packets", _rows),
    ("moczsim.simulate", "awgn", "channel.awgn", "samples", _size_of_first),
    ("moczsim.simulate", "apply_radar_channel", "channel.apply_radar_channel",
     "samples", _size_of_out),
    ("moczsim.simulate", "cross_correlate", "radar.cross_correlate", "samples",
     _size_of_second),
    ("moczsim.simulate", "sample_covariance", "radar.sample_covariance", "samples",
     _size_of_first),
    ("moczsim.simulate", "estimate_delay", "radar.estimate_delay", "cells",
     _size_of_first),
    ("moczsim.radar", "correlation_value_at", "radar.correlation_value_at.delay",
     "lags", _size_of_second),
    ("moczsim.simulate", "correlation_value_at", "radar.correlation_value_at.doppler",
     "lags", _size_of_second),
    ("moczsim.simulate", "music_angles", "radar.music_angles", "covariances", _music),
    ("moczsim.simulate", "cluster_detections", "radar.cluster_detections",
     "detections", _count),
    ("moczsim.simulate", "os_cfar", "radar.os_cfar", "cells", _size_of_first),
)
UNIT_MARKER = ("moczsim.simulate", "_rng_for")
RUN_SPAN = "simulate.run"


def wrapped_names() -> list[tuple[str, str]]:
    return [(m, a) for m, a, *_ in LAYERS] + [UNIT_MARKER]


def _span_wrapper(recorder: Recorder, name: str, fn, measure):
    def traced_layer(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, measure)

    traced_layer.__wrapped__ = fn
    return traced_layer


def _unit_wrapper(recorder: Recorder, fn):
    def marked(seed, *key):
        recorder.mark_unit(key)
        return fn(seed, *key)

    marked.__wrapped__ = fn
    return marked


@contextmanager
def traced(recorder: Recorder):
    """Install the span wrappers for the duration of the block."""
    originals = []
    try:
        for modname, attr, name, _, measure in LAYERS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                print(f"# trace: {modname}.{attr} not found, not traced", file=sys.stderr)
                continue
            originals.append((mod, attr, fn))
            setattr(mod, attr, _span_wrapper(recorder, name, fn, measure))
        mod = importlib.import_module(UNIT_MARKER[0])
        fn = getattr(mod, UNIT_MARKER[1], None)
        if fn is None:
            print("# trace: no unit marker, unit metrics are empty", file=sys.stderr)
        else:
            originals.append((mod, UNIT_MARKER[1], fn))
            setattr(mod, UNIT_MARKER[1], _unit_wrapper(recorder, fn))
        yield recorder
    finally:
        for mod, attr, fn in reversed(originals):
            setattr(mod, attr, fn)


# --------------------------------------------------------------------------
# analysis
# --------------------------------------------------------------------------


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered(s.start, s.end, children.get(s.id, ()))
        for s in spans
    }


def unit_spans(spans: list[Span], units: list[Unit]) -> list[Span]:
    """Layer spans re-parented under one synthetic span per workload unit.

    A unit runs from its marker to the end of the last span that belongs to
    it, so work after its last layer call (bit counting) is not seen; the
    span a unit began in becomes the unit's parent.
    """
    ends: dict[int, float] = {}
    for s in spans:
        if s.unit is not None:
            ends[s.unit] = max(ends.get(s.unit, s.end), s.end)
    by_id = {s.id: s for s in spans}
    out = []
    for u in units:
        out.append(Span(u.id, "simulate.unit", u.start, max(u.start, ends.get(u.id, u.start)),
                        u.parent, u.thread, u.id))
    for s in spans:
        parent = s.parent
        top = parent is None or by_id[parent].name == RUN_SPAN
        if s.unit is not None and top:
            parent = s.unit
        out.append(Span(s.id, s.name, s.start, s.end, parent, s.thread, s.unit,
                        s.work, s.nbytes))
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """Highest of 50/90/95/99/99.9 % with at least ten samples beyond it, and its value."""
    n = len(values)
    if not n:
        return 0.0, 0.0
    best = 50.0
    for pct in (90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - pct / 100.0) >= 10.0:
            best = pct
    return best, float(np.percentile(values, best))


def layer_metrics(recorder: Recorder, workers: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, as {name: (value, unit)}."""
    spans = unit_spans(recorder.spans, recorder.units)
    own = self_times(spans)
    runs = [s for s in spans if s.name == RUN_SPAN]
    wall = sum(s.end - s.start for s in runs)
    metrics: dict[str, tuple[float, str]] = {}
    for _, _, name, work_unit, _ in LAYERS:
        mine = [s for s in spans if s.name == name]
        self_s = sum(own[s.id] for s in mine)
        metrics[f"{name}.calls"] = (len(mine), "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.share"] = (self_s / wall if wall else 0.0, "share")
        metrics[f"{name}.work"] = (sum(s.work for s in mine), work_unit)
        metrics[f"{name}.bytes"] = (sum(s.nbytes for s in mine), "B_computed")

    units = [s for s in spans if s.name == "simulate.unit"]
    busy = sum(s.end - s.start for s in units)
    run_threads = {s.thread for s in runs}
    simulate_self = sum(own[s.id] for s in units)
    if any(u.thread in run_threads for u in units):
        # Sweeps ran on the calling thread: what the run span does outside
        # units (aggregation) is simulate's too.  With a pool the calling
        # thread only waits, and that shows as pool idle time instead.
        simulate_self += sum(own[s.id] for s in runs)
    latencies_ms = [1e3 * (s.end - s.start) for s in units]
    pct, tail_ms = tail(latencies_ms)
    metrics["simulate.run.wall_s"] = (wall, "s")
    metrics["simulate.self_s"] = (simulate_self, "s")
    metrics["simulate.share"] = (simulate_self / wall if wall else 0.0, "share")
    metrics["simulate.pool_idle_s"] = (max(0.0, workers * wall - busy), "s")
    metrics["simulate.unit.count"] = (len(units), "count")
    metrics["simulate.unit.p50_ms"] = (
        statistics.median(latencies_ms) if latencies_ms else 0.0, "ms")
    metrics["simulate.unit.tail_pct"] = (pct, "%")
    metrics["simulate.unit.tail_ms"] = (tail_ms, "ms")
    return metrics
