"""Timing, spans and failure accounting for the benchmark.

Every call into partitest goes through :meth:`Recorder.span`, named
``<layer>.<function>`` after the module it enters.  An untraced run only
times the block; a traced run also keeps a span (id, parent, name, start,
end) in memory, and the spans are written out when the run ends.

An operation (:meth:`Recorder.unit`) is one attempted piece of work: an
exception or a wrong result inside it counts as one failure, charged to the
innermost layer that raised it, and the run goes on with the next operation.

A span opened with ``probe=True`` is work the benchmark does only to time
or check something (rescoring table rows, repeating a call with a switch
off, comparing with the library or the oracle).  Probes are kept in the
trace, but not counted in any layer's calls or self time, and their time is
left out of the wall time a layer's busy share is taken of.

Before and after operations, at most every 0.2 s, the recorder times
:func:`host_kernel`, a fixed piece of work owned by the benchmark, with the
garbage collector off and no partitest code on the stack.  The median kernel
time around a timed call, over the kernel's nominal 1 ms, is the host's
slowness while the call ran; :meth:`Recorder.steady` divides the call's time
by it.  The host flips between a fast mode and one about 1.4x slower, in
spells from under a second to many seconds, and the kernel sees the same
mode as the call next to it.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import sys
import threading
import traceback
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("core", "ksample", "independence", "mi", "nulltable", "simulate", "cli")
HOST_SAMPLE_EVERY_S = 0.2
HOST_SAMPLE_SLACK_S = 0.25  # kernel samples this far outside a call still count for it
HOST_KERNEL_NOMINAL_S = 1e-3

_KERNEL_RNG = np.random.default_rng(20141024)
_KERNEL_VALUES = _KERNEL_RNG.random(4000)
_KERNEL_INDEX = _KERNEL_RNG.integers(0, 200, 4000)
_KERNEL_MATRIX = _KERNEL_RNG.random((200, 200))


def host_kernel() -> int:
    """About 1 ms of the library's kind of work: a Python loop, small numpy
    reductions handed to math.fsum, and a column sort.  It never changes, so
    its time tracks only how fast the host runs this process."""
    total = 0
    for i in range(5000):
        total += i * i % 7
    for _ in range(10):
        cum = np.cumsum(_KERNEL_VALUES)
        math.fsum(np.bincount(_KERNEL_INDEX, weights=cum, minlength=200).tolist())
    np.sort(_KERNEL_MATRIX, axis=0)
    return total


class Mismatch(Exception):
    """A call returned, but its result is wrong; ``layer`` is charged."""

    def __init__(self, layer: str, message: str):
        super().__init__(message)
        self.layer = layer


class Timer:
    """Result of one timed block: start, end, elapsed seconds and, when traced, its span."""

    __slots__ = ("start", "end", "seconds", "span", "failed")

    def __init__(self):
        self.start = self.end = self.seconds = 0.0
        self.span = None
        self.failed = False


class Span:
    __slots__ = ("id", "parent", "name", "probe", "start", "end", "moved")

    def __init__(self, span_id: int, parent: int, name: str, probe: bool):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.probe = probe
        self.start = self.end = 0.0
        # layer -> [seconds, calls] of inner work that ran inside this span but
        # belongs to another layer, estimated by timing that layer's entry point
        self.moved: dict[str, list] = {}


def _layer_of(name: str) -> str | None:
    layer = name.split(".", 1)[0]
    return layer if layer in LAYERS else None


class Recorder:
    def __init__(self, traced: bool):
        self.traced = traced
        self.origin = perf_counter()
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.attempted = 0
        self.failed = 0
        self.layer_failed = {layer: 0 for layer in LAYERS}
        self.errors: list[str] = []
        self.sample_times: list[float] = []  # when each kernel sample was taken
        self.host_samples: list[float] = []  # its kernel seconds
        self.host_sampling_s = 0.0
        self.extra_threads = 0  # most threads seen alive besides the main one

    @contextmanager
    def span(self, name: str, probe: bool = False):
        """Time the block; in a traced run keep it as a child of the enclosing span."""
        timer = Timer()
        span = None
        if self.traced:
            parent = self._stack[-1].id if self._stack else -1
            span = Span(len(self.spans), parent, name, probe)
            self.spans.append(span)
            self._stack.append(span)
            timer.span = span
        start = perf_counter()
        try:
            yield timer
        except Exception as exc:
            if getattr(exc, "bench_layer", None) is None:
                exc.bench_layer = _layer_of(name)
            raise
        finally:
            end = perf_counter()
            timer.start, timer.end, timer.seconds = start, end, end - start
            if span is not None:
                span.start, span.end = start, end
                self._stack.pop()

    @contextmanager
    def unit(self, name: str, probe: bool = False):
        """One attempted operation; a failure inside it is counted, not raised."""
        self._sample_host()
        self.attempted += 1
        outer = Timer()
        try:
            with self.span(name, probe) as timer:
                outer.span = timer.span
                yield outer
        except Exception as exc:
            self.failed += 1
            outer.failed = True
            layer = exc.layer if isinstance(exc, Mismatch) else getattr(exc, "bench_layer", None)
            if layer in self.layer_failed:
                self.layer_failed[layer] += 1
            if len(self.errors) < 20:
                detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
                self.errors.append(f"{name}: {detail}")
                print(f"benchmark operation failed: {name}", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
        outer.start, outer.end, outer.seconds = timer.start, timer.end, timer.seconds
        self._sample_host()

    def _sample_host(self) -> None:
        begin = perf_counter()
        if self.sample_times and begin - self.sample_times[-1] < HOST_SAMPLE_EVERY_S:
            return
        # a thread partitest left running would slow the kernel too; count them
        self.extra_threads = max(self.extra_threads, threading.active_count() - 1)
        times = []
        gc.disable()
        try:
            for _ in range(3):
                start = perf_counter()
                host_kernel()
                times.append(perf_counter() - start)
        finally:
            gc.enable()
        end = perf_counter()
        self.host_sampling_s += end - begin
        self.sample_times.append(end)
        self.host_samples.append(sorted(times)[1])

    def slowness(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Median kernel time from ``start`` to ``end`` over its nominal time.

        Samples up to HOST_SAMPLE_SLACK_S outside the interval count; without
        any, the nearest sample on either side does.
        """
        lo = bisect_left(self.sample_times, start - HOST_SAMPLE_SLACK_S)
        hi = bisect_right(self.sample_times, end + HOST_SAMPLE_SLACK_S)
        samples = self.host_samples[lo:hi] or self.host_samples[max(lo - 1, 0) : lo + 1]
        return statistics.median(samples) / HOST_KERNEL_NOMINAL_S if samples else 1.0

    def steady(self, timer: Timer) -> float:
        """The timed call's seconds at the host speed where the kernel takes 1 ms."""
        return timer.seconds / self.slowness(timer.start, timer.end)

    def expect(self, ok: bool, layer: str, message: str) -> None:
        if not ok:
            raise Mismatch(layer, message)

    def attribute(self, timer: Timer, layer: str, seconds: float, calls: int = 1) -> None:
        """Charge ``seconds`` of the timed span to ``layer`` (traced runs only)."""
        if timer.span is None:
            return
        entry = timer.span.moved.setdefault(layer, [0.0, 0])
        entry[0] += seconds
        entry[1] += calls

    # -- read-out of a traced run ------------------------------------------

    def layer_totals(self) -> tuple[dict, dict, float]:
        """Per-layer self seconds and call counts, and the seconds of probes.

        A span's self time is its duration minus its children's; time moved
        to an inner layer by :meth:`attribute` is taken from the span's layer
        and given to the inner one, together with its call count.  Probes and
        the spans inside them count for no layer; the seconds returned are
        those of the outermost probes, plus the host kernel's samples.
        """
        child = [0.0] * len(self.spans)
        in_probe = [False] * len(self.spans)
        probe_s = self.host_sampling_s
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
                in_probe[s.id] = in_probe[s.parent] or self.spans[s.parent].probe
            if s.probe and not in_probe[s.id]:
                probe_s += s.end - s.start
        seconds = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        for s in self.spans:
            if s.probe or in_probe[s.id]:
                continue
            layer = _layer_of(s.name)
            own = s.end - s.start - child[s.id]
            for inner, (sec, count) in s.moved.items():
                own -= sec
                seconds[inner] += sec
                calls[inner] += count
            if layer is not None:
                seconds[layer] += own
                calls[layer] += 1
        return seconds, calls, probe_s

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                record = {
                    "id": s.id,
                    "parent": s.parent,
                    "name": s.name,
                    "probe": s.probe,
                    "start": s.start - self.origin,
                    "end": s.end - self.origin,
                }
                if s.moved:
                    record["moved"] = s.moved
                fh.write(json.dumps(record) + "\n")
