"""In-memory span recorder for the traced run.

A :class:`Tracer` is handed to the program wherever it accepts span
timers (``Telemetry.timers``, ``instrument_codec``), and wraps the public
methods the harness can reach on live objects.  Every span keeps name,
start, end and the span that was open when it started; nothing is
aggregated until the run is over.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass

import numpy as np

from repro.obs.timing import SpanTimers

#: Parent marker of a span recorded outside the call stack (a client
#: round trip that overlaps whatever the loop does meanwhile).
_DETACHED = -2


@dataclass(frozen=True)
class LayerTime:
    """One span name inside a window: calls, total and self seconds."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer(SpanTimers):
    """Span timers that keep every span instead of per-name totals."""

    def __init__(self) -> None:
        super().__init__()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("q")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._open: list[int] = []

    def _name_id(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def start(self, name: str) -> None:
        """Open a span under whichever span is innermost now."""
        open_spans = self._open
        self._name.append(self._name_id(name))
        self._parent.append(open_spans[-1] if open_spans else -1)
        self._end.append(0.0)
        open_spans.append(len(self._start))
        self._start.append(time.perf_counter())

    def stop(self, name: str) -> None:
        """Close the innermost span, which must be ``name``."""
        now = time.perf_counter()
        index = self._open.pop()
        if self.names[self._name[index]] != name:
            raise RuntimeError(f"span nesting violation at {name!r}")
        self._end[index] = now

    def record(self, name: str, start: float, end: float) -> None:
        """Keep a span timed by the caller, outside the call stack."""
        self._name.append(self._name_id(name))
        self._parent.append(_DETACHED)
        self._start.append(start)
        self._end.append(end)

    def layers(self, windows) -> tuple[dict[str, LayerTime], float]:
        """Per-name times over the ``(start, end)`` windows.

        A span counts when it lies wholly inside one window.  Self time
        is the span's duration minus its direct children's.  Also
        returns the seconds covered by root spans (no parent on the
        stack) -- the part of the windows the trace accounts for.
        """
        name = np.frombuffer(self._name, dtype=np.int64)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        start = np.frombuffer(self._start, dtype=np.float64)
        end = np.frombuffer(self._end, dtype=np.float64)
        keep = np.zeros(len(name), dtype=bool)
        for lo, hi in windows:
            keep |= (start >= lo) & (end <= hi) & (end > 0.0)
        duration = np.where(keep, end - start, 0.0)
        nested = keep & (parent >= 0)
        children = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(name)
        )
        own = np.where(keep, duration - children, 0.0)
        count = len(self.names)
        calls = np.bincount(name[keep], minlength=count)
        total = np.bincount(name, weights=duration, minlength=count)
        self_time = np.bincount(name, weights=own, minlength=count)
        covered = float(duration[keep & (parent == -1)].sum())
        return {
            label: LayerTime(int(calls[i]), float(total[i]), float(self_time[i]))
            for i, label in enumerate(self.names)
        }, covered


def trace_call(tracer: Tracer, name: str, call):
    """``call`` wrapped in a span (for synchronous callables)."""

    def traced(*args, **kwargs):
        tracer.start(name)
        try:
            return call(*args, **kwargs)
        finally:
            tracer.stop(name)

    return traced


def trace_method(tracer: Tracer, name: str, owner, attr: str) -> None:
    """Shadow ``owner.attr`` with a span-recording instance attribute.

    Works for synchronous methods the program looks up on the instance
    at each call (``self.dkf.receive(...)``).
    """
    setattr(owner, attr, trace_call(tracer, name, getattr(owner, attr)))
