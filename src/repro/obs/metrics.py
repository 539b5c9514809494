"""Metrics registry: named counters, gauges, and histograms.

The registry is deliberately tiny and dependency-free.  Instruments are
*get-or-create*: ``counter("study.chunks_completed")`` returns the same
object every time, so modules can hold a reference at import time and
increment it on hot paths without a dictionary lookup.

Values survive :meth:`MetricsRegistry.reset` as *objects* -- reset zeroes
them in place -- because call sites keep module-level references.  All
instruments are best-effort under free threading: increments are plain
attribute updates guarded by the GIL, which is the same contract the
ad-hoc counters they replaced had.

Counters the performance tiers move, beyond the store/cache/scheduler
instruments: ``runtime.batch.eig_fallbacks`` (instances the eig
kernel's response guard re-solved through exact pencil solves) and
``runtime.sparse.pivot_fallbacks`` (pencils the level-scheduled LU's
backward-error guard re-solved through SuperLU refactorization).
"""

from __future__ import annotations

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "histogram",
    "registry",
]


class Counter:
    """Monotonic named count, e.g. chunks completed or cache hits."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, amount=1):
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount

    def reset(self):
        """Zero the counter in place and return the previous value."""
        previous = self.value
        self.value = 0
        return previous

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """Last-written named value, e.g. peak bytes of the active plan."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def set(self, value):
        """Record ``value`` as the gauge's current reading."""
        self.value = value

    def reset(self):
        """Zero the gauge in place and return the previous value."""
        previous = self.value
        self.value = 0
        return previous

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram:
    """Streaming summary (count/total/min/max) of observed samples.

    Full sample retention is deliberately avoided: chunk timings are
    observed once per chunk on the hot path, and the summary merge is
    O(1) per observation.
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum")

    def __init__(self, name):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum = None
        self.maximum = None

    def observe(self, value):
        """Fold one sample into the running summary."""
        value = float(value)
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def summary(self):
        """Return ``{count, total, min, max, mean}`` for this histogram."""
        mean = self.total / self.count if self.count else 0.0
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": mean,
        }

    def reset(self):
        """Zero the histogram in place and return the prior summary."""
        previous = self.summary()
        self.count = 0
        self.total = 0.0
        self.minimum = None
        self.maximum = None
        return previous

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, count={self.count})"


class MetricsRegistry:
    """Namespace of get-or-create instruments with a snapshot view."""

    def __init__(self):
        self._counters = {}
        self._gauges = {}
        self._histograms = {}

    def counter(self, name):
        """Return the :class:`Counter` called ``name``, creating it once."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name):
        """Return the :class:`Gauge` called ``name``, creating it once."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name):
        """Return the :class:`Histogram` called ``name``, creating it once."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def snapshot(self):
        """Return a plain-dict copy of every instrument's current value."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self._histograms.items())
            },
        }

    def reset(self):
        """Zero every instrument in place (objects stay valid)."""
        for instrument in self._counters.values():
            instrument.reset()
        for instrument in self._gauges.values():
            instrument.reset()
        for instrument in self._histograms.values():
            instrument.reset()


_REGISTRY = MetricsRegistry()


def registry():
    """Return the process-global :class:`MetricsRegistry`."""
    return _REGISTRY


def counter(name):
    """Get-or-create a counter on the global registry."""
    return _REGISTRY.counter(name)


def gauge(name):
    """Get-or-create a gauge on the global registry."""
    return _REGISTRY.gauge(name)


def histogram(name):
    """Get-or-create a histogram on the global registry."""
    return _REGISTRY.histogram(name)


def snapshot_delta(before, after):
    """Diff two :meth:`MetricsRegistry.snapshot` dicts (``after - before``).

    Counters and histogram count/total subtract; gauges and histogram
    min/max report the ``after`` reading.  Instruments that did not move
    are dropped so the delta reads as "what this run did".
    """
    delta = {"counters": {}, "gauges": {}, "histograms": {}}
    before_counters = before.get("counters", {})
    for name, value in after.get("counters", {}).items():
        moved = value - before_counters.get(name, 0)
        if moved:
            delta["counters"][name] = moved
    before_gauges = before.get("gauges", {})
    for name, value in after.get("gauges", {}).items():
        if value != before_gauges.get(name, 0):
            delta["gauges"][name] = value
    before_histograms = before.get("histograms", {})
    for name, summary in after.get("histograms", {}).items():
        prior = before_histograms.get(name, {"count": 0, "total": 0.0})
        count = summary["count"] - prior["count"]
        if not count:
            continue
        total = summary["total"] - prior["total"]
        delta["histograms"][name] = {
            "count": count,
            "total": total,
            "mean": total / count,
            "min": summary["min"],
            "max": summary["max"],
        }
    return delta
