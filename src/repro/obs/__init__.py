"""Observability substrate: span tracing, metrics, trace exporters.

``repro.obs`` is a zero-dependency leaf package (stdlib only, no
imports from the runtime stack) that the rest of the runtime emits
into:

- :mod:`repro.obs.trace`    -- spans with ambient context and a
  no-op disabled path;
- :mod:`repro.obs.metrics`  -- get-or-create counters, gauges, and
  histograms on a process-global registry;
- :mod:`repro.obs.export`   -- JSONL trace files, ``repro trace
  summarize`` reports, and per-chunk lineage merging;
- :mod:`repro.obs.progress` -- a uniform progress line driven by
  ``study.chunk`` span events;
- :mod:`repro.obs.bridge`   -- a span→event sink that feeds chunk and
  checkpoint spans to consumer callbacks (the NDJSON progress streams
  of :mod:`repro.serve`).

Tracing is off until a sink is installed -- the instrumented hot paths
then cost one truthiness check (enforced by
``benchmarks/bench_obs_overhead.py``).  Enable it per study with
``Study.trace(sink_or_path)``, per CLI invocation with ``--trace
FILE``, or process-wide with the ``REPRO_TRACE`` environment variable
(see :func:`configure_from_env`).
"""

from __future__ import annotations

import os

from repro.obs.export import (
    TRACE_FORMAT,
    JsonlSink,
    chunk_lineage,
    lineage_sources,
    read_trace,
    summarize_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    registry,
)
from repro.obs.bridge import SpanEventBridge
from repro.obs.progress import ProgressReporter
from repro.obs.trace import (
    MemorySink,
    add_sink,
    annotate,
    current_span,
    enabled,
    remove_sink,
    span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "ProgressReporter",
    "SpanEventBridge",
    "TRACE_FORMAT",
    "add_sink",
    "annotate",
    "chunk_lineage",
    "configure_from_env",
    "counter",
    "current_span",
    "enabled",
    "gauge",
    "histogram",
    "lineage_sources",
    "read_trace",
    "registry",
    "remove_sink",
    "span",
    "summarize_trace",
]

REPRO_TRACE_ENV = "REPRO_TRACE"


def configure_from_env(environ=None):
    """Install a JSONL sink if ``REPRO_TRACE`` names a file path.

    Returns the installed :class:`~repro.obs.export.JsonlSink` (the
    caller owns it: remove with :func:`remove_sink` and ``close()``
    when done) or ``None`` when the variable is unset or empty.
    """
    environ = os.environ if environ is None else environ
    path = environ.get(REPRO_TRACE_ENV, "").strip()
    if not path:
        return None
    sink = JsonlSink(path)
    add_sink(sink)
    return sink
