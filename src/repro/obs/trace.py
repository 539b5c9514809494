"""Span tracer with a no-op disabled path.

A *span* is a named, timed region of work with arbitrary attributes and
a parent link, emitted as a plain dict when it closes::

    from repro.obs import trace as obs_trace

    with obs_trace.span("study.chunk", index=3, lo=24, hi=32) as sp:
        ...
        sp.set(loaded=False)

Design constraints, in priority order:

1. **Disabled is free.**  With no sinks installed :func:`span` returns
   one shared no-op object without touching contextvars, clocks, or
   allocations beyond the ``**attrs`` dict at the call site.  The hot
   loops that call it run per *chunk* (or per instance of a
   per-instance payload), so the guarded call is far below measurement
   noise (enforced by ``benchmarks/bench_obs_overhead.py``).
2. **Ambient context, explicit records.**  The active span lives in a
   :mod:`contextvars` variable; nesting works across ``with`` blocks
   and :func:`annotate` can decorate the innermost span from helper
   code (e.g. the store layer stamping a chunk's SHA-256) without
   threading span objects through every signature.  Span ids are
   unique across processes (pid-keyed prefix plus a random token), so
   several workers' traces merge without collisions.
"""

from __future__ import annotations

import contextvars
import json
import os
import secrets
import time

__all__ = [
    "MemorySink",
    "add_sink",
    "annotate",
    "current_span",
    "emit_record",
    "enabled",
    "event",
    "remove_sink",
    "span",
]

# Innermost active Span (or None); per-context, so nested spans parent
# correctly and concurrent contexts do not interfere.
_ACTIVE = contextvars.ContextVar("repro_obs_active_span", default=None)

_SINKS = []

# Span-id state is keyed by pid so fork-started workers regenerate their
# prefix instead of colliding with the parent's id sequence.
_ID_STATE = {"pid": None, "prefix": "", "count": 0}


def _next_id():
    state = _ID_STATE
    pid = os.getpid()
    if state["pid"] != pid:
        state["pid"] = pid
        state["prefix"] = f"{pid:x}.{secrets.token_hex(3)}"
        state["count"] = 0
    state["count"] += 1
    return f"{state['prefix']}.{state['count']:x}"


def enabled():
    """Whether spans are being recorded (a sink is installed)."""
    return bool(_SINKS)


def add_sink(sink):
    """Install a sink and return it.

    A sink is any object with an ``emit(record)`` method (e.g.
    :class:`~repro.obs.export.JsonlSink`, :class:`MemorySink`) or a
    bare callable taking the record dict.  Installing at least one sink
    switches :func:`span` from the no-op path to real spans.
    """
    _SINKS.append(sink)
    return sink


def remove_sink(sink):
    """Uninstall a sink previously passed to :func:`add_sink`."""
    try:
        _SINKS.remove(sink)
    except ValueError:
        pass


def _emit(record):
    for sink in _SINKS:
        emit = getattr(sink, "emit", None)
        if emit is not None:
            emit(record)
        else:
            sink(record)


def emit_record(record):
    """Emit a raw record dict (e.g. a metrics delta) to every
    installed sink, as closing spans do."""
    _emit(record)


class Span:
    """One named, timed region; emits its record dict on ``__exit__``."""

    __slots__ = (
        "name", "attrs", "span_id", "parent_id",
        "_token", "_t_start", "_wall0", "_cpu0",
    )

    def __init__(self, name, attrs):
        self.name = name
        self.attrs = attrs
        self.span_id = _next_id()
        self.parent_id = None
        self._token = None

    def set(self, **attrs):
        """Attach or overwrite attributes on this span."""
        self.attrs.update(attrs)

    def __enter__(self):
        parent = _ACTIVE.get()
        self.parent_id = parent.span_id if parent is not None else None
        self._token = _ACTIVE.set(self)
        self._t_start = time.time()
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb):
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        _ACTIVE.reset(self._token)
        record = {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": os.getpid(),
            "t_start": self._t_start,
            "wall_seconds": wall,
            "cpu_seconds": cpu,
            "attrs": self.attrs,
        }
        if exc_type is not None:
            record["error"] = exc_type.__name__
        _emit(record)
        return False


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NOOP_SPAN = _NoopSpan()


def span(name, **attrs):
    """Open a span named ``name``; use as a context manager.

    Returns the shared no-op span unless a sink is installed, so
    instrumented hot paths cost one truthiness check when
    observability is off.
    """
    if not _SINKS:
        return _NOOP_SPAN
    return Span(name, attrs)


def current_span():
    """The innermost active :class:`Span` in this context, or ``None``."""
    return _ACTIVE.get()


def event(name, **attrs):
    """Emit a point-in-time record (a zero-duration span).

    For moments rather than regions -- a lease claimed, stolen, or
    expired -- where opening a context manager would be noise.  The
    record shares the span schema (``wall_seconds`` = 0.0, parented to
    the active span) so :func:`~repro.obs.export.read_trace` and
    lineage joins handle it without a second code path.  Free when
    tracing is off.
    """
    if not enabled():
        return
    active = _ACTIVE.get()
    _emit({
        "type": "span",
        "name": name,
        "span_id": _next_id(),
        "parent_id": active.span_id if active is not None else None,
        "pid": os.getpid(),
        "t_start": time.time(),
        "wall_seconds": 0.0,
        "cpu_seconds": 0.0,
        "attrs": attrs,
    })


def annotate(**attrs):
    """Set attributes on the innermost active span, if any.

    Lets lower layers (store I/O, solvers) stamp facts like a chunk's
    SHA-256 onto the span their caller opened, without plumbing span
    objects through call signatures.  A no-op when tracing is off.
    """
    active = _ACTIVE.get()
    if active is not None:
        active.set(**attrs)


class MemorySink:
    """Sink that keeps records in a list (testing and summaries)."""

    def __init__(self):
        self.records = []

    def emit(self, record):
        """Append one record."""
        self.records.append(record)

    def __len__(self):
        return len(self.records)


def _json_default(value):
    """Best-effort JSON coercion for numpy scalars and other leaves."""
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    return str(value)


def encode_record(record):
    """Serialize one record to a compact single-line JSON string."""
    return json.dumps(record, default=_json_default, separators=(",", ":"))
