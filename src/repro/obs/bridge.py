"""Span→event bridge: trace records in, consumer callbacks out.

The serving layer streams study progress to remote clients as NDJSON
events.  Rather than threading bespoke callbacks through the engine,
the bridge is an ordinary trace *sink* (the same contract
:class:`~repro.obs.progress.ProgressReporter` and
:class:`~repro.obs.export.JsonlSink` implement): install it on a study
via ``Study.trace(bridge)`` and every closing span it cares about
becomes one flat, JSON-safe event dict handed to the callback.

The bridge is thread-safe on the emitting side -- chunk spans close on
whichever thread runs the study, co-draining workers included -- and
never raises out of ``emit`` (a broken consumer must not kill the study
it is watching).
"""

from __future__ import annotations

import threading
import time

__all__ = ["SpanEventBridge"]

#: Span names forwarded by default: chunk completions (progress),
#: checkpoint saves (durability), and the study roots (start/finish).
DEFAULT_SPANS = ("study.chunk", "study.run", "study.work", "store.save")


def _json_safe(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return repr(value)


class SpanEventBridge:
    """Trace sink that forwards selected spans as flat event dicts.

    Parameters
    ----------
    callback:
        ``callback(event: dict)``, invoked once per matching span with
        ``{"event": <span name>, "t": <unix time>, **attrs}``.
        Exceptions from the callback are swallowed (and counted on
        :attr:`dropped`) so a misbehaving consumer never interrupts the
        producing study.
    spans:
        Span names to forward (default: chunk completions, checkpoint
        saves, and the study root spans).
    """

    def __init__(self, callback, spans=DEFAULT_SPANS):
        self.callback = callback
        self.spans = frozenset(spans)
        self.forwarded = 0
        self.dropped = 0
        self._lock = threading.Lock()

    def emit(self, record):
        """Consume one trace record; forward matching closed spans."""
        if record.get("type") != "span" or record.get("name") not in self.spans:
            return
        event = {
            "event": record["name"],
            "t": time.time(),
            "wall_seconds": record.get("wall_seconds"),
        }
        if record.get("error"):
            event["error"] = record["error"]
        for key, value in record.get("attrs", {}).items():
            event[key] = _json_safe(value)
        with self._lock:
            try:
                self.callback(event)
                self.forwarded += 1
            except Exception:
                self.dropped += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanEventBridge(spans={sorted(self.spans)}, "
            f"forwarded={self.forwarded}, dropped={self.dropped})"
        )
