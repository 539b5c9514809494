"""Thin stdlib client for the study service.

``http.client`` only -- usable from scripts, tests, and the ``repro
submit`` / ``repro jobs`` CLI commands without any dependency beyond
the standard library.  Every method raises :class:`ServeClientError`
with the server's one-line diagnostic on a non-2xx response, carrying
the HTTP status on ``.status`` (and, for admission rejections, the
server's error document on ``.body``).

A client keeps one HTTP/1.1 connection per thread that uses it and
sends every request of that thread on it, reading each response to its
end; a connection the server has closed since its last request (an
idle one past the server's read deadline, say) is reopened once,
transparently.  :meth:`ServeClient.events` streams on a connection of
its own.  :meth:`ServeClient.close` (or leaving a ``with`` block)
closes every connection the client holds; a later request opens a
new one.
"""

from __future__ import annotations

import json
import threading
import time
import weakref
from http.client import HTTPConnection
from typing import Dict, Iterator, Optional, Tuple
from urllib.parse import urlsplit

__all__ = ["ServeClient", "ServeClientError"]


class ServeClientError(RuntimeError):
    """A non-2xx response from the study service."""

    def __init__(self, status: int, message: str, body: Optional[dict] = None):
        self.status = status
        self.body = body or {}
        super().__init__(f"HTTP {status}: {message}")


def _close_all(connections: Dict[threading.Thread, HTTPConnection]) -> None:
    while connections:
        connections.popitem()[1].close()


def _error_document(data: bytes) -> dict:
    try:
        document = json.loads(data) if data else {}
    except json.JSONDecodeError:
        return {"error": data.decode("utf-8", errors="replace")}
    return document if isinstance(document, dict) else {}


class ServeClient:
    """Client for one study-service base URL (e.g. ``http://host:8787``),
    safe to share between threads: each thread gets its own connection."""

    def __init__(self, base_url: str, timeout: float = 600.0):
        parts = urlsplit(base_url if "//" in base_url
                         else f"http://{base_url}")
        if parts.scheme not in ("http", ""):
            raise ValueError(f"unsupported scheme {parts.scheme!r}")
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 80
        self.timeout = timeout
        # thread -> its kept connection (a dead thread's is closed by
        # the next thread that opens one)
        self._connections: Dict[threading.Thread, HTTPConnection] = {}
        self._lock = threading.Lock()
        weakref.finalize(self, _close_all, self._connections)

    def close(self) -> None:
        """Close every connection this client holds."""
        with self._lock:
            _close_all(self._connections)

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- plumbing ------------------------------------------------------

    def _connection(self) -> HTTPConnection:
        """The calling thread's connection, opened on first use."""
        thread = threading.current_thread()
        connection = self._connections.get(thread)
        if connection is None:
            connection = HTTPConnection(self.host, self.port,
                                        timeout=self.timeout)
            with self._lock:
                for gone in [t for t in self._connections
                             if not t.is_alive()]:
                    self._connections.pop(gone).close()
                self._connections[thread] = connection
        return connection

    def _request(self, method: str, path: str,
                 body: Optional[bytes] = None) -> Tuple[int, bytes]:
        """``(status, body)`` of one request on the calling thread's
        connection, its response read to the end.

        A request on a connection kept from an earlier one that fails
        before any response byte arrives (the server closed the idle
        connection) is sent once more on a fresh connection; the server
        closes a kept connection only before reading a byte of a next
        request, so the first one never reached it.
        """
        connection = self._connection()
        headers = {"Content-Type": "application/json"} if body else {}
        while True:
            reused = connection.sock is not None
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                return response.status, response.read()
            except BaseException as exc:
                connection.close()  # mid-exchange: its state is unknown
                if not (reused and isinstance(exc, ConnectionError)):
                    raise

    def _json(self, method: str, path: str, body: Optional[bytes] = None,
              ok=(200, 202)):
        status, data = self._request(method, path, body)
        document = _error_document(data)
        if status not in ok:
            raise ServeClientError(
                status, document.get("error", "request failed"),
                body=document,
            )
        return status, document

    # -- API -----------------------------------------------------------

    def healthz(self) -> dict:
        """The service document (store path, budget, job count)."""
        return self._json("GET", "/healthz")[1]

    def metrics(self) -> dict:
        """The server's metrics-registry snapshot."""
        return self._json("GET", "/metrics")[1]

    def submit(self, job) -> dict:
        """Submit a job document (dict or JSON text).

        Returns the job's status document; ``cached`` is ``True`` when
        the response was served from the content-addressed result index
        (the job is already ``done``).  Admission rejections raise
        :class:`ServeClientError` with ``status == 413`` and the
        ``peak_bytes`` estimate in ``.body``.
        """
        data = job if isinstance(job, (bytes, bytearray)) else json.dumps(
            job if isinstance(job, dict) else json.loads(job)
        ).encode()
        return self._json("POST", "/jobs", body=data)[1]["job"]

    def jobs(self) -> list:
        """Status documents for every job the server knows."""
        return self._json("GET", "/jobs")[1]["jobs"]

    def job(self, job_id: str) -> dict:
        """One job's status document."""
        return self._json("GET", f"/jobs/{job_id}")[1]["job"]

    def result_bytes(self, job_id: str) -> bytes:
        """The canonical result document, byte-exact.

        The bytes are what the server persisted in its result index --
        identical for every client that submits the same study.
        """
        status, data = self._request("GET", f"/jobs/{job_id}/result")
        if status != 200:
            document = _error_document(data)
            raise ServeClientError(
                status, document.get("error", "no result"), body=document,
            )
        return data

    def result(self, job_id: str) -> dict:
        """The parsed result document (see :meth:`result_bytes`)."""
        return json.loads(self.result_bytes(job_id))

    def events(self, job_id: str, on_truncated=None) -> Iterator[dict]:
        """Follow the job's NDJSON progress stream until it ends.

        When the consumer's cursor falls behind the server's bounded
        event window, the server injects an ``events.truncated`` marker
        carrying how many events were dropped; ``on_truncated(dropped)``
        (when given) is called as the marker arrives, and the marker is
        yielded like any other event so plain iteration also sees the
        gap.
        """
        connection = HTTPConnection(self.host, self.port,
                                    timeout=self.timeout)
        try:
            connection.request("GET", f"/jobs/{job_id}/events")
            response = connection.getresponse()
            if response.status != 200:
                document = _error_document(response.read())
                raise ServeClientError(
                    response.status, document.get("error", "no stream"),
                    body=document,
                )
            for raw in response:
                line = raw.strip()
                if not line:
                    continue
                event = json.loads(line)
                if event.get("event") == "events.truncated" \
                        and on_truncated is not None:
                    on_truncated(int(event.get("dropped", 0)))
                yield event
        finally:
            connection.close()

    def wait(self, job_id: str, timeout: float = 600.0,
             poll: float = 0.1) -> dict:
        """Poll until the job reaches a final state; return its status."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job["state"] in ("done", "failed", "rejected"):
                return job
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {job['state']} after {timeout}s"
                )
            time.sleep(poll)
