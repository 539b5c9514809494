"""The asyncio HTTP front end of the study service.

Pure stdlib: a hand-rolled HTTP/1.1 loop over ``asyncio.start_server``
-- no framework, no threads beyond the supervisor's pool.  Blocking
work (netlist parsing, reduction, planning) runs in the default
executor so the event loop keeps serving health checks and progress
streams while a submission is being realized.

Routes::

    GET  /healthz            service document (store, budget, job count)
    GET  /metrics            process metrics-registry snapshot
    POST /jobs               submit a job document -> 202 queued,
                             200 done (served from the result index),
                             413 rejected at admission (peak estimate
                             in the body), 400 malformed
    GET  /jobs               status documents for every job
    GET  /jobs/{id}          one job's status document
    GET  /jobs/{id}/result   the canonical result bytes (409 until done)
    GET  /jobs/{id}/events   NDJSON progress stream (chunk spans,
                             checkpoint saves, lifecycle transitions);
                             ends when the job reaches a final state

Connections are kept alive, HTTP/1.1's default: one connection carries
any number of requests, pipelined ones included, answered in order.
A 2xx answer to an HTTP/1.1 request without ``Connection: close`` says
``Connection: keep-alive`` and the connection waits for the next
request.  Every other response -- any 4xx or 5xx, the answer to an
HTTP/1.0 request or to ``Connection: close``, the events stream --
says ``Connection: close``, and the server closes the socket after it;
stopping the server closes every connection.  A request must arrive
whole (header block and body) within :data:`READ_DEADLINE_S` of the
connection opening, or of its first byte on a kept connection, or it
gets a one-line 408.  A kept connection that sends no byte of a next
request within :data:`READ_DEADLINE_S` is closed without a response,
so a client never reads a stray 408 as the answer to its next request.
Bodies are framed by ``Content-Length`` alone: ``Transfer-Encoding``
or ``Content-Length`` headers that disagree get a one-line 400 and a
close, so body bytes are never read as a next request.
``serve.http_connections`` and ``serve.http_requests`` in ``/metrics``
count the connections accepted and the requests read.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Set, Tuple

from repro.obs import metrics as obs_metrics
from repro.runtime.store import StoreError
from repro.serve.jobs import Job
from repro.serve.protocol import ProtocolError
from repro.serve.supervisor import StudySupervisor

__all__ = ["StudyServer", "run"]

#: Submission body bound: a netlist plus options is kilobytes; anything
#: approaching this is a mistake or an attack, not a job.
MAX_BODY_BYTES = 8 * 2**20
#: Seconds a client has to deliver one whole request (header block and
#: body), and that a kept connection may sit idle between requests.
#: Without a bound, a client that connects and then stalls holds a
#: handler for ever; a full-size body needs ~280 KB/s.
READ_DEADLINE_S = 30.0
_REQUESTS = obs_metrics.counter("serve.http_requests")
_CONNECTIONS = obs_metrics.counter("serve.http_connections")

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 409: "Conflict",
    413: "Payload Too Large", 500: "Internal Server Error",
}


class _Refused(Exception):
    """A request answered with a one-line 4xx, after which the
    connection closes."""

    def __init__(self, status: int, error: str):
        super().__init__(error)
        self.status = status


def _json(status: int, payload: dict) -> Tuple[int, bytes, str]:
    return status, json.dumps(payload, sort_keys=True).encode(), \
        "application/json"


def _parse_head(head: bytes) -> Tuple[str, str, bool, int]:
    """``(method, path, keep, body length)`` of one header block.

    ``keep``: the request is HTTP/1.1 and its ``Connection`` headers do
    not say ``close``.  Framing the reader cannot trust -- a request
    line that is not three fields, ``Transfer-Encoding``,
    ``Content-Length`` headers that disagree or a value that is not a
    plain decimal count -- raises a 400, a body past
    :data:`MAX_BODY_BYTES` a 413.
    """
    request_line, *header_lines = head.decode("latin-1").split("\r\n")
    parts = request_line.split()
    if len(parts) != 3:
        raise _Refused(400, "malformed request")
    method, target, version = parts
    lengths, connection = set(), set()
    for line in header_lines:
        name, colon, value = line.partition(":")
        if not colon:
            continue
        name, value = name.strip().lower(), value.strip()
        if name == "transfer-encoding":
            raise _Refused(400, "Transfer-Encoding is not supported: "
                                "frame the body with Content-Length")
        if name == "content-length":
            lengths.add(value)
        elif name == "connection":
            connection.update(token.strip().lower()
                              for token in value.split(","))
    if len(lengths) > 1:
        raise _Refused(400, "conflicting Content-Length headers")
    raw_length = (lengths.pop() if lengths else "") or "0"
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise _Refused(400, f"invalid Content-Length {raw_length[:32]!r}")
    digits = raw_length.lstrip("0") or "0"
    if len(digits) > len(str(MAX_BODY_BYTES)) \
            or int(digits) > MAX_BODY_BYTES:
        raise _Refused(413, f"body exceeds {MAX_BODY_BYTES} bytes")
    keep = version == "HTTP/1.1" and "close" not in connection
    return method.upper(), target.split("?", 1)[0], keep, int(digits)


class StudyServer:
    """One listening socket in front of a :class:`StudySupervisor`."""

    def __init__(self, supervisor: StudySupervisor,
                 host: str = "127.0.0.1", port: int = 0,
                 stream_poll: float = 0.05):
        self.supervisor = supervisor
        self.host = host
        self.port = port
        self.stream_poll = stream_poll
        self._server: Optional[asyncio.AbstractServer] = None
        # the handler task of every open connection, for stop()
        self._handlers: Set[asyncio.Task] = set()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``."""
        self.supervisor.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Serve until cancelled, then :meth:`stop` (``start`` must have
        run)."""
        try:
            await self._server.serve_forever()
        finally:
            await self.stop()

    async def stop(self) -> None:
        """Stop listening, close every connection (idle kept ones
        included, without a response) and stop the worker pool."""
        if self._server is not None:
            self._server.close()
            handlers = list(self._handlers)
            for task in handlers:
                task.cancel()
            await asyncio.gather(*handlers, return_exceptions=True)
            await self._server.wait_closed()
        self.supervisor.shutdown(wait=False)

    @property
    def url(self) -> str:
        """Base URL of the bound socket."""
        return f"http://{self.host}:{self.port}"

    # -- request plumbing ----------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Answer the requests one connection carries, in order."""
        _CONNECTIONS.inc()
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            kept = False
            while self._server.is_serving():
                request = await self._read_request(reader, kept)
                if request is None:
                    break
                _REQUESTS.inc()
                kept = await self._answer(*request, writer)
                if not kept:
                    break
        except _Refused as refusal:
            await self._send_error(writer, refusal.status, str(refusal))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # the peer left
        except asyncio.CancelledError:
            if self._server.is_serving():
                raise
            # stop() closes the connection: end as any closed one does
        except Exception as exc:  # noqa: BLE001 - connection isolation
            await self._send_error(writer, 500, f"{type(exc).__name__}: {exc}")
        finally:
            self._handlers.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader, kept: bool):
        """The next request as ``(method, path, body, keep)``, or ``None``
        when the connection is to close without a response: the peer
        closed it, or, kept, it sent no byte of a next request within
        :data:`READ_DEADLINE_S`.

        Only the read is bounded; responses, the /events stream
        included, take as long as they take.  A request line may not
        begin with CR or LF, so the header block's end is found past
        the first byte.
        """
        first = b""
        try:
            async with asyncio.timeout(READ_DEADLINE_S) as deadline:
                first = await reader.read(1)
                if not first:
                    return None
                if kept:  # a request's own deadline runs from its first byte
                    deadline.reschedule(
                        asyncio.get_running_loop().time() + READ_DEADLINE_S)
                if first in b"\r\n":
                    raise _Refused(400, "malformed request")
                try:
                    head = first + await reader.readuntil(b"\r\n\r\n")
                except asyncio.LimitOverrunError:
                    raise _Refused(400, "request header block too large") \
                        from None
                method, path, keep, length = _parse_head(head)
                body = await reader.readexactly(length) if length else b""
        except TimeoutError:
            if kept and not first:
                return None
            raise _Refused(408, "request not received within "
                                f"{READ_DEADLINE_S:g} s") from None
        return method, path, body, keep

    async def _answer(self, method: str, path: str, body: bytes, keep: bool,
                      writer) -> bool:
        """Answer one request; whether the connection stays open."""
        routed = await self._route(method, path, body)
        if isinstance(routed, Job):
            await self._stream_events(routed, writer)
            return False
        keep = keep and routed[0] < 400
        await self._send(writer, *routed, keep=keep)
        return keep

    async def _send(self, writer, status: int, data: bytes, content_type: str,
                    keep: bool = False) -> None:
        writer.write(
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {'keep-alive' if keep else 'close'}\r\n\r\n"
            .encode("latin-1") + data
        )
        await writer.drain()

    async def _send_error(self, writer, status: int, error: str) -> None:
        """The one-line error that ends a connection (its peer may be
        gone already)."""
        try:
            await self._send(writer, *_json(status, {"error": error}))
        except ConnectionError:
            pass

    # -- routing -------------------------------------------------------

    async def _route(self, method: str, path: str, body: bytes):
        """``(status, body bytes, content type)`` answering one request,
        or the :class:`~repro.serve.jobs.Job` whose events stream does."""
        if path == "/healthz" and method == "GET":
            return _json(200, self.supervisor.describe())
        if path == "/metrics" and method == "GET":
            return _json(200, obs_metrics.registry().snapshot())
        if path == "/jobs":
            if method == "POST":
                return await self._submit(body)
            if method == "GET":
                return _json(200, {"jobs": self.supervisor.registry.list()})
            return _json(405, {"error": "use GET or POST"})
        if path.startswith("/jobs/"):
            return self._job_route(method, path)
        return _json(404, {"error": f"no route {path!r}"})

    async def _submit(self, body: bytes):
        loop = asyncio.get_running_loop()
        try:
            job = await loop.run_in_executor(
                None, self.supervisor.submit, body
            )
        except ProtocolError as exc:
            return _json(400, {"error": str(exc)})
        except StoreError as exc:
            return _json(500, {"error": str(exc)})
        description = job.describe()
        if job.state == "rejected":
            return _json(413, {
                "error": job.error,
                "peak_bytes": job.peak_bytes,
                "memory_budget": self.supervisor.memory_budget,
                "job": description,
            })
        return _json(200 if job.state == "done" else 202, {"job": description})

    def _job_route(self, method: str, path: str):
        if method != "GET":
            return _json(405, {"error": "use GET"})
        segments = path.strip("/").split("/")
        job_id = segments[1] if len(segments) > 1 else ""
        job = self.supervisor.registry.get(job_id)
        if job is None:
            return _json(404, {"error": f"unknown job {job_id!r}"})
        action = segments[2] if len(segments) > 2 else None
        if action is None:
            return _json(200, {"job": job.describe()})
        if action == "result":
            if job.state != "done":
                return _json(409, {
                    "error": f"job is {job.state}, not done",
                    "job": job.describe(),
                })
            return 200, job.result_bytes, "application/json"
        if action == "events":
            return job
        return _json(404, {"error": f"no action {action!r}"})

    async def _stream_events(self, job, writer) -> None:
        """NDJSON progress stream: replay the log, then follow it."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        cursor = 0
        while True:
            events, cursor = job.events_since(cursor)
            for event in events:
                writer.write(json.dumps(event, sort_keys=True).encode())
                writer.write(b"\n")
            if events:
                await writer.drain()
            if job.terminal:
                tail, _ = job.events_since(cursor)
                if not tail:
                    break
                continue
            await asyncio.sleep(self.stream_poll)
        await writer.drain()


def run(store, host: str = "127.0.0.1", port: int = 8787,
        memory_budget: Optional[int] = None, pool_size: int = 2,
        model_cache=None, ttl: float = 30.0, poll: float = 0.05,
        warehouse=None, announce=print) -> None:
    """Build a supervisor + server and serve until interrupted.

    The blocking convenience entry the ``repro serve`` CLI command
    wraps; ``announce`` receives one line with the bound URL once the
    socket is listening (tests and scripts parse it to discover an
    ephemeral port).  ``warehouse`` optionally names a warehouse
    directory every completed job's studies are registered in (see
    :class:`~repro.serve.supervisor.StudySupervisor`).
    """
    supervisor = StudySupervisor(
        store, memory_budget=memory_budget, pool_size=pool_size,
        model_cache=model_cache, ttl=ttl, poll=poll, warehouse=warehouse,
    )
    server = StudyServer(supervisor, host=host, port=port)

    async def _main():
        await server.start()
        if announce is not None:
            announce(
                f"# serving on {server.url}  store: "
                f"{supervisor.store.directory}"
            )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:  # pragma: no cover - shutdown path
            pass

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - operator stop
        pass
    finally:
        supervisor.shutdown(wait=False)
