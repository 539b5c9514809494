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
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Tuple

from repro.obs import metrics as obs_metrics
from repro.runtime.store import StoreError
from repro.serve.protocol import ProtocolError
from repro.serve.supervisor import StudySupervisor

__all__ = ["StudyServer", "run"]

#: Submission body bound: a netlist plus options is kilobytes; anything
#: approaching this is a mistake or an attack, not a job.
MAX_BODY_BYTES = 8 * 2**20
#: Seconds a client has to deliver one whole request (header block and
#: body).  Without a bound, a client that connects and then stalls
#: holds a handler for ever; a full-size body needs ~280 KB/s.
READ_DEADLINE_S = 30.0
_REQUESTS = obs_metrics.counter("serve.http_requests")

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 409: "Conflict",
    413: "Payload Too Large", 500: "Internal Server Error",
}


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
        """Serve until cancelled (``start`` must have run)."""
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.supervisor.shutdown(wait=False)

    @property
    def url(self) -> str:
        """Base URL of the bound socket."""
        return f"http://{self.host}:{self.port}"

    # -- request plumbing ----------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await asyncio.wait_for(
                    self._read_request(reader, writer), READ_DEADLINE_S
                )
            except asyncio.TimeoutError:
                # Only the request read is bounded; responses, the
                # /events stream included, take as long as they take.
                await self._send_json(writer, 408, {
                    "error": "request not received within "
                             f"{READ_DEADLINE_S:g} s",
                })
                return
            if request is None:
                return
            method, path, body = request
            _REQUESTS.inc()
            await self._route(method, path, body, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # noqa: BLE001 - connection isolation
            try:
                await self._send_json(
                    writer, 500,
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader, writer):
        """``(method, path, body)``, or ``None`` once a 4xx is answered.

        Malformed framing -- a header block past the stream limit, a
        ``Content-Length`` that is not a plain decimal count -- gets a
        one-line 400, never the catch-all 500.
        """
        try:
            header_bytes = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            await self._send_json(
                writer, 400, {"error": "request header block too large"}
            )
            return None
        request_line, *header_lines = header_bytes.decode(
            "latin-1"
        ).split("\r\n")
        parts = request_line.split()
        if len(parts) != 3:
            await self._send_json(writer, 400, {"error": "malformed request"})
            return None
        method, target, _version = parts
        headers = {}
        for line in header_lines:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            await self._send_json(
                writer, 400,
                {"error": f"invalid Content-Length {raw_length[:32]!r}"},
            )
            return None
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            await self._send_json(
                writer, 413,
                {"error": f"body exceeds {MAX_BODY_BYTES} bytes"},
            )
            return None
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target.split("?", 1)[0], body

    async def _send(self, writer, status: int, data: bytes,
                    content_type: str) -> None:
        writer.write(
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            "Connection: close\r\n\r\n".encode("latin-1")
        )
        writer.write(data)
        await writer.drain()

    async def _send_json(self, writer, status: int, payload: dict) -> None:
        await self._send(
            writer, status,
            json.dumps(payload, sort_keys=True).encode(),
            "application/json",
        )

    # -- routing -------------------------------------------------------

    async def _route(self, method: str, path: str, body: bytes,
                     writer) -> None:
        if path == "/healthz" and method == "GET":
            await self._send_json(writer, 200, self.supervisor.describe())
            return
        if path == "/metrics" and method == "GET":
            await self._send_json(
                writer, 200, obs_metrics.registry().snapshot()
            )
            return
        if path == "/jobs":
            if method == "POST":
                await self._submit(body, writer)
                return
            if method == "GET":
                await self._send_json(
                    writer, 200, {"jobs": self.supervisor.registry.list()}
                )
                return
            await self._send_json(writer, 405, {"error": "use GET or POST"})
            return
        if path.startswith("/jobs/"):
            await self._job_route(method, path, writer)
            return
        await self._send_json(writer, 404, {"error": f"no route {path!r}"})

    async def _submit(self, body: bytes, writer) -> None:
        loop = asyncio.get_running_loop()
        try:
            job = await loop.run_in_executor(
                None, self.supervisor.submit, body
            )
        except ProtocolError as exc:
            await self._send_json(writer, 400, {"error": str(exc)})
            return
        except StoreError as exc:
            await self._send_json(writer, 500, {"error": str(exc)})
            return
        description = job.describe()
        if job.state == "rejected":
            await self._send_json(writer, 413, {
                "error": job.error,
                "peak_bytes": job.peak_bytes,
                "memory_budget": self.supervisor.memory_budget,
                "job": description,
            })
            return
        status = 200 if job.state == "done" else 202
        await self._send_json(writer, status, {"job": description})

    async def _job_route(self, method: str, path: str, writer) -> None:
        if method != "GET":
            await self._send_json(writer, 405, {"error": "use GET"})
            return
        segments = path.strip("/").split("/")
        job = self.supervisor.registry.get(segments[1])
        if job is None:
            await self._send_json(
                writer, 404, {"error": f"unknown job {segments[1]!r}"}
            )
            return
        action = segments[2] if len(segments) > 2 else None
        if action is None:
            await self._send_json(writer, 200, {"job": job.describe()})
            return
        if action == "result":
            if job.state != "done":
                await self._send_json(writer, 409, {
                    "error": f"job is {job.state}, not done",
                    "job": job.describe(),
                })
                return
            await self._send(
                writer, 200, job.result_bytes, "application/json"
            )
            return
        if action == "events":
            await self._stream_events(job, writer)
            return
        await self._send_json(writer, 404, {"error": f"no action {action!r}"})

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
