"""The study service's raw request reader at the trust boundary.

``repro serve`` reads HTTP/1.1 off a socket from any client, and a kept
connection carries many requests, so a request the reader mis-frames
would have its leftover bytes parsed as the next one.  This suite opens
one socket to an in-process :class:`~repro.serve.StudyServer` (its
``READ_DEADLINE_S`` made small) and sends a drawn byte stream: zero to
three whole requests -- GETs of every route, POSTs of a valid job
document or of bad JSON, other methods, HTTP/1.0, ``Connection:
close`` in any case, extra headers -- then at most one hostile tail: a
truncated header block or body, an oversized header block,
``Transfer-Encoding``, conflicting or malformed ``Content-Length``
values, or bytes that are not HTTP.  The stream goes out in one
``send`` (pipelined) or one ``send`` per request, and the socket is
then half-closed or left open.

What comes back must be well-formed responses, framed by their
``Content-Length``, answering the whole requests in order until one of
them closes the connection.  Statuses are 2xx or 4xx, never 5xx; every
error body is one line of JSON; only a 2xx to a plain HTTP/1.1 request
says ``keep-alive``, so a 4xx is the last response.  A hostile tail
gets its 400 / 408 / 413 (a truncation left open its 408, one
half-closed nothing; so does a connection that sends nothing), a kept
connection left idle is closed without a byte, and the server closes
the socket within a few deadlines: it never hangs.
"""

import asyncio
import json
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.serve.server as server_module
from repro.serve import StudyServer, StudySupervisor

SETTINGS = settings(
    deadline=None, max_examples=40,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

DEADLINE_S = 0.15

JOB = json.dumps({
    "netlist": "Rdrv n0 0 10\nC0 n0 0 0.02p\nR1 n0 n1 25\nC1 n1 0 0.02p\n"
               ".port in n0\n",
    "moments": 2, "plan": {"kind": "montecarlo", "instances": 2, "seed": 1},
    "workload": {"kind": "sweep", "points": 3}, "chunk": 1,
}).encode()

#: route -> (method, target, body, allowed statuses, key of a 2xx body)
ROUTES = {
    "healthz": ("GET", "/healthz", b"", {200}, "ok"),
    "metrics": ("GET", "/metrics?x=1", b"", {200}, "counters"),
    "jobs": ("GET", "/jobs", b"", {200}, "jobs"),
    "submit": ("POST", "/jobs", JOB, {200, 202}, "job"),
    "bad-json": ("POST", "/jobs", b"{not json", {400}, None),
    "no-route": ("GET", "/nope", b"", {404}, None),
    "no-job": ("GET", "/jobs/job-zzz/result", b"", {404}, None),
    "no-id": ("GET", "/jobs/", b"", {404}, None),
    "method": ("DELETE", "/jobs", b"", {405}, None),
}


@pytest.fixture(scope="module")
def address(tmp_path_factory):
    """``(host, port)`` of a live server whose read deadline is small."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(server_module, "READ_DEADLINE_S", DEADLINE_S)
        supervisor = StudySupervisor(
            tmp_path_factory.mktemp("http") / "store", pool_size=1)
        server = StudyServer(supervisor, port=0)
        loop = asyncio.new_event_loop()
        started = threading.Event()

        def serve():
            asyncio.set_event_loop(loop)
            loop.run_until_complete(server.start())
            started.set()
            loop.run_forever()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert started.wait(10.0)
        yield server.host, server.port
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(10.0)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10.0)
        supervisor.shutdown(wait=True)
        loop.close()


@st.composite
def whole_requests(draw):
    """``(bytes, statuses, body key, keeps)`` of one whole request."""
    route = draw(st.sampled_from(sorted(ROUTES)))
    method, target, body, statuses, key = ROUTES[route]
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.1", "HTTP/1.0"]))
    connection = draw(st.sampled_from(
        [None, "keep-alive", "close", "Close", "upgrade, CLOSE"]))
    lines = [f"{method} {target} {version}", "Host: x"]
    lines += draw(st.lists(st.sampled_from(
        ["Accept: */*", "X-Empty:", "X-Dup: 1", "X-Dup: 2",
         "Content-Type: application/json", "not a header line"]),
        max_size=3))
    if connection is not None:
        lines.append(f"Connection: {connection}")
    if body or draw(st.booleans()):
        lines.append(f"Content-Length: {len(body)}")
    data = ("\r\n".join(lines) + "\r\n\r\n").encode() + body
    keeps = version == "HTTP/1.1" and max(statuses) < 400 \
        and "close" not in (connection or "").lower()
    return data, statuses, key, keeps


HOSTILE_HEADERS = {
    "transfer-encoding": (b"Transfer-Encoding: chunked\r\n", 400),
    "te-and-length": (b"Content-Length: 5\r\nTransfer-Encoding: x\r\n", 400),
    "conflicting": (b"Content-Length: 5\r\nContent-Length: 6\r\n", 400),
    "non-numeric": (b"Content-Length: abc\r\n", 400),
    "negative": (b"Content-Length: -5\r\n", 400),
    "signed": (b"Content-Length: +5\r\n", 400),
    "exponent": (b"Content-Length: 1e3\r\n", 400),
    "two-values": (b"Content-Length: 5, 5\r\n", 400),
    "non-ascii-digit": ("Content-Length: ²\r\n".encode("latin-1"), 400),
    "huge": (b"Content-Length: " + b"9" * 5000 + b"\r\n", 413),
    "too-large": (b"Content-Length: 8388609\r\n", 413),
    "oversized-block": (b"X-Padding: " + b"a" * 70_000 + b"\r\n", 400),
}


@st.composite
def tails(draw):
    """``(bytes, kind, status)`` ending a stream, or ``None``."""
    kind = draw(st.sampled_from(
        ["none", "hostile", "truncated", "not-http"]))
    if kind == "none":
        return None
    if kind == "hostile":
        name = draw(st.sampled_from(sorted(HOSTILE_HEADERS)))
        header, status = HOSTILE_HEADERS[name]
        return (b"POST /jobs HTTP/1.1\r\n" + header + b"\r\n"
                + b"GET /healthz HTTP/1.1\r\n\r\n", kind, status)
    if kind == "truncated":
        data = draw(whole_requests())[0]
        cut = draw(st.integers(1, len(data) - 1))
        return data[:cut], kind, 408
    return draw(st.binary(min_size=1, max_size=300)), kind, None


@st.composite
def streams(draw):
    return (draw(st.lists(whole_requests(), max_size=3)), draw(tails()),
            draw(st.booleans()), draw(st.booleans()))


def _responses(data: bytes):
    """``[(status, headers, body)]``: every response, framed exactly."""
    responses = []
    while data:
        head, separator, rest = data.partition(b"\r\n\r\n")
        assert separator, f"unframed bytes {data[:80]!r}"
        status_line, *lines = head.decode("latin-1").split("\r\n")
        version, status, _ = status_line.split(" ", 2)
        assert version == "HTTP/1.1", status_line
        headers = {name.lower(): value.strip() for name, _, value
                   in (line.partition(":") for line in lines)}
        length = int(headers["content-length"])
        assert len(rest) >= length, f"short body after {head!r}"
        responses.append((int(status), headers, rest[:length]))
        data = rest[length:]
    return responses


def _exchange(address, chunks, half_close):
    """Send ``chunks``, then read until the server closes: ``(bytes,
    seconds from the last send to the close)``."""
    with socket.create_connection(address, timeout=5.0) as sock:
        try:
            for chunk in chunks:
                sock.sendall(chunk)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # closed after an earlier request: the rest is unread
        sent, data = time.monotonic(), b""
        try:
            while chunk := sock.recv(65536):
                data += chunk
        except ConnectionResetError:
            pass  # bytes sent after the close: what came before stands
        return data, time.monotonic() - sent


@SETTINGS
@given(stream=streams())
def test_request_streams_get_ordered_well_formed_answers(address, stream):
    requests, tail, pipelined, half_close = stream
    payloads = [data for data, *_ in requests] + ([tail[0]] if tail else [])
    chunks = [b"".join(payloads)] if pipelined else payloads
    data, waited = _exchange(address, [c for c in chunks if c], half_close)
    assert waited < 4 * DEADLINE_S + 2.0
    responses = _responses(data)

    for status, headers, body in responses:
        assert 200 <= status < 300 or 400 <= status < 500, status
        if status >= 400:
            assert len(body.splitlines()) == 1
            assert json.loads(body)["error"]
    assert all(headers["connection"] == "keep-alive"
               for _, headers, _ in responses[:-1])
    if responses and responses[-1][0] >= 400:
        assert responses[-1][1]["connection"] == "close"

    # The whole requests are answered in order, up to the first close.
    answered = 0
    for (_, statuses, key, keeps), (status, headers, body) in zip(
            requests, responses):
        assert status in statuses, (status, statuses)
        assert headers["connection"] == ("keep-alive" if keeps else "close")
        if key is not None:
            assert key in json.loads(body)
        answered += 1
        if not keeps:
            break
    if answered < len(requests) or not all(r[3] for r in requests):
        assert len(responses) == answered
        return
    assert answered == len(requests)
    extra = responses[answered:]
    if tail is None:  # only a fresh connection left silent gets a 408
        expected = [] if requests or half_close else [408]
        assert [status for status, _, _ in extra] == expected
    elif tail[1] == "hostile":
        assert [status for status, _, _ in extra] == [tail[2]]
    elif tail[1] == "truncated":
        expected = [] if half_close else [408]
        assert [status for status, _, _ in extra] == expected
