"""End-to-end tests for the HTTP front end and the stdlib client."""

import asyncio
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.serve.server as server_module
from repro.obs import metrics as obs_metrics
from repro.serve import ServeClient, ServeClientError, StudyServer
from repro.serve.supervisor import StudySupervisor

NETLIST = """
.title serve-server-demo
Rdrv n0 0 10
C0 n0 0 0.02p
R1 n0 n1 25
C1 n1 0 0.02p
R2 n1 n2 25
C2 n2 0 0.02p
R3 n2 n3 25
C3 n3 0 0.02p
.port in n0
"""


def _job(**overrides):
    document = {
        "netlist": NETLIST,
        "moments": 3,
        "plan": {"kind": "montecarlo", "instances": 4, "seed": 7},
        "workload": {"kind": "sweep", "points": 5},
        "chunk": 2,
    }
    document.update(overrides)
    return document


@pytest.fixture
def served(tmp_path):
    """A live server on an ephemeral port, its client, supervisor and
    a ``stop()`` that stops it from the test's thread (idempotent)."""
    supervisor = StudySupervisor(tmp_path / "store", pool_size=2)
    server = StudyServer(supervisor, port=0)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def _serve():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    def stop():
        if loop.is_running():
            asyncio.run_coroutine_threadsafe(server.stop(), loop).result(10.0)
            loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10.0)

    thread = threading.Thread(target=_serve, daemon=True)
    thread.start()
    assert started.wait(10.0), "server failed to start"
    client = ServeClient(server.url, timeout=60.0)
    yield client, supervisor, stop
    client.close()
    stop()
    supervisor.shutdown(wait=True)
    loop.close()


@pytest.fixture
def service(served):
    """A live server's client and supervisor."""
    return served[:2]


class TestLifecycle:
    def test_healthz_and_metrics(self, service):
        client, supervisor = service
        health = client.healthz()
        assert health["ok"] is True
        assert health["store"] == str(supervisor.store.directory)
        assert "counters" in client.metrics()

    def test_submit_wait_result(self, service):
        client, _ = service
        job = client.submit(_job())
        assert job["state"] in ("queued", "running", "done")
        final = client.wait(job["id"], timeout=60.0)
        assert final["state"] == "done", final["error"]
        document = client.result(job["id"])
        assert document["result"]["workload"] == "sweep"
        assert document["provenance"]["fingerprints"]

    def test_cached_resubmission_over_http(self, service):
        client, _ = service
        first = client.submit(_job())
        client.wait(first["id"], timeout=60.0)
        bytes_one = client.result_bytes(first["id"])

        second = client.submit(_job())
        assert second["state"] == "done"
        assert second["cached"] is True
        assert client.result_bytes(second["id"]) == bytes_one

    def test_document_hit_is_counted_in_metrics(self, service):
        client, _ = service
        first = client.wait(client.submit(_job())["id"], timeout=60.0)
        bytes_one = client.result_bytes(first["id"])

        def hits():
            return client.metrics()["counters"].get("serve.document_hits", 0)

        before = hits()
        again = client.submit(json.dumps(_job(), indent=2).encode())
        assert hits() == before + 1
        assert again["state"] == "done" and again["cached"] is True
        for field in ("key", "study_keys", "fingerprints", "peak_bytes"):
            assert again[field] == first[field], field
        assert client.result_bytes(again["id"]) == bytes_one

    def test_event_stream_replays_and_terminates(self, service):
        client, _ = service
        job = client.submit(_job())
        client.wait(job["id"], timeout=60.0)
        events = list(client.events(job["id"]))
        assert events
        names = [event["event"] for event in events]
        assert "study.chunk" in names
        assert names[-1] == "job.state"
        assert events[-1]["state"] == "done"

    def test_jobs_listing(self, service):
        client, _ = service
        submitted = client.submit(_job())
        listed = client.jobs()
        assert submitted["id"] in [job["id"] for job in listed]
        assert client.job(submitted["id"])["key"] == submitted["key"]

    def test_event_stream_surfaces_truncation(self, service):
        """A consumer joining after the bounded log overflowed must see
        the explicit ``events.truncated`` marker, streamed like any
        other event, and ``ServeClient.events`` must surface the drop
        count through ``on_truncated``."""
        from repro.serve.jobs import MAX_EVENTS

        client, supervisor = service
        job = client.submit(_job())
        client.wait(job["id"], timeout=60.0)
        record = supervisor.registry.get(job["id"])
        overflow = 150
        for i in range(MAX_EVENTS + overflow):
            record.add_event({"event": "tick", "i": i})
        drops = []
        events = list(client.events(job["id"], on_truncated=drops.append))
        assert events[0]["event"] == "events.truncated"
        assert events[0]["dropped"] == events[0]["next"] > 0
        assert drops == [events[0]["dropped"]]
        assert len(events) == MAX_EVENTS + 1  # window + the marker


class TestErrors:
    def test_malformed_job_is_400(self, service):
        client, _ = service
        with pytest.raises(ServeClientError) as info:
            client.submit({"netlist": NETLIST})
        assert info.value.status == 400
        assert "plan" in str(info.value)

    @pytest.mark.parametrize("netlist", [
        "C1 a 0 1p\n.port p a\n", ".port p a\n", "R1 a 0 1k\n.port p b\n",
    ], ids=["capacitor-only", "port-only", "floating-port"])
    def test_node_without_dc_path_is_one_line_400(self, service, netlist):
        """A singular G fails the reduction: a one-line 400, not a 500."""
        client, _ = service
        with pytest.raises(ServeClientError) as info:
            client.submit(_job(netlist=netlist))
        assert info.value.status == 400
        error = info.value.body["error"]
        assert "no resistive (DC) path to ground" in error and "\n" not in error
        assert client.jobs() == []

    def test_jobs_beyond_cpu_count_is_one_line_400(self, service):
        client, _ = service
        too_many = (os.cpu_count() or 1) + 1
        with pytest.raises(ServeClientError) as info:
            client.submit(_job(workload={"kind": "montecarlo", "poles": 2,
                                         "jobs": too_many}))
        assert info.value.status == 400
        assert "unknown workload option(s): jobs" in str(info.value)
        assert "\n" not in info.value.body["error"]

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("steps", 0, "num_steps"),
            ("steps", -3, "num_steps"),
            ("steps", 2.5, "num_steps"),
            ("steps", True, "num_steps"),
            ("steps", "9", "num_steps"),
            ("t_final", -1e-9, "t_final"),
            ("threshold", 2.0, "delay_threshold"),
            ("method", "euler", "method"),
            ("delay_reference", "x", "reference"),
        ],
    )
    def test_malformed_transient_is_400_and_never_queued(
        self, service, field, value, named
    ):
        client, _ = service
        workload = {"kind": "transient", "steps": 20, field: value}
        with pytest.raises(ServeClientError) as info:
            client.submit(_job(workload=workload))
        assert info.value.status == 400
        error = info.value.body["error"]
        assert named in error
        assert "\n" not in error
        assert client.jobs() == []

    @pytest.mark.parametrize("overrides, named", [
        ({"spread": float("nan")}, "'spread'"),
        ({"spread": float("inf")}, "'spread'"),
        ({"spread": 1e300}, "'spread' must be between 0 and 1"),
        ({"spread": -0.5}, "'spread' must be between 0 and 1"),
        ({"spread": 1, "parameters": 4},
         "'spread' 1 with 4 parameters and plan excursions up to 0.3"),
        ({"spread": 0.5, "plan": {"kind": "corners", "magnitude": 5}},
         "'spread' 0.5 with 2 parameters and plan excursions up to 5"),
        ({"workload": {"kind": "sweep", "points": 5, "fmax": float("inf")}},
         "'fmax'"),
        ({"workload": {"kind": "poles", "num": float("inf")}}, "num"),
        ({"workload": {"kind": "montecarlo", "bins": 0}}, "'bins'"),
    ], ids=["spread-nan", "spread-inf", "spread-1e300", "spread-negative",
            "spread-many-parameters", "spread-wide-corners", "fmax-inf",
            "poles-inf", "bins-zero"])
    def test_non_finite_or_bad_count_is_400_not_500(
        self, service, overrides, named
    ):
        """``NaN`` / ``Infinity`` travel as JSON literals; each is a
        one-line 400 naming the field, and nothing is queued."""
        client, _ = service
        with pytest.raises(ServeClientError) as info:
            client.submit(_job(**overrides))
        assert info.value.status == 400
        error = info.value.body["error"]
        assert named in error and "\n" not in error
        assert client.jobs() == []

    @pytest.mark.parametrize("workload, named", [
        ({"kind": "transient", "steps": 20, "output": 0.5}, "'output'"),
        ({"kind": "transient", "steps": 20,
          "waveform": {"kind": "step", "input": 3}}, "'waveform.input'"),
        ({"kind": "transient", "steps": 20,
          "waveform": {"kind": "step", "input": 0.5}}, "'waveform.input'"),
        ({"kind": "sweep", "points": 5, "input": 0.5}, "'input'"),
    ], ids=["output-half", "waveform-input-3", "waveform-input-half",
            "sweep-input-half"])
    def test_bad_port_index_is_400_and_never_queued(
        self, service, workload, named
    ):
        """A port index that is not an integer in range is a one-line
        400 naming the field; nothing is registered."""
        client, _ = service
        with pytest.raises(ServeClientError) as info:
            client.submit(_job(workload=workload))
        assert info.value.status == 400
        error = info.value.body["error"]
        assert named in error and "\n" not in error
        assert client.jobs() == []

    @pytest.mark.parametrize("workload", [
        {"kind": "poles", "num": 2}, {"kind": "montecarlo", "poles": 2},
    ], ids=["poles", "montecarlo"])
    def test_pole_job_on_a_net_without_outputs_is_400(self, service, workload):
        """No ``.port`` / ``.observe``: no ``H[0, 0]`` to rank poles by.
        Refused at submission in one line; nothing is registered."""
        client, _ = service
        with pytest.raises(ServeClientError) as info:
            client.submit(_job(netlist="V1 a 0\nR1 a 0 1\nC1 a 0 1p\n",
                               workload=workload))
        assert info.value.status == 400
        error = info.value.body["error"]
        assert error.startswith("declaration rejected: dominant poles")
        assert "\n" not in error
        assert client.jobs() == []

    @pytest.mark.parametrize("overrides, named", [
        ({"workload": {"kind": "sweep", "points": 1_000_001}},
         "'workload.points'"),
        ({"plan": {"kind": "montecarlo", "instances": 1_000_001}},
         "'plan.instances'"),
        ({"plan": {"kind": "grid", "points": 1001}}, "'plan.points'"),
        ({"workers": 65}, "'workers'"),
        ({"parameters": 65}, "'parameters'"),
        ({"workload": {"kind": "transient", "steps": 20, "input": 1}},
         "'waveform.input'"),
        ({"workload": {"kind": "poles", "num": 10**9}}, "'num'"),
        ({"workload": {"kind": "montecarlo", "bins": 10**9}}, "'bins'"),
        ({"workload": {"kind": "transient", "steps": 10**9}},
         "'workload.steps'"),
    ], ids=["sweep-points", "instances", "grid-total", "workers",
            "parameters", "transient-input", "poles-num", "signoff-bins",
            "transient-steps"])
    def test_unbounded_count_or_second_input_is_400(
        self, service, overrides, named
    ):
        """Counts past their cap and a transient ``input`` that is not
        its waveform's are one-line 400s; nothing is registered.  (The
        tiny budget keeps a server without these checks from running
        such a job: it would answer 413 instead.)"""
        client, supervisor = service
        supervisor.memory_budget = 16
        try:
            with pytest.raises(ServeClientError) as info:
                client.submit(_job(**overrides))
        finally:
            supervisor.memory_budget = None
        assert info.value.status == 400
        error = info.value.body["error"]
        assert named in error and "\n" not in error
        assert client.jobs() == []

    @pytest.mark.parametrize("body", [
        ('{"netlist": "x", "parameters": ' + "9" * 5000 + "}").encode(),
        b"[" * 200_000,
    ], ids=["integer-past-digit-limit", "nesting-past-recursion-limit"])
    def test_undecodable_json_is_400_not_500(self, service, body):
        client, _ = service
        with pytest.raises(ServeClientError) as info:
            client.submit(body)
        assert info.value.status == 400
        error = info.value.body["error"]
        assert "not valid JSON" in error and "\n" not in error
        assert client.jobs() == []

    def test_over_budget_is_413_with_estimate(self, service):
        client, supervisor = service
        supervisor.memory_budget = 16
        try:
            with pytest.raises(ServeClientError) as info:
                client.submit(_job())
        finally:
            supervisor.memory_budget = None
        assert info.value.status == 413
        assert info.value.body["peak_bytes"] > 16
        assert info.value.body["memory_budget"] == 16
        assert "rejected at admission" in str(info.value)

    def test_unknown_job_is_404(self, service):
        client, _ = service
        with pytest.raises(ServeClientError) as info:
            client.job("job-zzz")
        assert info.value.status == 404

    def test_unknown_route_is_404(self, service):
        client, _ = service
        with pytest.raises(ServeClientError) as info:
            client._json("GET", "/nope")
        assert info.value.status == 404

    def test_result_before_done_is_409(self, service):
        client, supervisor = service
        spec = _job(workload={"kind": "sweep", "points": 6})
        # Hold the queue so the job stays queued while we probe.
        gate = threading.Event()
        supervisor.start()
        for _ in range(supervisor.pool_size):
            supervisor._queue.put(_Blocker(gate))
        try:
            job = client.submit(spec)
            if job["state"] != "done":  # not served from cache
                with pytest.raises(ServeClientError) as info:
                    client.result_bytes(job["id"])
                assert info.value.status == 409
        finally:
            gate.set()
        client.wait(job["id"], timeout=60.0)

    def test_method_not_allowed_is_405(self, service):
        client, _ = service
        with pytest.raises(ServeClientError) as info:
            client._json("DELETE", "/jobs")
        assert info.value.status == 405

    @pytest.mark.parametrize("header", [
        b"Content-Length: abc\r\n",
        b"Content-Length: -5\r\n",
        b"X-Padding: " + b"a" * 70_000 + b"\r\n",
    ], ids=["non-numeric-length", "negative-length", "oversized-header"])
    def test_malformed_headers_are_one_line_400(self, service, header):
        client, _ = service
        request = b"POST /jobs HTTP/1.1\r\nHost: x\r\n" + header + b"\r\n"
        with socket.create_connection((client.host, client.port), 10) as sock:
            sock.sendall(request)
            response = b""
            while chunk := sock.recv(65536):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), head[:80]
        assert len(body.splitlines()) == 1
        assert json.loads(body)["error"]

    @pytest.mark.parametrize("sent", [
        b"",
        b"POST /jobs HTTP/1.1\r\nHost: x\r\n",
        b"POST /jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"netlist\":",
    ], ids=["idle", "half-header", "short-body"])
    def test_stalled_request_is_408_then_closed(self, service, monkeypatch, sent):
        monkeypatch.setattr(server_module, "READ_DEADLINE_S", 0.2)
        client, _ = service
        # The socket timeout makes a server without a deadline fail
        # this test instead of hanging it.
        with socket.create_connection((client.host, client.port), 5) as sock:
            sock.sendall(sent)
            response = b""
            while chunk := sock.recv(65536):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 408 "), head[:80]
        assert len(body.splitlines()) == 1
        assert "not received within" in json.loads(body)["error"]


def _head(head: bytes):
    """``(status, headers)`` of one response's header block."""
    status_line, *lines = head.decode("latin-1").split("\r\n")
    return int(status_line.split()[1]), {
        name.strip().lower(): value.strip()
        for name, _, value in (line.partition(":") for line in lines)}


def _responses(data: bytes):
    """``[(status, headers, body)]`` of raw response bytes, each framed
    by its ``Content-Length``; nothing may be left over."""
    responses = []
    while data:
        head, separator, rest = data.partition(b"\r\n\r\n")
        assert separator, data[:80]
        status, headers = _head(head)
        length = int(headers["content-length"])
        assert len(rest) >= length, head
        responses.append((status, headers, rest[:length]))
        data = rest[length:]
    return responses


def _read_to_close(sock) -> bytes:
    """Everything the server sends until it closes the socket (the
    socket's timeout fails a server that never does)."""
    data = b""
    while chunk := sock.recv(65536):
        data += chunk
    return data


def _read_response(sock):
    """The next ``(status, headers, body)`` on a connection kept open."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, "closed before a response"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status, headers = _head(head)
    while len(body) < int(headers["content-length"]):
        body += sock.recv(65536)
    return status, headers, body


GET = b"GET %s HTTP/1.1\r\nHost: x\r\n\r\n"


def _connections():
    return obs_metrics.registry().snapshot()["counters"].get(
        "serve.http_connections", 0)


class TestKeepAlive:
    """One connection carries many requests, answered in order; any
    response that is not a 2xx to a plain HTTP/1.1 request closes it."""

    def test_two_requests_on_one_socket(self, service):
        client, _ = service
        with socket.create_connection((client.host, client.port), 5) as sock:
            sock.sendall(GET % b"/healthz")
            status, headers, body = _read_response(sock)
            assert (status, headers["connection"]) == (200, "keep-alive")
            assert json.loads(body)["ok"] is True
            sock.sendall(GET % b"/metrics")
            status, headers, body = _read_response(sock)
            assert (status, headers["connection"]) == (200, "keep-alive")
            assert "counters" in json.loads(body)

    def test_pipelined_pair_in_one_send(self, service):
        client, _ = service
        with socket.create_connection((client.host, client.port), 5) as sock:
            sock.sendall(GET % b"/healthz" + b"GET /metrics HTTP/1.1\r\n"
                         b"Connection: close\r\n\r\n")
            (_, first, one), (_, last, two) = _responses(_read_to_close(sock))
        assert json.loads(one)["ok"] is True and "counters" in json.loads(two)
        assert (first["connection"], last["connection"]) == \
            ("keep-alive", "close")

    @pytest.mark.parametrize("request_bytes, status", [
        (b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", 200),
        (b"GET /healthz HTTP/1.1\r\nConnection: Upgrade, Close\r\n\r\n",
         200),
        (b"GET /healthz HTTP/1.0\r\n\r\n", 200),
        (b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", 200),
        (GET % b"/nope", 404),
        (GET % b"/jobs/", 404),
        (GET % b"/jobs/job-zzz/result", 404),
        (b"DELETE /jobs HTTP/1.1\r\n\r\n", 405),
        (b"POST /jobs HTTP/1.1\r\nContent-Length: 3\r\n\r\n{x}", 400),
        (b"POST /jobs HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
         413),
    ], ids=["connection-close", "close-token", "http-1.0",
            "http-1.0-keep-alive", "404", "404-no-id", "404-result",
            "405", "400-json", "413"])
    def test_response_closes_the_connection(self, service, request_bytes,
                                            status):
        """The request after it, sent in the same ``send``, is never
        answered."""
        client, _ = service
        with socket.create_connection((client.host, client.port), 5) as sock:
            sock.sendall(request_bytes + GET % b"/healthz")
            ((answered, headers, body),) = _responses(_read_to_close(sock))
        assert (answered, headers["connection"]) == (status, "close")
        if status >= 400:
            assert len(body.splitlines()) == 1 and json.loads(body)["error"]

    def test_500_closes_the_connection(self, service, monkeypatch):
        client, supervisor = service

        def broken():
            raise RuntimeError("describe failed")

        monkeypatch.setattr(supervisor, "describe", broken)
        with socket.create_connection((client.host, client.port), 5) as sock:
            sock.sendall(GET % b"/healthz" + GET % b"/metrics")
            ((status, headers, body),) = _responses(_read_to_close(sock))
        assert (status, headers["connection"]) == (500, "close")
        assert json.loads(body)["error"] == "RuntimeError: describe failed"

    @pytest.mark.parametrize("framing", [
        b"Transfer-Encoding: chunked\r\n",
        b"Content-Length: 23\r\nContent-Length: 0\r\n",
        b"Content-Length: 23\r\ncontent-length:  24\r\n",
    ], ids=["transfer-encoding", "conflicting", "conflicting-case"])
    def test_unframeable_body_is_one_line_400(self, service, framing):
        """A body whose end the reader cannot tell is refused, never
        read as the next request (its bytes here are one)."""
        client, _ = service
        with socket.create_connection((client.host, client.port), 5) as sock:
            sock.sendall(b"POST /jobs HTTP/1.1\r\n" + framing + b"\r\n"
                         + GET % b"/healthz")
            ((status, headers, body),) = _responses(_read_to_close(sock))
        assert (status, headers["connection"]) == (400, "close")
        assert len(body.splitlines()) == 1
        assert "Content-Length" in json.loads(body)["error"]

    def test_repeated_equal_length_is_one_length(self, service):
        client, _ = service
        with socket.create_connection((client.host, client.port), 5) as sock:
            sock.sendall(b"POST /jobs HTTP/1.1\r\nContent-Length: 3\r\n"
                         b"Content-Length: 3\r\n\r\n{x}")
            ((status, _, body),) = _responses(_read_to_close(sock))
        assert status == 400 and "not valid JSON" in json.loads(body)["error"]

    def test_idle_kept_connection_closes_without_a_byte(self, service,
                                                        monkeypatch):
        monkeypatch.setattr(server_module, "READ_DEADLINE_S", 0.2)
        client, _ = service
        with socket.create_connection((client.host, client.port), 5) as sock:
            sock.sendall(GET % b"/healthz")
            assert _read_response(sock)[1]["connection"] == "keep-alive"
            start = time.monotonic()
            assert _read_to_close(sock) == b""
        assert time.monotonic() - start < 3.0

    def test_event_stream_ends_with_a_close(self, service):
        client, _ = service
        job = client.wait(client.submit(_job())["id"], timeout=60.0)
        with socket.create_connection((client.host, client.port), 5) as sock:
            sock.sendall(GET % f"/jobs/{job['id']}/events".encode())
            data = _read_to_close(sock)
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        assert b"\r\nConnection: close" in head
        assert json.loads(body.splitlines()[-1])["state"] == "done"


class TestClientConnections:
    """``ServeClient`` keeps one connection per thread."""

    def test_one_connection_per_thread(self, service):
        client, _ = service
        before = client.metrics()["counters"]
        with ServeClient(f"http://{client.host}:{client.port}") as fresh:
            for _ in range(10):
                fresh.healthz()
            worker = threading.Thread(
                target=lambda: [fresh.jobs() for _ in range(5)])
            worker.start()
            worker.join(10.0)
            assert not worker.is_alive()
        after = client.metrics()["counters"]
        assert after["serve.http_connections"] \
            - before["serve.http_connections"] == 2
        assert after["serve.http_requests"] \
            - before["serve.http_requests"] == 15 + 1

    def test_threads_sharing_a_client_each_keep_one(self, service):
        """Eight threads (more than the cores) share one client under a
        short switch interval: every answer is its own request's, and
        each thread opened exactly one connection."""
        client, _ = service
        job = client.wait(client.submit(_job())["id"], timeout=60.0)
        opened, errors = _connections(), []
        shared = ServeClient(f"http://{client.host}:{client.port}")
        barrier = threading.Barrier(8)

        def poll():
            try:
                barrier.wait(timeout=10.0)
                for _ in range(20):
                    assert shared.job(job["id"])["id"] == job["id"]
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        threads = [threading.Thread(target=poll) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
            shared.close()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert _connections() == opened + 8

    def test_reopens_after_the_server_closed_an_idle_connection(
            self, service, monkeypatch):
        monkeypatch.setattr(server_module, "READ_DEADLINE_S", 0.2)
        client, _ = service
        counters = [client.metrics()["counters"]]
        time.sleep(0.6)  # the server closes the idle connection
        counters += [client.metrics()["counters"] for _ in range(2)]
        opened = [b["serve.http_connections"] - a["serve.http_connections"]
                  for a, b in zip(counters, counters[1:])]
        assert opened == [1, 0]

    def test_close_closes_the_connection(self, service):
        client, _ = service
        client.healthz()
        (connection,) = client._connections.values()
        sock = connection.sock
        client.close()
        assert sock.fileno() == -1 and not client._connections
        opened = _connections()
        assert client.healthz()["ok"] is True
        assert _connections() == opened + 1

    def test_server_stops_promptly_with_a_kept_connection(self, served):
        client, _, stop = served
        client.healthz()
        start = time.monotonic()
        stop()
        assert time.monotonic() - start < 5.0
        with pytest.raises(OSError):
            client.healthz()

    def test_sigint_stops_repro_serve_with_a_kept_connection(self, tmp_path):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             str(tmp_path / "store"), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env,
        )
        try:
            url = re.search(r"serving on (\S+)", proc.stdout.readline())[1]
            with ServeClient(url, timeout=10.0) as client:
                assert client.healthz()["ok"] is True
                start = time.monotonic()
                proc.send_signal(signal.SIGINT)
                assert proc.wait(timeout=10.0) == 0
                assert time.monotonic() - start < 5.0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()


class _Blocker:
    """A queue entry that parks one worker until the gate opens."""

    def __init__(self, gate):
        self._gate = gate
        self.workers = 1

    def mark_failed(self, error):
        pass

    @property
    def _realized(self):
        self._gate.wait(30.0)

        class _Spec:
            workload_kind = "sweep"

        raise RuntimeError("blocker drained")
