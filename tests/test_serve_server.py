"""End-to-end tests for the HTTP front end and the stdlib client."""

import asyncio
import json
import os
import socket
import threading
import time

import pytest

import repro.serve.server as server_module
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
def service(tmp_path):
    """A live server on an ephemeral port, with its client."""
    supervisor = StudySupervisor(tmp_path / "store", pool_size=2)
    server = StudyServer(supervisor, port=0)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def _serve():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=_serve, daemon=True)
    thread.start()
    assert started.wait(10.0), "server failed to start"
    yield ServeClient(server.url, timeout=60.0), supervisor
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=10.0)
    supervisor.shutdown(wait=True)
    loop.close()


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
        ({"workload": {"kind": "sweep", "points": 5, "fmax": float("inf")}},
         "'fmax'"),
        ({"workload": {"kind": "poles", "num": float("inf")}}, "num"),
        ({"workload": {"kind": "montecarlo", "bins": 0}}, "'bins'"),
    ], ids=["spread-nan", "spread-inf", "fmax-inf", "poles-inf", "bins-zero"])
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
