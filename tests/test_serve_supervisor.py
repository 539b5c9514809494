"""Tests for the study-service supervisor: admission, cache, provenance."""

import json
import threading
import time

import pytest

from repro.obs import metrics as obs_metrics
from repro.serve.protocol import ProtocolError
from repro.serve.supervisor import AdmissionError, StudySupervisor

NETLIST = """
.title serve-supervisor-demo
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


def _wait(job, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not job.terminal:
        if time.monotonic() >= deadline:
            raise TimeoutError(f"job {job.id} stuck in {job.state}")
        time.sleep(0.01)
    return job


@pytest.fixture
def supervisor(tmp_path):
    supervisor = StudySupervisor(tmp_path / "store", pool_size=2)
    yield supervisor
    supervisor.shutdown(wait=True)


def _evaluated():
    snapshot = obs_metrics.registry().snapshot()
    return snapshot["counters"].get("study.instances_evaluated", 0)


class TestSubmission:
    def test_job_runs_to_done_with_provenance(self, supervisor):
        job = _wait(supervisor.submit(_job()))
        assert job.state == "done"
        assert not job.cached
        document = json.loads(job.result_bytes)
        assert document["result"]["workload"] == "sweep"
        assert len(document["result"]["frequencies_hz"]) == 5
        fingerprints = document["provenance"]["fingerprints"]
        assert [fp["key"] for fp in fingerprints] == job.study_keys
        lineage = document["provenance"]["lineage"][job.study_keys[0]]
        assert len(lineage) == 2  # 4 instances / chunk 2
        assert all(len(record["sha256"]) == 64 for record in lineage)

    def test_protocol_error_raises_before_registration(self, supervisor):
        with pytest.raises(ProtocolError):
            supervisor.submit(_job(netlist=""))
        assert len(supervisor.registry) == 0

    def test_runtime_failure_marks_job_failed(self, supervisor):
        from repro.serve.jobs import Job
        from repro.serve.protocol import parse_job, realize

        spec = parse_job(_job())
        realized = realize(spec)

        def explode():
            raise RuntimeError("engine exploded")

        realized.studies = {"study": explode}
        job = Job("job-test-fail", "0" * 64, spec.canonical(),
                  study_keys=realized.study_keys,
                  fingerprints=realized.fingerprints,
                  peak_bytes=realized.peak_bytes)
        job._realized = realized
        supervisor._run_job(job)
        assert job.state == "failed"
        assert "engine exploded" in job.error
        assert job.result_bytes is None

    def test_event_log_records_lifecycle_and_chunks(self, supervisor):
        job = _wait(supervisor.submit(_job()))
        events = [event["event"] for event in job.events]
        assert events[0] == "job.state"
        assert "study.chunk" in events
        assert events[-1] == "job.state"
        assert all(event["job"] == job.id for event in job.events)


class TestCaching:
    def test_resubmission_is_byte_identical_with_zero_recompute(
            self, supervisor):
        first = _wait(supervisor.submit(_job()))
        assert not first.cached

        before = _evaluated()
        second = _wait(supervisor.submit(_job()))
        assert second.cached
        assert second.state == "done"
        assert second.result_bytes == first.result_bytes
        assert _evaluated() == before  # zero recompute, zero reload

    def test_two_clients_cost_one_evaluation(self, supervisor):
        """The acceptance scenario: identical studies from two clients
        cost exactly one evaluation of the study's instances."""
        job = _job(workload={"kind": "sweep", "points": 4})
        before = _evaluated()
        first = _wait(supervisor.submit(job))
        evaluated_once = _evaluated() - before
        assert evaluated_once == 4  # the plan's instance count, once

        second = _wait(supervisor.submit(dict(job)))
        assert _evaluated() - before == evaluated_once
        assert second.result_bytes == first.result_bytes

    def test_default_insensitive_submissions_share_the_result(
            self, supervisor):
        first = _wait(supervisor.submit(_job()))
        second = _wait(supervisor.submit(_job(
            parameters=2, spread=0.5, workers=1,
        )))
        assert second.cached
        assert second.key == first.key

    def test_result_index_survives_a_restart(self, supervisor, tmp_path):
        first = _wait(supervisor.submit(_job()))
        supervisor.shutdown(wait=True)

        fresh = StudySupervisor(tmp_path / "store", pool_size=1)
        try:
            second = _wait(fresh.submit(_job()))
            assert second.cached
            assert second.result_bytes == first.result_bytes
        finally:
            fresh.shutdown(wait=True)

    def test_rendering_options_change_the_job_key(self, supervisor):
        first = _wait(supervisor.submit(_job()))
        other = _wait(supervisor.submit(_job(
            workload={"kind": "sweep", "points": 5, "output": 0},
        )))
        # Identical rendering options canonicalize identically...
        assert other.cached and other.key == first.key
        bins = _wait(supervisor.submit(_job(
            workload={"kind": "sweep", "points": 4},
        )))
        # ...while a different declaration gets its own key.
        assert bins.key != first.key


class TestAdmission:
    def test_over_budget_job_rejected_with_estimate(self, tmp_path):
        supervisor = StudySupervisor(tmp_path / "store", memory_budget=16)
        try:
            job = supervisor.submit(_job())
            assert job.state == "rejected"
            assert job.terminal
            assert str(job.peak_bytes) in job.error
            assert "memory budget 16 bytes" in job.error
            assert job.result_bytes is None
        finally:
            supervisor.shutdown(wait=True)

    def test_admission_error_carries_numbers(self):
        error = AdmissionError(2048, 16)
        assert error.peak_bytes == 2048
        assert error.budget == 16
        assert "2048" in str(error) and "16" in str(error)

    def test_budget_admits_small_jobs(self, tmp_path):
        supervisor = StudySupervisor(
            tmp_path / "store", memory_budget=64 * 2**20
        )
        try:
            job = _wait(supervisor.submit(_job()))
            assert job.state == "done"
        finally:
            supervisor.shutdown(wait=True)


class TestWorkloads:
    def test_transient_job(self, supervisor):
        job = _wait(supervisor.submit(_job(workload={
            "kind": "transient", "waveform": {"kind": "ramp"}, "steps": 40,
        })))
        assert job.state == "done", job.error
        result = json.loads(job.result_bytes)["result"]
        assert result["workload"] == "transient"
        assert result["delay_summary"]["of"] == 4
        assert len(result["time_s"]) == 41

    def test_poles_job(self, supervisor):
        job = _wait(supervisor.submit(_job(workload={
            "kind": "poles", "num": 3,
        })))
        assert job.state == "done", job.error
        result = json.loads(job.result_bytes)["result"]
        assert result["workload"] == "poles"
        assert result["num_samples"] == 4

    def test_montecarlo_job_multi_worker(self, supervisor):
        job = _wait(supervisor.submit(_job(
            workload={"kind": "montecarlo", "poles": 2},
            workers=2,
        )), timeout=120)
        assert job.state == "done", job.error
        document = json.loads(job.result_bytes)
        result = document["result"]
        assert result["workload"] == "montecarlo"
        assert result["num_instances"] == 4
        assert len(document["provenance"]["lineage"]) == 2
        # chunk records carry the per-worker attribution
        lineage = document["provenance"]["lineage"]
        workers = {
            record["worker"]
            for records in lineage.values() for record in records
        }
        assert workers  # at least one attributed drain participant


class TestResultIndexDurability:
    """Regression: the result index write had a pid-only scratch name,
    so two supervisor *threads* finishing identical jobs concurrently
    shared one scratch file and could race ``os.replace`` into a torn
    index entry -- which the cache then trusts byte-for-byte forever."""

    DOCUMENT = json.dumps(
        {"result": {"workload": "sweep", "values": list(range(200))},
         "provenance": {"fingerprints": []}},
        sort_keys=True,
    ).encode()

    def test_concurrent_identical_writes_leave_one_clean_file(
            self, supervisor):
        key = "ab" * 32
        barrier = threading.Barrier(2)
        errors = []

        def hammer():
            try:
                barrier.wait(timeout=10.0)
                for _ in range(100):
                    supervisor._store_result(key, self.DOCUMENT)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors, errors
        matches = [
            path for path in supervisor.results_dir.iterdir()
            if key[:16] in path.name
        ]
        assert matches == [supervisor.result_path(key)]
        assert matches[0].read_bytes() == self.DOCUMENT  # byte-identical
        # No scratch debris: every writer cleaned its own tmp file.
        stray = [path.name for path in supervisor.results_dir.iterdir()
                 if path.name.startswith(".")]
        assert stray == []

    def test_torn_entry_fails_loudly_not_silently(self, supervisor):
        from repro.runtime.store import StoreError

        with pytest.raises(StoreError, match="write-back check"):
            supervisor._store_result("cd" * 32, b'{"result": trunca')


class TestEventLogTruncation:
    """Regression: a cursor older than the bounded log's eviction
    horizon silently skipped the dropped events -- a progress consumer
    could not tell "nothing happened" from "I missed 4,000 chunks"."""

    def _overflowed_job(self, extra=250):
        from repro.serve.jobs import MAX_EVENTS, Job

        job = Job("job-trunc", "0" * 64, {})
        for i in range(MAX_EVENTS + extra):
            job.add_event({"event": "tick", "i": i})
        return job, extra

    def test_stale_cursor_gets_explicit_marker(self):
        job, dropped = self._overflowed_job()
        events, cursor = job.events_since(0)
        marker = events[0]
        assert marker["event"] == "events.truncated"
        assert marker["dropped"] == dropped
        assert marker["next"] == dropped
        assert marker["job"] == job.id
        # The stream resumes exactly at the horizon, nothing re-skipped.
        assert events[1]["i"] == dropped
        assert events[-1]["i"] == cursor - 1

    def test_marker_is_synthesized_not_stored(self):
        from repro.serve.jobs import MAX_EVENTS

        job, dropped = self._overflowed_job()
        job.events_since(0)
        job.events_since(0)  # repeated stale reads never mutate the log
        assert len(job.events) == MAX_EVENTS
        assert all(event["event"] == "tick" for event in job.events)

    def test_cursor_at_or_past_horizon_sees_no_marker(self):
        job, dropped = self._overflowed_job()
        at_horizon, _ = job.events_since(dropped)
        assert at_horizon[0]["i"] == dropped
        assert all(e["event"] != "events.truncated" for e in at_horizon)
        tail, cursor = job.events_since(cursor=dropped + 9_000)
        assert all(e["event"] != "events.truncated" for e in tail)
        # A caught-up reader gets an empty delta, not a marker.
        assert job.events_since(cursor)[0] == []

    def test_dropped_count_reflected_in_describe(self):
        job, dropped = self._overflowed_job()
        described = job.describe()
        assert described["events_dropped"] == dropped
        assert described["events"] == dropped + len(job.events)
