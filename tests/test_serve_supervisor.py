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


def _counter(name):
    return obs_metrics.registry().snapshot()["counters"].get(name, 0)


def _evaluated():
    return _counter("study.instances_evaluated")


def _forbid_realize(monkeypatch):
    """From here on, a submission that realizes a system or declares
    Studies fails."""
    import repro.serve.supervisor as supervisor_module

    def refuse(*args, **kwargs):
        raise AssertionError("realized for an indexed document")

    for name in ("realize_system", "declare_studies"):
        monkeypatch.setattr(supervisor_module, name, refuse)


def _count_realize(monkeypatch):
    """Wrap ``declare_studies``, which every submission the document
    index does not answer calls; returns the jobs it declares."""
    import repro.serve.supervisor as supervisor_module

    realized = []
    original = supervisor_module.declare_studies

    def counting(*args, **kwargs):
        realized.append(original(*args, **kwargs))
        return realized[-1]

    monkeypatch.setattr(supervisor_module, "declare_studies", counting)
    return realized


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

        realized.studies["study"].run = explode
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


class TestDocumentIndex:
    """A document already answered is answered again without being
    realized, from one shared copy of the earlier job's answer."""

    def test_resubmission_never_realizes(self, supervisor, monkeypatch):
        first = _wait(supervisor.submit(_job()))
        assert first.state == "done" and not first.cached
        _forbid_realize(monkeypatch)
        hits, evaluated = _counter("serve.document_hits"), _evaluated()

        second = supervisor.submit(_job())
        assert second.state == "done" and second.cached
        assert second.id != first.id
        assert second.result_bytes == first.result_bytes
        assert second.result_bytes is first.result_bytes  # shared
        assert second.spec is first.spec
        assert second.key == first.key
        assert second.study_keys == first.study_keys
        assert second.fingerprints == first.fingerprints
        assert second.peak_bytes == first.peak_bytes
        assert _counter("serve.document_hits") == hits + 1
        assert _evaluated() == evaluated
        assert supervisor.registry.get(second.id) is second

    def test_canonical_rewrites_hit_the_same_entry(
            self, supervisor, monkeypatch):
        document = _job()
        first = _wait(supervisor.submit(document))
        _forbid_realize(monkeypatch)
        hits = _counter("serve.document_hits")
        rewrites = [
            # explicit defaults
            _job(parameters=2, spread=0.5, variation_seed=0, rank=1,
                 workers=1, plan={"kind": "montecarlo", "instances": 4,
                                  "sigma": 0.3, "seed": 7}),
            # reordered keys, compact JSON text
            json.dumps(dict(reversed(list(document.items()))),
                       separators=(",", ":")),
            # indented JSON bytes
            json.dumps(document, indent=4).encode(),
        ]
        for rewrite in rewrites:
            job = supervisor.submit(rewrite)
            assert job.cached and job.result_bytes is first.result_bytes
        assert _counter("serve.document_hits") == hits + len(rewrites)

    def test_deleted_result_entry_falls_through(
            self, supervisor, monkeypatch):
        first = _wait(supervisor.submit(_job()))
        supervisor.result_path(first.key).unlink()
        realized = _count_realize(monkeypatch)
        hits = _counter("serve.document_hits")
        saved, loaded = _counter("store.chunks_saved"), \
            _counter("store.chunks_loaded")

        again = _wait(supervisor.submit(_job()))
        assert len(realized) == 1
        assert not again.cached and again.state == "done"
        # Re-rendered from the store: both chunks loaded, none computed.
        assert _counter("store.chunks_saved") == saved
        assert _counter("store.chunks_loaded") == loaded + 2
        assert _counter("serve.document_hits") == hits
        assert again.result_bytes == first.result_bytes
        assert supervisor.result_path(first.key).read_bytes() == \
            first.result_bytes
        # ...and the re-rendered answer is indexed again.
        third = supervisor.submit(_job())
        assert third.cached and third.result_bytes is again.result_bytes

    def test_rerender_from_the_store_evaluates_nothing(self, supervisor):
        """Chunks loaded from the store count as completed, never as
        evaluated instances."""
        first = _wait(supervisor.submit(_job()))
        supervisor.result_path(first.key).unlink()
        evaluated, completed = _evaluated(), _counter("study.chunks_completed")
        again = _wait(supervisor.submit(_job()))
        assert again.result_bytes == first.result_bytes
        assert _evaluated() == evaluated
        assert _counter("study.chunks_completed") == completed + 2

    def test_failed_job_document_runs_again(self, supervisor, monkeypatch):
        from repro.runtime import Study

        original = Study.run

        def explode(*args, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(Study, "run", explode)
        failed = _wait(supervisor.submit(_job()))
        assert failed.state == "failed"

        monkeypatch.setattr(Study, "run", original)
        realized = _count_realize(monkeypatch)
        again = _wait(supervisor.submit(_job()))
        assert len(realized) == 1
        assert again.state == "done" and not again.cached

    def test_rejected_document_is_never_indexed(self, tmp_path, monkeypatch):
        supervisor = StudySupervisor(tmp_path / "store", memory_budget=16)
        try:
            realized = _count_realize(monkeypatch)
            for _ in range(2):
                assert supervisor.submit(_job()).state == "rejected"
            assert len(realized) == 2
        finally:
            supervisor.shutdown(wait=True)

    def test_payload_beyond_json_is_served_unindexed(
            self, supervisor, monkeypatch):
        """An in-process payload may hold values JSON cannot encode
        (a NumPy count): it still runs, and is simply never indexed."""
        import numpy as np

        document = _job(workload={"kind": "sweep", "points": np.int64(5)})
        first = _wait(supervisor.submit(document))
        assert first.state == "done", first.error
        realized = _count_realize(monkeypatch)
        again = supervisor.submit(document)
        assert again.cached and len(realized) == 1

    def test_running_document_enqueues_again(self, supervisor, monkeypatch):
        from repro.runtime import Study

        gate = threading.Event()
        original = Study.run

        def held(*args, **kwargs):
            gate.wait(30.0)
            return original(*args, **kwargs)

        monkeypatch.setattr(Study, "run", held)
        try:
            first = supervisor.submit(_job())
            second = supervisor.submit(_job())
            assert not second.cached and second.state in ("queued", "running")
        finally:
            gate.set()
        assert _wait(first).state == _wait(second).state == "done"
        assert second.key == first.key

    def test_racing_identical_submissions_stay_consistent(self, supervisor):
        import sys

        document = json.dumps(_job()).encode()

        def race(clients, rounds):
            barrier = threading.Barrier(clients)
            jobs, errors = [], []

            def client():
                try:
                    barrier.wait(timeout=10.0)
                    for _ in range(rounds):
                        jobs.append(_wait(supervisor.submit(document)))
                except Exception as exc:  # noqa: BLE001 - collected below
                    errors.append(exc)

            threads = [threading.Thread(target=client)
                       for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors
            assert [job.state for job in jobs] == ["done"] * len(jobs)
            return jobs

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            first = race(4, 1)  # all miss: none has answered yet
            assert len({job.key for job in first}) == 1
            stored = supervisor.result_path(first[0].key).read_bytes()
            # Whichever racer the index remembers, a re-submission
            # answers the result file's bytes and re-indexes it...
            assert supervisor.submit(document).result_bytes == stored
            hits = _counter("serve.document_hits")
            # ...and racing re-submissions all hit, none lost.
            again = race(4, 25)
        finally:
            sys.setswitchinterval(interval)
        assert all(job.cached and job.result_bytes == stored
                   for job in again)
        assert _counter("serve.document_hits") == hits + len(again)
        assert len({job.id for job in again}) == len(again) == 100
        assert len(supervisor.registry) == 4 + 1 + 100

    def test_rewritten_result_entry_is_answered_from_the_file(
            self, supervisor):
        first = _wait(supervisor.submit(_job()))
        path = supervisor.result_path(first.key)
        rewritten = json.dumps(json.loads(first.result_bytes)).encode()
        path.write_bytes(rewritten)  # same document, other bytes
        hits = _counter("serve.document_hits")
        again = supervisor.submit(_job())
        assert again.cached and again.result_bytes == rewritten
        assert _counter("serve.document_hits") == hits
        assert supervisor.submit(_job()).result_bytes is again.result_bytes
        assert _counter("serve.document_hits") == hits + 1

    def test_restart_realizes_once_then_indexes(
            self, supervisor, tmp_path, monkeypatch):
        first = _wait(supervisor.submit(_job()))
        supervisor.shutdown(wait=True)
        fresh = StudySupervisor(tmp_path / "store", pool_size=1)
        try:
            realized = _count_realize(monkeypatch)
            after_restart = fresh.submit(_job())
            assert len(realized) == 1  # the result index answers it
            assert after_restart.cached
            assert after_restart.result_bytes == first.result_bytes
            again = fresh.submit(_job())
            assert len(realized) == 1
            assert again.result_bytes is after_restart.result_bytes
        finally:
            fresh.shutdown(wait=True)

    def test_a_document_hit_builds_no_result_path(self, supervisor,
                                                   monkeypatch):
        """A hit re-reads the entry through the path the index kept: a
        new ``Path`` per hit interns its file name and frees it again,
        churning the interpreter's interned-string table."""
        first = _wait(supervisor.submit(_job()))
        built = []
        original = supervisor.result_path
        monkeypatch.setattr(supervisor, "result_path",
                            lambda key: built.append(key) or original(key))
        for _ in range(3):
            assert supervisor.submit(_job()).result_bytes is first.result_bytes
        assert built == []

    def test_resubmissions_retain_little_memory(self, supervisor):
        """The registry keeps every job: a cached one must not keep its
        own copy of the result bytes and of the netlist text."""
        import gc
        import tracemalloc

        document = json.dumps(_job(
            netlist=NETLIST + "".join(f"* padding line {i:05d}\n"
                                      for i in range(1000)),
        )).encode()
        first = _wait(supervisor.submit(document))
        supervisor.submit(document)  # warm every lazy allocation once
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(200):
                assert supervisor.submit(document).cached
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(first.result_bytes) + len(document) > 20_000
        assert retained < 2**20, retained


# How long one plain run waits for the other to reach a save.  Only a
# serialized run (which never saves: it loads every chunk) lets a wait
# run out; unserialized runs reach each other in milliseconds.
_RACE_WAIT = 1.5


class TestPlainRunsOfOneStudy:
    def test_concurrent_runs_render_every_chunk(self, supervisor,
                                                monkeypatch):
        """Two plain runs of one study: the second checkpoint to save
        rewrites the manifest from its own records just after the first
        run saved its last chunk and before it renders.  Every document
        must still list every chunk, each ``sha256`` its archive's."""
        import hashlib

        from repro.runtime.store import StudyCheckpoint, StudyStore

        open_checkpoint, save = StudyStore.checkpoint, StudyCheckpoint.save
        roles, opened = {}, []
        both_open, first_saved_all, second_saved = (
            threading.Event(), threading.Event(), threading.Event())
        guard = threading.Lock()

        def opening(self, *args, **kwargs):
            checkpoint = open_checkpoint(self, *args, **kwargs)
            with guard:
                opened.append(checkpoint)
                if len(opened) == 2:
                    both_open.set()
            return checkpoint

        def saving(self, index, *args, **kwargs):
            with guard:
                role = roles.setdefault(threading.get_ident(), len(roles))
            if role == 0:
                if index == 0:  # the other run opened with no record
                    both_open.wait(_RACE_WAIT)
                record = save(self, index, *args, **kwargs)
                if index == self.layout["num_chunks"] - 1:
                    first_saved_all.set()
                    second_saved.wait(_RACE_WAIT)  # render after its save
                return record
            first_saved_all.wait(_RACE_WAIT)
            record = save(self, index, *args, **kwargs)
            second_saved.set()
            return record

        monkeypatch.setattr(StudyStore, "checkpoint", opening)
        monkeypatch.setattr(StudyCheckpoint, "save", saving)
        jobs = [supervisor.submit(_job()) for _ in range(2)]
        for job in map(_wait, jobs):
            assert job.state == "done", job.error
            lineage = json.loads(job.result_bytes)["provenance"]["lineage"]
            for key in job.study_keys:
                assert [r["index"] for r in lineage[key]] == [0, 1]
                for record in lineage[key]:
                    archive = supervisor.store.directory / record["file"]
                    assert hashlib.sha256(archive.read_bytes()).hexdigest() \
                        == record["sha256"]


class TestRealizationRelease:
    def test_finished_job_releases_its_realization(
            self, supervisor, monkeypatch):
        """A finished job holds no realization; its system lives on in
        the realization index only, until the index evicts it."""
        import gc
        import weakref

        import repro.serve.supervisor as supervisor_module

        realized = _count_realize(monkeypatch)
        job = _wait(supervisor.submit(_job()))
        assert job.state == "done" and job._realized is None
        parametric = weakref.ref(realized.pop().parametric)
        supervisor.shutdown(wait=True)  # the worker has left _run_job
        gc.collect()
        assert parametric() is not None  # kept for the next job
        monkeypatch.setattr(supervisor_module, "MAX_REALIZATION_BYTES", 0)
        other = _wait(supervisor.submit(_job(netlist=_net(11))))
        assert other.state == "done" and not supervisor._systems
        realized.clear()
        gc.collect()
        assert parametric() is None


def _net(driver_ohms):
    """``NETLIST``'s topology with another driver resistance: a net
    declaration of its own, priced like ``NETLIST``'s."""
    return NETLIST.replace("Rdrv n0 0 10", f"Rdrv n0 0 {driver_ohms}")


def _tree_net(nodes, driver_ohms):
    """A binary RC tree of ``nodes`` nodes, driven at its root."""
    lines = [f"Rdrv n0 0 {driver_ohms}", "C0 n0 0 0.02p", ".port in n0"]
    for node in range(1, nodes):
        lines += [f"R{node} n{(node - 1) // 2} n{node} 25",
                  f"C{node} n{node} 0 0.02p"]
    return "\n".join(lines) + "\n"


def _priced_after(*documents):
    """Array bytes of the first document's realization once every
    document's Studies ran on it (the kernels' memos included)."""
    from repro.serve.protocol import declare_studies, parse_job, realize_system
    from repro.serve.supervisor import _array_bytes

    system = realize_system(parse_job(documents[0]))
    for document in documents:
        for study in declare_studies(parse_job(document),
                                     *system).studies.values():
            study.run()
    return _array_bytes(system)


def _spy_realization(monkeypatch):
    """Record each call of the three steps a realization index hit
    skips: parse, variation stamping and the model-cache load."""
    import repro.circuits.generators as generators
    import repro.circuits.parser as parser
    from repro.runtime import ModelCache

    calls = []
    for owner, name in ((parser, "parse_netlist"),
                        (generators, "with_random_variations"),
                        (ModelCache, "get_or_reduce")):
        def spy(*args, _original=getattr(owner, name), _name=name,
                **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.fixture
def cached_supervisor(tmp_path):
    """A supervisor whose misses realize through a model cache."""
    supervisor = StudySupervisor(tmp_path / "store", pool_size=2,
                                 model_cache=tmp_path / "cache")
    yield supervisor
    supervisor.shutdown(wait=True)


class TestRealizationIndex:
    """A fresh document on a net declaration the supervisor realized
    before declares its Studies on the kept system and model."""

    @pytest.mark.parametrize("overrides", [
        pytest.param({"netlist": _net(11)}, id="netlist"),
        pytest.param({"parameters": 1}, id="parameters"),
        pytest.param({"spread": 0.4}, id="spread"),
        pytest.param({"variation_seed": 1}, id="variation_seed"),
        pytest.param({"moments": 2}, id="moments"),
        pytest.param({"rank": 2}, id="rank"),
    ])
    def test_a_changed_net_field_misses(self, cached_supervisor,
                                        monkeypatch, overrides):
        assert _wait(cached_supervisor.submit(_job())).state == "done"
        calls = _spy_realization(monkeypatch)
        hits = _counter("serve.realization_hits")
        job = _wait(cached_supervisor.submit(_job(**overrides)))
        assert job.state == "done", job.error
        assert _counter("serve.realization_hits") == hits
        assert calls == ["parse_netlist", "with_random_variations",
                         "get_or_reduce"]

    @pytest.mark.parametrize("overrides", [
        pytest.param({"plan": {"kind": "montecarlo", "instances": 4,
                               "seed": 8}}, id="plan"),
        pytest.param({"workload": {"kind": "transient", "steps": 10}},
                     id="workload"),
        pytest.param({"chunk": 1}, id="chunk"),
        pytest.param({"workers": 2}, id="workers"),
    ])
    def test_other_fields_hit_and_skip_the_realization(
            self, cached_supervisor, monkeypatch, overrides):
        assert _wait(cached_supervisor.submit(_job())).state == "done"
        calls = _spy_realization(monkeypatch)
        hits = _counter("serve.realization_hits")
        job = _wait(cached_supervisor.submit(_job(**overrides)))
        assert job.state == "done", job.error
        assert _counter("serve.realization_hits") == hits + 1
        assert calls == []

    @pytest.mark.parametrize("refused, named", [
        pytest.param({"netlist": "R1 n0 0 abc\n.port in n0\n"},
                     "netlist rejected", id="bad-netlist"),
        pytest.param({"workload": {"kind": "sweep", "output": 3}},
                     "'output' 3 out of range", id="declaration-400"),
    ])
    def test_a_refused_realization_is_not_kept(
            self, cached_supervisor, monkeypatch, refused, named):
        calls = _spy_realization(monkeypatch)
        for _ in range(2):
            with pytest.raises(ProtocolError, match=named):
                cached_supervisor.submit(_job(**refused))
        assert calls.count("parse_netlist") == 2
        assert not cached_supervisor._systems
        assert len(cached_supervisor.registry) == 0

    def test_least_recently_used_realizations_are_evicted(
            self, cached_supervisor, monkeypatch):
        import repro.serve.supervisor as supervisor_module

        sizes = {_priced_after(_job(netlist=_net(ohms)))
                 for ohms in (10, 11, 12)}
        (size,) = sizes  # one topology: every net is priced alike
        monkeypatch.setattr(supervisor_module, "MAX_REALIZATION_BYTES",
                            2 * size)
        calls = _spy_realization(monkeypatch)
        seed = iter(range(100, 200))

        def realized(ohms):
            """Whether a fresh job on net ``ohms`` realized its system."""
            before = len(calls)
            job = _wait(cached_supervisor.submit(_job(
                netlist=_net(ohms),
                plan={"kind": "montecarlo", "instances": 4,
                      "seed": next(seed)})))
            assert job.state == "done" and not job.cached, job.error
            cached_supervisor._queue.join()  # the job's entry is re-priced
            return len(calls) > before

        assert [realized(ohms) for ohms in (10, 11, 12)] == [True] * 3
        # 10 is out.  A hit on 11 leaves 12 the least recently used, so
        # 10's return evicts 12, not 11.
        assert [realized(ohms) for ohms in (11, 10, 11, 12)] == \
            [False, True, False, True]
        assert cached_supervisor._systems_bytes == 2 * size

    def test_kept_bytes_track_the_bytes_held(self, tmp_path, monkeypatch):
        """A montecarlo job's full side attaches a sparse pattern family
        to the kept system about as large as its matrices.  Entries are
        priced as each job leaves them, so the index's accounted bytes
        track what dropping it frees (tracemalloc) and stay within the
        bound: here room for one 200-node net with its family, where
        pricing at keep time alone held two."""
        import gc
        import tracemalloc

        import repro.serve.supervisor as supervisor_module

        documents = [_job(netlist=_tree_net(200, ohms), workload=workload)
                     for ohms in (10, 11, 12)
                     for workload in ({"kind": "sweep", "points": 5},
                                      {"kind": "montecarlo", "poles": 2})]
        bound = int(1.5 * _priced_after(*documents[:2]))
        monkeypatch.setattr(supervisor_module, "MAX_REALIZATION_BYTES", bound)
        supervisor = StudySupervisor(tmp_path / "store", pool_size=1)
        tracemalloc.start()
        try:
            for document in documents:
                assert _wait(supervisor.submit(document)).state == "done"
            supervisor._queue.join()
            accounted = supervisor._systems_bytes
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            supervisor._systems.clear()
            gc.collect()
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            supervisor.shutdown(wait=True)
        assert accounted <= held <= 1.25 * accounted, (accounted, held)
        assert held <= bound, (held, bound)

    def test_a_superlu_tier_system_is_priced_by_what_it_frees(self):
        """A sparse sweep on a wide net with a voltage source (a branch
        row with no diagonal) refactors every pencil through a SuperLU
        template memoized on the system.  SuperLU allocates with
        ``malloc``, which tracemalloc does not see, so glibc's own
        count of bytes in use measures what dropping the system frees;
        the template keeps no numeric factor, so the price tracks it."""
        import ctypes
        import gc

        import numpy as np

        from repro.circuits import power_grid_mesh, with_random_variations
        from repro.runtime import MonteCarloPlan, Study
        from repro.runtime.sparse import shared_pattern_family
        from repro.serve.supervisor import _array_bytes

        class MallInfo2(ctypes.Structure):
            _fields_ = [(name, ctypes.c_size_t) for name in (
                "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
                "fsmblks", "uordblks", "fordblks", "keepcost")]

        mallinfo2 = getattr(ctypes.CDLL(None), "mallinfo2", None)
        if mallinfo2 is None:
            pytest.skip("needs glibc's mallinfo2")
        mallinfo2.restype = MallInfo2

        def in_use():
            gc.collect()
            info = mallinfo2()
            return info.uordblks + info.hblkhd

        net = power_grid_mesh(34, 34)
        net.voltage_source("Vs", "g33_33")
        system = with_random_variations(net, 2, seed=3, relative_spread=0.5)
        Study(system).scenarios(MonteCarloPlan(num_instances=2, seed=1)) \
            .sweep(np.logspace(8, 10, 2)).run()
        assert shared_pattern_family(system).solver_kind == "superlu"
        accounted = _array_bytes(system)
        held = in_use()
        del system
        held -= in_use()
        assert accounted <= held <= 1.25 * accounted, (accounted, held)

    def test_an_oversized_realization_is_not_kept(
            self, cached_supervisor, monkeypatch):
        import repro.serve.supervisor as supervisor_module

        monkeypatch.setattr(supervisor_module, "MAX_REALIZATION_BYTES", 64)
        calls = _spy_realization(monkeypatch)
        hits = _counter("serve.realization_hits")
        for seed in (7, 8):
            assert _wait(cached_supervisor.submit(_job(plan={
                "kind": "montecarlo", "instances": 4, "seed": seed,
            }))).state == "done"
        assert calls.count("parse_netlist") == 2
        assert _counter("serve.realization_hits") == hits
        assert not cached_supervisor._systems
        assert cached_supervisor._systems_bytes == 0

    def test_concurrent_jobs_on_one_net_match_fresh_supervisors(
            self, cached_supervisor, tmp_path):
        """Eight threads submit sweep, transient, poles and montecarlo
        documents on one net (two plan seeds each) to one supervisor,
        sharing one kept system and model: every result is the one a
        fresh supervisor renders, byte for byte, and the kept arrays
        are the ones a fresh realization builds."""
        import sys

        from repro.runtime.cache import system_fingerprint
        from repro.serve.protocol import parse_job, realize_system

        documents = [
            json.dumps(_job(
                plan={"kind": "montecarlo", "instances": 6, "seed": seed},
                workload=workload))
            for workload in ({"kind": "sweep", "points": 5},
                             {"kind": "transient", "steps": 20},
                             {"kind": "poles", "num": 3},
                             {"kind": "montecarlo", "poles": 2})
            for seed in (21, 22)
        ]
        # Realize the net first, so that all eight share its system.
        assert _wait(cached_supervisor.submit(_job())).state == "done"
        hits = _counter("serve.realization_hits")
        results, errors = [None] * len(documents), []
        barrier = threading.Barrier(len(documents))

        def client(slot):
            try:
                barrier.wait(timeout=10.0)
                job = _wait(cached_supervisor.submit(documents[slot]),
                            timeout=120)
                assert job.state == "done", job.error
                results[slot] = job.result_bytes
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(slot,))
                   for slot in range(len(documents))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert _counter("serve.realization_hits") == hits + len(documents)
        cached_supervisor._queue.join()  # every job's entry re-priced
        assert cached_supervisor._systems_bytes == sum(
            size for _, size in cached_supervisor._systems.values())

        for slot, document in enumerate(documents):
            fresh = StudySupervisor(tmp_path / f"fresh{slot}", pool_size=1)
            try:
                job = _wait(fresh.submit(document), timeout=120)
            finally:
                fresh.shutdown(wait=True)
            assert job.state == "done", job.error
            assert results[slot] == job.result_bytes, slot

        ((kept, _),) = cached_supervisor._systems.values()
        built = realize_system(parse_job(documents[0]))
        assert [system_fingerprint(system) for system in kept] == \
            [system_fingerprint(system) for system in built]


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


def _counting_derivations(monkeypatch):
    """Count the per-study facts a served job derives: plans, study
    fingerprints, target hashes and default-horizon eigensolves."""
    import repro.runtime.cache as cache_module
    import repro.runtime.engine as engine_module

    calls = dict.fromkeys(("plan", "fingerprint", "hash", "horizon"), 0)

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    for owner, attribute, name in (
        (engine_module.Study, "_build_plan", "plan"),
        (engine_module, "study_fingerprint", "fingerprint"),
        (cache_module, "system_fingerprint", "hash"),
        (engine_module, "default_horizon", "horizon"),
    ):
        monkeypatch.setattr(owner, attribute,
                            counting(name, getattr(owner, attribute)))
    return calls


def _each_save_at_a_barrier(monkeypatch, parties=2):
    """Make every chunk save wait until ``parties`` saves are at once:
    runs that save the same number of chunks run side by side."""
    from repro.runtime.store import StudyCheckpoint

    save = StudyCheckpoint.save
    barrier = threading.Barrier(parties, timeout=30.0)

    def saving(self, *args, **kwargs):
        barrier.wait()
        return save(self, *args, **kwargs)

    monkeypatch.setattr(StudyCheckpoint, "save", saving)


class TestDerivedOnce:
    @pytest.mark.parametrize("workload, workers, per_job", [
        pytest.param({"kind": "transient", "steps": 20}, 1, (1, 1),
                     id="transient"),
        pytest.param({"kind": "sweep", "points": 5}, 1, (1, 0), id="sweep"),
        pytest.param({"kind": "montecarlo", "poles": 2}, 1, (2, 0),
                     id="montecarlo"),
        pytest.param({"kind": "transient", "steps": 20}, 2, (1, 1),
                     id="transient-workers-2"),
    ])
    def test_fresh_job_derives_its_identity_once_per_study(
            self, tmp_path, monkeypatch, workload, workers, per_job):
        """``realize`` declares the job's Studies with the store
        attached, and the run uses those objects: each study is planned,
        fingerprinted and hashed once, and a transient solves its
        default horizon once, however many participants drain it."""
        studies, horizons = per_job
        supervisor = StudySupervisor(tmp_path / "store", pool_size=1)
        counts = []
        try:
            calls = _counting_derivations(monkeypatch)
            # The second job on the net declares its Studies on the
            # system the first one realized.
            for seed in (7, 8):
                hits = _counter("serve.realization_hits")
                calls.update(dict.fromkeys(calls, 0))
                job = _wait(supervisor.submit(_job(
                    plan={"kind": "montecarlo", "instances": 4,
                          "seed": seed},
                    workload=workload, workers=workers)), timeout=120)
                assert job.state == "done", job.error
                counts.append(dict(calls))
        finally:
            supervisor.shutdown(wait=True)
        assert _counter("serve.realization_hits") == hits + 1
        assert counts == [{"plan": studies, "fingerprint": studies,
                           "hash": studies, "horizon": horizons}] * 2


class TestJobRegistration:
    @pytest.mark.parametrize("workload", [
        {"kind": "sweep", "points": 5},
        {"kind": "transient", "steps": 20},
        {"kind": "poles", "num": 3},
    ], ids=lambda workload: workload["kind"])
    def test_every_workload_registers_its_sample_block(self, tmp_path,
                                                       workload):
        """The catalog record holds the study's samples, so ``p_<name>``
        columns answer as they do for ``Study.warehouse`` runs."""
        from repro.warehouse import QueryEngine

        supervisor = StudySupervisor(tmp_path / "store", pool_size=1,
                                     warehouse=tmp_path / "wh")
        try:
            job = _wait(supervisor.submit(_job(workload=workload)))
            assert job.state == "done", job.error
        finally:
            supervisor.shutdown(wait=True)
        answer = QueryEngine(tmp_path / "wh").percentile(
            "p_p1", 50, table="instances")
        assert (answer["count"], answer["of"]) == (4, 4)

    def test_each_side_registers_its_own_lineage(self, tmp_path):
        """A montecarlo side loaded from the store is catalogued
        ``resumed`` while the other side computes the same indices."""
        import shutil

        store = tmp_path / "store"
        document = _job(workload={"kind": "montecarlo", "poles": 2})
        plain = StudySupervisor(store, pool_size=1)
        try:
            first = _wait(plain.submit(document))
            assert first.state == "done", first.error
        finally:
            plain.shutdown(wait=True)
        full_key, reduced_key = first.study_keys
        for path in store.glob(f"manifest-{reduced_key[:16]}*"):
            path.unlink()
        shutil.rmtree(store / "chunks" / reduced_key[:16])
        plain.result_path(first.key).unlink()

        warehoused = StudySupervisor(store, pool_size=1,
                                     warehouse=tmp_path / "wh")
        try:
            again = _wait(warehoused.submit(document))
            assert again.state == "done", again.error
        finally:
            warehoused.shutdown(wait=True)

        def sources(key):
            record = json.loads(
                (tmp_path / "wh" / "catalog" / f"{key[:16]}.json").read_text())
            return sorted(record["sources"].values())

        assert sources(full_key) == ["resumed", "resumed"]
        assert sources(reduced_key) == ["computed", "computed"]


class TestJobTraces:
    def test_concurrent_jobs_log_only_their_own_spans(self, supervisor,
                                                      monkeypatch):
        """Two jobs saving side by side: each job's event log holds its
        own study's spans only."""
        _each_save_at_a_barrier(monkeypatch)
        jobs = [supervisor.submit(_job(chunk=1, plan={
            "kind": "montecarlo", "instances": 4, "seed": seed}))
            for seed in (7, 8)]
        for job in map(_wait, jobs):
            assert job.state == "done", job.error
            names = [event["event"] for event in job.events]
            assert names.count("store.save") == 4
            assert names.count("study.run") == 1
            assert {event["study_key"] for event in job.events
                    if "study_key" in event} == set(job.study_keys)

    def test_co_drained_job_logs_each_save_once(self, supervisor,
                                                monkeypatch):
        """Both participants drain at once; each saved chunk is one
        ``store.save`` event and each participant one ``study.work``."""
        _each_save_at_a_barrier(monkeypatch)
        job = _wait(supervisor.submit(_job(workers=2)))
        assert job.state == "done", job.error
        saves = [event for event in job.events
                 if event["event"] == "store.save"]
        assert sorted(event["index"] for event in saves) == [0, 1]
        names = [event["event"] for event in job.events]
        assert names.count("study.work") == 2


class TestCoDrainMergesOnce:
    def test_participants_drain_then_the_job_merges_once(self, tmp_path):
        """A ``workers: N`` job drains on N threads, then merges once on
        its Study: an 8-chunk sweep loads each chunk once whatever N
        (a plain run computes all and loads none), and its result,
        fingerprints and catalogued chunk sources are the plain run's."""
        document = _job(plan={"kind": "montecarlo", "instances": 16,
                              "seed": 7}, chunk=2)
        seen = {}
        for workers in (1, 2, 4):
            warehouse = tmp_path / f"wh{workers}"
            supervisor = StudySupervisor(tmp_path / f"store{workers}",
                                         pool_size=1, warehouse=warehouse)
            try:
                before = _counter("store.chunks_loaded")
                job = _wait(supervisor.submit({**document, "workers": workers}),
                            timeout=120)
                assert job.state == "done", job.error
                loaded = _counter("store.chunks_loaded") - before
            finally:
                supervisor.shutdown(wait=True)
            served = json.loads(job.result_bytes)
            record = json.loads((warehouse / "catalog"
                                 / f"{job.study_keys[0][:16]}.json").read_text())
            seen[workers] = (loaded, served["result"],
                             served["provenance"]["fingerprints"],
                             record["sources"])
        assert [seen[workers][0] for workers in (1, 2, 4)] == [0, 8, 8]
        for workers in (2, 4):
            assert seen[workers][1:3] == seen[1][1:3]
            assert sorted(seen[workers][3].values()) == ["computed"] * 8
