"""Span tracing, exporters, and run telemetry (repro.obs)."""

import io
import json

import numpy as np
import pytest

from repro.circuits import rcnet_a
from repro.core import LowRankReducer
from repro.obs import (
    JsonlSink,
    MemorySink,
    ProgressReporter,
    TRACE_FORMAT,
    chunk_lineage,
    configure_from_env,
    read_trace,
    summarize_trace,
)
from repro.obs import trace as obs_trace
from repro.runtime import Study, StudyStore

FREQUENCIES = np.logspace(7, 10, 6)


@pytest.fixture(scope="module")
def parametric():
    return rcnet_a()


@pytest.fixture(scope="module")
def model(parametric):
    return LowRankReducer(num_moments=3, rank=1).reduce(parametric)


@pytest.fixture(scope="module")
def samples(parametric):
    rng = np.random.default_rng(7)
    return rng.normal(0.0, 0.1, size=(8, parametric.num_parameters))


def _traced_run(study, sink=None):
    sink = sink if sink is not None else MemorySink()
    result = study.trace(sink).run()
    return result, sink.records


def _spans(records, name=None):
    spans = [r for r in records if r.get("type") == "span"]
    if name is not None:
        spans = [s for s in spans if s["name"] == name]
    return spans


class TestSpanBasics:
    def test_disabled_is_shared_noop(self):
        assert not obs_trace.enabled()
        first = obs_trace.span("a", x=1)
        second = obs_trace.span("b")
        assert first is second  # the shared no-op singleton

    def test_span_record_shape_and_nesting(self):
        sink = obs_trace.add_sink(MemorySink())
        try:
            with obs_trace.span("outer", level=0):
                with obs_trace.span("inner") as inner:
                    inner.set(level=1)
                    obs_trace.annotate(note="deep")
        finally:
            obs_trace.remove_sink(sink)
        inner_rec, outer_rec = sink.records
        assert inner_rec["name"] == "inner"
        assert inner_rec["parent_id"] == outer_rec["span_id"]
        assert inner_rec["attrs"] == {"level": 1, "note": "deep"}
        assert outer_rec["parent_id"] is None
        assert outer_rec["wall_seconds"] >= inner_rec["wall_seconds"]
        for key in ("span_id", "pid", "t_start", "cpu_seconds"):
            assert key in inner_rec

    def test_error_spans_are_flagged(self):
        sink = obs_trace.add_sink(MemorySink())
        try:
            with pytest.raises(RuntimeError):
                with obs_trace.span("doomed"):
                    raise RuntimeError("boom")
        finally:
            obs_trace.remove_sink(sink)
        assert sink.records[0]["error"] == "RuntimeError"


class TestStudyTracing:
    def test_sweep_trace_has_run_plan_chunk_and_metrics(self, model, samples):
        result, records = _traced_run(
            Study(model).scenarios(samples).sweep(FREQUENCIES).chunk(4)
        )
        assert not obs_trace.enabled()  # run() removed its sinks
        (root,) = _spans(records, "study.run")
        (plan_span,) = _spans(records, "study.plan")
        chunks = _spans(records, "study.chunk")
        assert plan_span["parent_id"] == root["span_id"]
        assert len(chunks) == result.num_chunks == 2
        assert all(c["parent_id"] == root["span_id"] for c in chunks)
        assert [c["attrs"]["index"] for c in chunks] == [0, 1]
        assert sum(c["attrs"]["instances"] for c in chunks) == samples.shape[0]
        assert root["attrs"]["route"] == plan_span["attrs"]["route"]
        (metrics_rec,) = [r for r in records if r.get("type") == "metrics"]
        delta = metrics_rec["delta"]
        assert delta["counters"]["study.chunks_completed"] == 2
        assert delta["counters"]["study.instances_evaluated"] == 8
        assert delta["histograms"]["study.chunk_wall_seconds"]["count"] == 2

    def test_study_metrics_returns_last_run_delta(self, model, samples):
        study = Study(model).scenarios(samples).sweep(FREQUENCIES)
        assert study.metrics() == {}
        study.run()
        delta = study.metrics()
        assert delta["counters"]["study.instances_evaluated"] == 8

    def test_trace_accepts_paths_and_is_removed_after_run(
        self, model, samples, tmp_path
    ):
        path = tmp_path / "run.trace"
        Study(model).scenarios(samples).sweep(FREQUENCIES).trace(path).run()
        assert not obs_trace.enabled()
        records = read_trace(path)
        assert records[0] == {
            "type": "meta",
            "format": TRACE_FORMAT,
            "pid": records[0]["pid"],
            "created": records[0]["created"],
        }
        assert _spans(records, "study.run")


class TestStoreTelemetry:
    def test_chunk_lineage_matches_manifest_hashes(self, model, samples, tmp_path):
        store = StudyStore(tmp_path / "store")
        _, records = _traced_run(
            Study(model)
            .scenarios(samples)
            .sweep(FREQUENCIES)
            .chunk(4)
            .store(store)
        )
        lineage = chunk_lineage(records)
        assert [e["index"] for e in lineage] == [0, 1]
        assert all(e["source"] == "computed" for e in lineage)
        (manifest_path,) = (tmp_path / "store").glob("manifest-*.json")
        manifest = json.loads(manifest_path.read_text())
        by_index = {
            int(index): record for index, record in manifest["chunks"].items()
        }
        for entry in lineage:
            assert entry["sha256"] == by_index[entry["index"]]["sha256"]

        telemetry = manifest["telemetry"]
        assert telemetry["chunks_saved"] == 2
        assert telemetry["bytes_written"] > 0
        assert telemetry["wall_seconds"] >= 0
        for record in by_index.values():
            assert record["telemetry"]["instances"] == 4

    def test_resumed_chunks_trace_as_loads(self, model, samples, tmp_path):
        store = StudyStore(tmp_path / "store")

        def study():
            return (
                Study(model)
                .scenarios(samples)
                .sweep(FREQUENCIES)
                .chunk(4)
                .store(store)
            )

        study().run()
        _, records = _traced_run(study().resume())
        lineage = chunk_lineage(records)
        assert [e["source"] for e in lineage] == ["resumed", "resumed"]
        assert all(e["sha256"] for e in lineage)


class TestWorkTracing:
    def test_event_records_are_zero_duration_spans(self):
        sink = MemorySink()
        obs_trace.add_sink(sink)
        try:
            with obs_trace.span("parent"):
                obs_trace.event("lease.claim", index=3, worker="w1")
        finally:
            obs_trace.remove_sink(sink)
        (event,) = _spans(sink.records, "lease.claim")
        assert event["wall_seconds"] == 0.0
        assert event["attrs"] == {"index": 3, "worker": "w1"}
        (parent,) = _spans(sink.records, "parent")
        assert event["parent_id"] == parent["span_id"]

    def test_event_is_free_when_tracing_is_off(self):
        assert obs_trace.event("lease.claim", index=0) is None

    def test_work_trace_carries_leases_and_worker_lineage(
        self, model, samples, tmp_path
    ):
        sink = MemorySink()
        (
            Study(model)
            .scenarios(samples)
            .sweep(FREQUENCIES)
            .chunk(4)
            .store(tmp_path / "store")
            .trace(sink)
            .work(worker="w1")
        )
        records = sink.records
        assert len(_spans(records, "lease.claim")) == 2
        assert _spans(records, "study.work")
        lineage = chunk_lineage(records)
        # Each index appears twice: the drain's scheduler.chunk entry
        # (computed by w1) and the merge's study.chunk entry (resumed).
        drained = [e for e in lineage if e["worker"] == "w1"]
        merged = [e for e in lineage if e["worker"] is None]
        assert [e["index"] for e in drained] == [0, 1]
        assert [e["index"] for e in merged] == [0, 1]
        assert all(e["source"] == "computed" for e in drained)
        assert all(e["source"] == "resumed" for e in merged)
        assert all(not e["stolen"] for e in lineage)
        # scheduler.chunk spans carry no lo/hi -- lineage fills them
        # (and the sha) from the joined store.save child.
        for entry in drained:
            assert entry["lo"] is not None and entry["hi"] is not None
            assert entry["instances"] == entry["hi"] - entry["lo"]
            assert entry["sha256"]

    def test_stolen_chunks_are_flagged_in_lineage(self, tmp_path):
        from repro.runtime.scheduler import LeaseBoard, drain_chunks

        store = StudyStore(tmp_path)
        key = "ee" * 32
        fingerprint = {"target": "t", "samples": "s", "workload": "sweep",
                       "config": "c", "key": key}
        checkpoint = store.checkpoint(
            fingerprint, chunk_size=1, num_chunks=2, num_samples=2,
            worker="thief",
        )
        LeaseBoard(store, key, worker="ghost").try_claim(0)  # abandoned
        clock = iter([0.0, 100.0, 200.0, 300.0]).__next__
        board = LeaseBoard(store, key, worker="thief", ttl=10.0, clock=clock)
        sink = MemorySink()
        obs_trace.add_sink(sink)
        try:
            drain_chunks(
                checkpoint,
                lambda i: checkpoint.save(i, i, i + 1, {"v": np.zeros(1)}),
                board, poll=0.01, sleep=lambda _: None,
            )
        finally:
            obs_trace.remove_sink(sink)
        assert _spans(sink.records, "lease.steal")
        lineage = chunk_lineage(sink.records)
        stolen = {e["index"]: e["stolen"] for e in lineage}
        assert stolen[0] is True and stolen[1] is False


class TestExporters:
    def test_jsonl_sink_is_lazy_and_appendable(self, tmp_path):
        path = tmp_path / "lazy.trace"
        sink = JsonlSink(path)
        assert not path.exists()  # no records -> no file
        sink.emit({"type": "span", "name": "a"})
        sink.close()
        with JsonlSink(path) as again:
            again.emit({"type": "span", "name": "b"})
        records = read_trace(path)
        assert [r["type"] for r in records] == ["meta", "span", "meta", "span"]

    def test_concurrent_processes_never_tear_lines(self, tmp_path):
        """Workers trace to one file; O_APPEND keeps every line whole.

        Two processes hammer the same sink with ~1 KB records; every
        line of the result must parse, and every record must arrive
        exactly once.  (The old buffered-text sink tore lines here.)
        """
        import subprocess
        import sys

        path = tmp_path / "shared.trace"
        script = (
            "import sys\n"
            "from repro.obs import JsonlSink\n"
            "tag, path = sys.argv[1], sys.argv[2]\n"
            "with JsonlSink(path) as sink:\n"
            "    for i in range(200):\n"
            "        sink.emit({'type': 'span', 'name': f'{tag}-{i}',\n"
            "                   'pad': 'x' * 1000})\n"
        )
        workers = [
            subprocess.Popen([sys.executable, "-c", script, tag, str(path)])
            for tag in ("a", "b")
        ]
        for proc in workers:
            assert proc.wait() == 0
        raw_lines = path.read_text().strip().splitlines()
        parsed = [json.loads(line) for line in raw_lines]  # no torn lines
        names = [r["name"] for r in parsed if r["type"] == "span"]
        assert len(raw_lines) == 402  # 2 meta headers + 400 records
        assert sorted(names) == sorted(
            f"{tag}-{i}" for tag in ("a", "b") for i in range(200)
        )

    def test_sigkilled_writer_loses_nothing_already_emitted(self, tmp_path):
        """No userspace buffer: records emitted before a SIGKILL are on
        disk even though close() never ran."""
        import signal
        import subprocess
        import sys

        path = tmp_path / "killed.trace"
        script = (
            "import os, sys\n"
            "from repro.obs import JsonlSink\n"
            "sink = JsonlSink(sys.argv[1])\n"
            "for i in range(50):\n"
            "    sink.emit({'type': 'span', 'name': f'n-{i}'})\n"
            "print('ready', flush=True)\n"
            "import time; time.sleep(30)\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(path)],
            stdout=subprocess.PIPE, text=True,
        )
        assert proc.stdout.readline().strip() == "ready"
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        records = read_trace(path)
        assert [r["name"] for r in records if r["type"] == "span"] == [
            f"n-{i}" for i in range(50)
        ]

    def test_read_trace_skips_torn_lines(self, tmp_path):
        path = tmp_path / "torn.trace"
        path.write_text('{"type": "span", "name": "ok"}\n{"type": "spa')
        records = read_trace(path)
        assert len(records) == 1

    def test_summarize_trace_reports_tree_and_throughput(self, model, samples):
        _, records = _traced_run(
            Study(model).scenarios(samples).sweep(FREQUENCIES).chunk(4)
        )
        text = summarize_trace(records)
        assert "study.run" in text
        assert "study.chunk" in text
        assert "throughput: 8 instance(s) over 2 chunk(s)" in text
        assert "study.instances_evaluated: 8" in text

    def test_numpy_attrs_serialize(self):
        record = {"type": "span", "value": np.float64(1.5), "n": np.int64(3)}
        decoded = json.loads(obs_trace.encode_record(record))
        assert decoded["value"] == 1.5
        assert decoded["n"] == 3


class TestConfigureFromEnv:
    def test_unset_or_blank_is_none(self):
        assert configure_from_env({}) is None
        assert configure_from_env({"REPRO_TRACE": "  "}) is None

    def test_set_installs_owned_jsonl_sink(self, tmp_path):
        path = tmp_path / "env.trace"
        sink = configure_from_env({"REPRO_TRACE": str(path)})
        try:
            assert obs_trace.enabled()
            with obs_trace.span("env.check"):
                pass
        finally:
            obs_trace.remove_sink(sink)
            sink.close()
        assert not obs_trace.enabled()
        assert [r["name"] for r in read_trace(path) if r["type"] == "span"] == [
            "env.check"
        ]


class TestProgressReporter:
    def _chunk_record(self, **attrs):
        return {"type": "span", "name": "study.chunk", "attrs": attrs}

    def test_line_shows_chunks_instances_and_rate(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, label="batch")
        reporter.emit(self._chunk_record(
            done=4, total=8, chunks_done=1, num_chunks=2, instances=4
        ))
        text = stream.getvalue()
        assert "[batch] chunks 1/2" in text
        assert "4/8 instances" in text
        assert "instances/s" in text
        assert not text.endswith("\n")

    def test_final_chunk_ends_the_line(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream)
        for done, chunks_done in ((4, 1), (8, 2)):
            reporter.emit(self._chunk_record(
                done=done, total=8, chunks_done=chunks_done,
                num_chunks=2, instances=4,
            ))
        assert stream.getvalue().endswith("\n")

    def test_ignores_other_records(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream)
        reporter.emit({"type": "metrics", "delta": {}})
        reporter.emit({"type": "span", "name": "study.run", "attrs": {}})
        assert stream.getvalue() == ""


class TestMonteCarloTracing:
    def test_both_phases_share_one_trace(self, parametric, model, samples):
        from repro.analysis.montecarlo import monte_carlo_pole_study

        sink = MemorySink()
        monte_carlo_pole_study(
            parametric, model, num_instances=0, num_poles=2,
            samples=samples[:4], trace=sink,
        )
        runs = _spans(sink.records, "study.run")
        assert len(runs) == 2  # full-model phase + reduced-model phase


class TestRunScopedSinks:
    def test_concurrent_studies_see_only_their_own_spans(self, model,
                                                          samples):
        """Two traced studies in two threads, each chunk of one waiting
        for the other's: each sink holds its own run's spans only."""
        import threading

        barrier = threading.Barrier(2, timeout=30.0)
        sinks = [MemorySink(), MemorySink()]
        errors = []

        def run(slot):
            try:
                (
                    Study(model).scenarios(samples[slot::2])
                    .sweep(FREQUENCIES).chunk(1)
                    .progress(lambda done, total: barrier.wait())
                    .trace(sinks[slot]).run()
                )
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for sink in sinks:
            (root,) = _spans(sink.records, "study.run")
            chunks = _spans(sink.records, "study.chunk")
            assert [c["attrs"]["index"] for c in chunks] == [0, 1, 2, 3]
            assert {c["parent_id"] for c in chunks} == {root["span_id"]}
        assert not obs_trace.enabled()

    def test_process_wide_sinks_see_every_thread(self, model, samples):
        """``add_sink`` (``REPRO_TRACE``, benchmark harnesses) still
        receives a run that another thread executes."""
        import threading

        sink = obs_trace.add_sink(MemorySink())
        try:
            thread = threading.Thread(target=lambda: Study(model).scenarios(
                samples).sweep(FREQUENCIES).chunk(4).run())
            thread.start()
            thread.join(timeout=60.0)
        finally:
            obs_trace.remove_sink(sink)
        assert not thread.is_alive()
        assert len(_spans(sink.records, "study.chunk")) == 2
        assert not obs_trace.enabled()
