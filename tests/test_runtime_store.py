"""The durable-study store: persistence, resume, provenance.

Complementing the hypothesis round-trip suite
(tests/test_properties_store.py), these tests pin the store's
*contracts*: manifest/chunk layout on disk, fingerprint keying,
checksum verification, read compatibility with legacy shard-named
manifests, concurrent writers, the builder validation rules, and --
the one that matters operationally -- that a resumed run loads
checkpoints instead of recomputing (verified by making recomputation
impossible).
"""

import json
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.runtime.stream as stream_module
from repro.analysis.montecarlo import monte_carlo_pole_study, sample_parameters
from repro.core import LowRankReducer
from repro.runtime import (
    MonteCarloPlan,
    NothingToResumeError,
    StoreError,
    Study,
    StudyStore,
    study_fingerprint,
    system_fingerprint,
)

FREQUENCIES = np.logspace(7, 10, 6)


@pytest.fixture(scope="module")
def model(small_parametric):
    return LowRankReducer(num_moments=3, rank=1).reduce(small_parametric)


@pytest.fixture(scope="module")
def plan():
    return MonteCarloPlan(num_instances=13, seed=7)


def _sweep(model, plan):
    """The canonical store-backed workload: 13 instances in 4 chunks."""
    return (
        Study(model)
        .scenarios(plan)
        .sweep(FREQUENCIES, keep_responses=True)
        .poles(3)
        .chunk(4)
    )


class TestParsePositive:
    def test_parses_floats_and_ints(self):
        from repro.runtime.store import parse_positive

        assert parse_positive("2.5", "--ttl") == 2.5
        assert parse_positive(" 30 ", "--ttl") == 30.0
        assert parse_positive("3", "--max-chunks", kind=int) == 3

    @pytest.mark.parametrize("text", ["nope", "", None, "1j", "0x3"])
    def test_unparsable_values_raise(self, text):
        from repro.runtime.store import parse_positive

        with pytest.raises(StoreError, match="expected a positive"):
            parse_positive(text, "--ttl")

    @pytest.mark.parametrize("text", ["0", "-1", "-0.5"])
    def test_non_positive_values_raise(self, text):
        from repro.runtime.store import parse_positive

        with pytest.raises(StoreError, match="must be > 0"):
            parse_positive(text, "--poll")

    def test_integer_kind_rejects_fractions(self):
        from repro.runtime.store import parse_positive

        with pytest.raises(StoreError, match="positive integer"):
            parse_positive("1.5", "--max-chunks", kind=int)


class TestFingerprints:
    def test_target_fingerprint_reuses_cache_fingerprint(self, small_parametric, model):
        """Manifest keys reuse the ModelCache content fingerprints: the
        record's ``target`` is ``system_fingerprint`` of a full system
        and of a reduced model alike."""
        for target in (small_parametric, model):
            record = study_fingerprint(target, "poles", np.zeros((1, 2)), {})
            assert record["target"] == system_fingerprint(target)

    def test_key_is_stable_and_content_sensitive(self, model):
        samples = np.zeros((4, model.num_parameters))
        base = study_fingerprint(model, "sweep", samples, {"num_poles": 3})
        again = study_fingerprint(model, "sweep", samples, {"num_poles": 3})
        assert base["key"] == again["key"]
        other_samples = study_fingerprint(
            model, "sweep", samples + 1e-9, {"num_poles": 3}
        )
        other_config = study_fingerprint(model, "sweep", samples, {"num_poles": 4})
        other_workload = study_fingerprint(model, "poles", samples, {"num_poles": 3})
        keys = {base["key"], other_samples["key"], other_config["key"],
                other_workload["key"]}
        assert len(keys) == 4

    def test_fingerprint_carries_components(self, model):
        fingerprint = study_fingerprint(model, "sweep", np.zeros((2, 2)), {"a": 1})
        assert set(fingerprint) == {"target", "samples", "workload", "config", "key"}


class TestStudyStore:
    def test_unwritable_directory_raises_store_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        with pytest.raises(StoreError, match="not writable"):
            StudyStore(blocker / "store")

    def test_checkpoint_roundtrip_and_layout(self, tmp_path, model, plan):
        store = StudyStore(tmp_path)
        result = _sweep(model, plan).store(store).run()
        manifests = list(tmp_path.glob("manifest-*.json"))
        assert len(manifests) == 1
        manifest = json.loads(manifests[0].read_text())
        assert manifest["format"] == "repro-study-store/v1"
        assert manifest["layout"] == {
            "num_samples": 13, "chunk_size": 4, "num_chunks": 4,
        }
        assert manifest["shard"] is None
        assert sorted(manifest["chunks"]) == ["0", "1", "2", "3"]
        for record in manifest["chunks"].values():
            assert (tmp_path / record["file"]).exists()
            assert len(record["sha256"]) == 64
        # ... and the fingerprint provenance is complete (PCN spirit).
        assert manifest["fingerprint"]["target"] == system_fingerprint(model)
        assert manifest["study_key"] == manifest["fingerprint"]["key"]
        assert result.num_chunks == 4

    def test_resume_loads_instead_of_recomputing(
        self, tmp_path, model, plan, monkeypatch
    ):
        reference = _sweep(model, plan).run()
        _sweep(model, plan).store(tmp_path).run()

        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("resumed run re-entered the sweep kernel")

        monkeypatch.setattr(stream_module, "_sweep_study", forbidden)
        monkeypatch.setattr(stream_module, "_queue_sweep", forbidden)
        resumed = _sweep(model, plan).store(tmp_path).resume().run()
        np.testing.assert_array_equal(resumed.responses, reference.responses)
        np.testing.assert_array_equal(resumed.poles, reference.poles)
        np.testing.assert_array_equal(resumed.envelope_mean, reference.envelope_mean)

    def test_corrupt_manifest_raises_store_error(self, tmp_path, model, plan):
        _sweep(model, plan).store(tmp_path).run()
        manifest = next(tmp_path.glob("manifest-*.json"))
        manifest.write_text("{ not json")
        with pytest.raises(StoreError, match="corrupt manifest"):
            _sweep(model, plan).store(tmp_path).resume().run()

    def test_structurally_invalid_manifest_raises_store_error(
        self, tmp_path, model, plan
    ):
        """JSON-valid but hand-edited manifests must fail as StoreError,
        not as a KeyError deep inside a resumed run."""
        _sweep(model, plan).store(tmp_path).run()
        manifest = next(tmp_path.glob("manifest-*.json"))
        data = json.loads(manifest.read_text())
        first = next(iter(data["chunks"]))
        del data["chunks"][first]["file"]
        manifest.write_text(json.dumps(data))
        with pytest.raises(StoreError, match="malformed record"):
            _sweep(model, plan).store(tmp_path).resume().run()

    def test_reread_counts_loaded_chunks_but_no_evaluated_instances(
        self, tmp_path, model, plan
    ):
        _sweep(model, plan).store(tmp_path).run()
        reread = _sweep(model, plan).store(tmp_path)
        reread.run()
        counters = reread.metrics()["counters"]
        assert counters.get("study.instances_evaluated", 0) == 0
        assert counters["study.chunks_completed"] == 4
        assert counters["store.chunks_loaded"] == 4

    def test_checksum_mismatch_raises_store_error(self, tmp_path, model, plan):
        _sweep(model, plan).store(tmp_path).run()
        chunk = sorted((tmp_path / "chunks").rglob("chunk-*.npz"))[1]
        chunk.write_bytes(b"rotten")
        with pytest.raises(StoreError, match="checksum"):
            _sweep(model, plan).store(tmp_path).resume().run()

    def test_chunk_layout_mismatch_is_refused(self, tmp_path, model, plan):
        _sweep(model, plan).store(tmp_path).run()
        mismatched = (
            Study(model)
            .scenarios(plan)
            .sweep(FREQUENCIES, keep_responses=True)
            .poles(3)
            .chunk(5)
            .store(tmp_path)
        )
        with pytest.raises(StoreError, match="chunk layout"):
            mismatched.run()

    def test_resume_without_history_raises(self, tmp_path, model, plan):
        with pytest.raises(StoreError, match="nothing to resume"):
            _sweep(model, plan).store(tmp_path).resume().run()

    def test_different_studies_share_one_store(self, tmp_path, model, plan):
        """E.g. the two sides of one Monte Carlo sign-off."""
        _sweep(model, plan).store(tmp_path).run()
        (
            Study(model)
            .scenarios(plan)
            .transient(num_steps=10)
            .chunk(4)
            .store(tmp_path)
            .run()
        )
        assert len(list(tmp_path.glob("manifest-*.json"))) == 2


def _edit_first_record(store_dir, edit):
    (path,) = Path(store_dir).glob("manifest-*.json")
    manifest = json.loads(path.read_text())
    first = manifest["chunks"].pop("0")
    key, record = edit(dict(first), manifest["study_key"][:16])
    manifest["chunks"][key] = record
    path.write_text(json.dumps(manifest))


MANIFEST_EDITS = {
    "absolute-file-outside-store": lambda r, k: (
        "0", dict(r, file=str(Path(tempfile.gettempdir()) / "evil.npz"))),
    "parent-escape": lambda r, k: (
        "0", dict(r, file=f"chunks/{k}/../../outside.npz")),
    "other-study-directory": lambda r, k: (
        "0", dict(r, file=r["file"].replace(k, "0" * 16))),
    "lo-above-hi": lambda r, k: ("0", dict(r, lo=3, hi=1)),
    "phantom-instances": lambda r, k: ("0", dict(r, lo=100, hi=104)),
    "shifted-bounds": lambda r, k: ("0", dict(r, lo=1, hi=5)),
    "index-past-layout": lambda r, k: ("4", dict(r, lo=16, hi=20)),
    "non-ascii-digit-index": lambda r, k: ("\u00b2", r),
    "index-past-digit-limit": lambda r, k: ("9" * 5000, r),
    "retyped-telemetry": lambda r, k: ("0", dict(r, telemetry=[])),
    "retyped-worker": lambda r, k: ("0", dict(r, worker=5)),
    "archive-of-another-chunk": lambda r, k: (
        "0", dict(r, file=r["file"].replace("chunk-00000", "chunk-00001"))),
}


class TestManifestValidation:
    """Readers take a chunk's instances from ``lo``/``hi`` and its
    archive from ``file``, so a record must fit the manifest's own chunk
    grid and name an archive under ``chunks/<key16>/``."""

    @pytest.mark.parametrize("edit", sorted(MANIFEST_EDITS))
    def test_record_outside_the_layout_is_a_one_line_store_error(
        self, model, plan, tmp_path, edit, capsys
    ):
        from repro.cli import main

        store_dir, wh = tmp_path / "store", tmp_path / "wh"
        _sweep(model, plan).store(store_dir).run()
        assert main(["query", "ingest", str(wh), str(store_dir)]) == 0
        _edit_first_record(store_dir, MANIFEST_EDITS[edit])
        with pytest.raises(StoreError, match="corrupt manifest") as caught:
            _sweep(model, plan).store(store_dir).resume().run()
        assert "\n" not in str(caught.value)
        capsys.readouterr()
        for argv in (
            ["query", "ingest", str(tmp_path / "wh2"), str(store_dir)],
            ["query", "percentile", str(wh), "--metric", "num_poles"],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: corrupt manifest")
            assert err.count("\n") == 1


    @pytest.mark.parametrize("text, problem", [
        ("[]", "not a JSON object"),
        ("1", "not a JSON object"),
        ('"x"', "not a JSON object"),
        ("null", "not a JSON object"),
        ("9" * 5000, "digits"),
        ("[" * 100_000, "recursion"),
        (b"\xff\xfe{", "corrupt manifest"),
    ], ids=["list", "int", "str", "null", "long-int", "deep", "bad-utf8"])
    def test_hand_edited_manifest_is_a_one_line_store_error(
        self, model, plan, tmp_path, text, problem
    ):
        _sweep(model, plan).store(tmp_path).run()
        (path,) = tmp_path.glob("manifest-*.json")
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        with pytest.raises(StoreError, match=problem) as caught:
            _sweep(model, plan).store(tmp_path).run()
        assert "\n" not in str(caught.value)

    def test_retyped_fingerprint_fails_ingest_in_one_line(
        self, model, plan, tmp_path, capsys
    ):
        from repro.cli import main

        store_dir = tmp_path / "store"
        _sweep(model, plan).store(store_dir).run()
        (path,) = store_dir.glob("manifest-*.json")
        manifest = json.loads(path.read_text())
        path.write_text(json.dumps(dict(manifest, fingerprint=5)))
        assert main(["query", "ingest", str(tmp_path / "wh"),
                     str(store_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: corrupt manifest")
        assert "'fingerprint' is not an object" in err
        assert err.count("\n") == 1


class TestBuilderValidation:
    def test_resume_requires_store(self, model, plan):
        with pytest.raises(ValueError, match="requires store"):
            _sweep(model, plan).resume().plan()

    def test_plan_reports_store(self, model, plan, tmp_path):
        execution = _sweep(model, plan).store(tmp_path).plan()
        assert execution.store == str(tmp_path)
        assert f"store:     {tmp_path}" in execution.describe()


class TestLegacyShardManifests:
    """Stores written by static shard runs of older releases still merge."""

    def test_shard_manifests_resume_without_recompute_and_ingest(
        self, model, plan, tmp_path, legacy_shard_split
    ):
        from repro.warehouse import Warehouse

        full = _sweep(model, plan).run()
        store_dir = tmp_path / "store"
        _sweep(model, plan).store(store_dir).run()
        legacy_shard_split(store_dir, 2)
        study = _sweep(model, plan).store(store_dir).resume()
        merged = study.run()
        counters = study.metrics()["counters"]
        assert counters.get("store.chunks_saved", 0) == 0
        assert counters["store.chunks_loaded"] == 4
        np.testing.assert_array_equal(merged.responses, full.responses)
        np.testing.assert_array_equal(merged.poles, full.poles)
        np.testing.assert_array_equal(merged.envelope_min, full.envelope_min)
        np.testing.assert_array_equal(merged.envelope_mean, full.envelope_mean)
        np.testing.assert_array_equal(merged.envelope_max, full.envelope_max)

        # The merged shard manifests register and query like one store:
        # every chunk once, in chunk order, bit-identical to the run.
        from repro.warehouse import QueryEngine

        store = StudyStore(store_dir)
        report = Warehouse(tmp_path / "wh").register(store)
        assert report.chunks == 4
        engine = QueryEngine(tmp_path / "wh")
        key = store.study_keys()[0]
        assert [(row["chunk"], row["chunk_sha256"])
                for row in engine.provenance()] == [
            (record["index"], record["sha256"])
            for record in store.lineage(key)
        ]
        np.testing.assert_array_equal(
            engine.metric_values("re", table="poles"), full.poles.real.ravel()
        )


class TestConcurrentWriters:
    def test_two_threads_running_one_study_share_a_store(self, model, tmp_path):
        """Identical submissions in flight write the same store paths.

        Each writer owns its scratch file (pid + thread id), so both
        runs finish and return the one-shot result bit for bit.
        """
        wide = MonteCarloPlan(num_instances=64, seed=11)
        reference = _sweep(model, wide).run()
        barrier = threading.Barrier(2)
        results, errors = [None, None], []

        def runner(slot):
            study = _sweep(model, wide).store(tmp_path)
            barrier.wait()
            try:
                results[slot] = study.run()
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=runner, args=(slot,)) for slot in range(2)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the writers finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        for result in results:
            np.testing.assert_array_equal(result.responses, reference.responses)
            np.testing.assert_array_equal(result.poles, reference.poles)
            np.testing.assert_array_equal(
                result.envelope_mean, reference.envelope_mean
            )
        assert not list(tmp_path.rglob("*.tmp"))


    def test_concurrent_opens_of_one_directory(self, tmp_path):
        """Threads opening one store or warehouse directory at once each
        probe writability with their own file, so none fails on another
        thread's unlinked probe."""
        from repro.warehouse import Warehouse

        errors = []

        def opener(kind):
            try:
                for _ in range(50):
                    kind(tmp_path)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=opener, args=(kind,))
            for kind in (StudyStore, StudyStore, Warehouse, Warehouse)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert not list(tmp_path.glob(".write-probe-*"))


class TestPoleCheckpoints:
    def test_pole_study_resumes_without_recomputing(
        self, small_parametric, tmp_path, monkeypatch
    ):
        samples = np.random.default_rng(3).normal(0.0, 0.05, size=(6, 2))
        reference = Study(small_parametric).scenarios(samples).poles(3).run()
        (
            Study(small_parametric)
            .scenarios(samples)
            .poles(3)
            .chunk(2)
            .store(tmp_path)
            .run()
        )
        import repro.analysis.poles as poles_module

        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("resumed pole study re-entered dominant_poles")

        monkeypatch.setattr(poles_module, "dominant_poles", forbidden)
        resumed = (
            Study(small_parametric)
            .scenarios(samples)
            .poles(3)
            .chunk(2)
            .store(tmp_path)
            .resume()
            .run()
        )
        assert len(resumed.pole_sets) == len(reference.pole_sets)
        for resumed_set, reference_set in zip(resumed.pole_sets, reference.pole_sets):
            np.testing.assert_array_equal(resumed_set, reference_set)

    def test_montecarlo_resume_after_crash_before_reduced_phase(
        self, small_parametric, tmp_path
    ):
        """A sign-off killed during the full-model phase must resume.

        The reduced-model study never reached its first checkpoint, so
        it has no manifest -- the resumed sign-off runs that side fresh
        instead of refusing, and still matches the one-shot study
        bit-for-bit.
        """
        model = LowRankReducer(num_moments=3, rank=1).reduce(small_parametric)
        samples = sample_parameters(6, small_parametric.num_parameters, seed=9)
        reference = monte_carlo_pole_study(
            small_parametric, model, num_instances=6, num_poles=2, samples=samples
        )
        # Simulate the crash aftermath: only the full-model side (the
        # first phase, and the exact study montecarlo declares) has
        # checkpoints in the store.
        (
            Study(small_parametric)
            .scenarios(samples)
            .poles(2)
            .chunk(2)
            .store(tmp_path)
            .run()
        )
        resumed = monte_carlo_pole_study(
            small_parametric, model, num_instances=6, num_poles=2,
            samples=samples, store=tmp_path, chunk_size=2, resume=True,
        )
        np.testing.assert_array_equal(resumed.pole_errors, reference.pole_errors)
        np.testing.assert_array_equal(resumed.full_poles, reference.full_poles)

    def test_montecarlo_resume_with_empty_store_raises(
        self, small_parametric, tmp_path
    ):
        model = LowRankReducer(num_moments=3, rank=1).reduce(small_parametric)
        with pytest.raises(NothingToResumeError, match="nothing to resume"):
            monte_carlo_pole_study(
                small_parametric, model, num_instances=4, num_poles=2,
                store=tmp_path, chunk_size=2, resume=True,
            )

    def test_pole_plan_reports_checkpoint_unit(self, small_parametric, tmp_path):
        samples = np.zeros((6, 2))
        execution = (
            Study(small_parametric)
            .scenarios(samples)
            .poles(2)
            .chunk(2)
            .store(tmp_path)
            .plan()
        )
        assert execution.num_chunks == 3
        assert execution.chunk_size == 2
        assert any("checkpoint unit" in note for note in execution.notes)


_SYNTHETIC_KEY = "cd" * 32
_SYNTHETIC_FINGERPRINT = {
    "target": "t", "samples": "s", "workload": "sweep", "config": "c",
    "key": _SYNTHETIC_KEY,
}


def _worker_checkpoint(store, worker=None, lenient=False):
    return store.checkpoint(
        _SYNTHETIC_FINGERPRINT, chunk_size=2, num_chunks=3, num_samples=6,
        worker=worker, lenient=lenient,
    )


class TestWorkerCheckpoints:
    def test_worker_files_are_suffixed_and_single_writer(self, tmp_path):
        store = StudyStore(tmp_path)
        checkpoint = _worker_checkpoint(store, worker="w7")
        checkpoint.save(1, 2, 4, {"value": np.arange(2.0)})
        manifest = tmp_path / f"manifest-{_SYNTHETIC_KEY[:16]}.worker-w7.json"
        assert manifest.exists()
        assert json.loads(manifest.read_text())["worker"] == "w7"
        chunk = tmp_path / "chunks" / _SYNTHETIC_KEY[:16] / "chunk-00001.w-w7.npz"
        assert chunk.exists()
        record = store.chunk_records(_SYNTHETIC_KEY)[1][0]
        assert record["worker"] == "w7"
        # The durable-replace protocol never leaves scratch files behind.
        assert not list(tmp_path.rglob("*.tmp"))

    def test_alternates_keep_every_workers_copy_in_stable_order(self, tmp_path):
        store = StudyStore(tmp_path)
        for worker in ("zeta", "alpha"):
            checkpoint = _worker_checkpoint(store, worker=worker)
            checkpoint.save(0, 0, 2, {"value": np.full(2, ord(worker[0]))})
        records = store.chunk_records(_SYNTHETIC_KEY)[0]
        assert [r["worker"] for r in records] == ["alpha", "zeta"]
        # completed picks the first alternate -- deterministic, so every
        # merger folds the same bytes regardless of who merges.
        merged = _worker_checkpoint(store)
        assert merged.completed[0]["worker"] == "alpha"

    def test_refresh_sees_other_workers_manifests_grow(self, tmp_path):
        store = StudyStore(tmp_path)
        mine = _worker_checkpoint(store, worker="mine")
        assert mine.refresh() == set()
        other = _worker_checkpoint(store, worker="other")
        other.save(2, 4, 6, {"value": np.zeros(2)})
        assert mine.refresh() == {2}
        assert mine.completed[2]["worker"] == "other"

    def test_lenient_load_requeues_a_corrupt_chunk(self, tmp_path):
        store = StudyStore(tmp_path)
        writer = _worker_checkpoint(store, worker="w1")
        writer.save(0, 0, 2, {"value": np.arange(2.0)})
        (tmp_path / "chunks" / _SYNTHETIC_KEY[:16]
         / "chunk-00000.w-w1.npz").write_bytes(b"rotten")
        strict = _worker_checkpoint(store)
        with pytest.raises(StoreError, match="checksum"):
            strict.load(0)
        lenient = _worker_checkpoint(store, lenient=True)
        assert lenient.load(0) is None  # re-queued, not fatal
        assert 0 not in lenient.completed

    def test_lenient_load_falls_back_to_a_healthy_alternate(self, tmp_path):
        store = StudyStore(tmp_path)
        payload = {"value": np.arange(2.0)}
        for worker in ("w1", "w2"):
            _worker_checkpoint(store, worker=worker).save(0, 0, 2, payload)
        (tmp_path / "chunks" / _SYNTHETIC_KEY[:16]
         / "chunk-00000.w-w1.npz").write_bytes(b"rotten")
        lenient = _worker_checkpoint(store, lenient=True)
        loaded = lenient.load(0)
        assert loaded is not None
        np.testing.assert_array_equal(loaded["value"], payload["value"])

    def test_work_drains_and_merges_bit_identical(self, tmp_path, model, plan):
        reference = _sweep(model, plan).run()
        merged = _sweep(model, plan).store(tmp_path).work(worker="solo")
        np.testing.assert_array_equal(merged.responses, reference.responses)
        np.testing.assert_array_equal(merged.poles, reference.poles)
        np.testing.assert_array_equal(merged.envelope_mean, reference.envelope_mean)
        assert any(tmp_path.glob("manifest-*.worker-solo.json"))

    def test_work_recomputes_a_corrupt_chunk_instead_of_failing(
        self, tmp_path, model, plan
    ):
        """The scheduler's merge is lenient: strict resume refuses a
        checksum mismatch, a worker re-queues and recomputes it."""
        reference = _sweep(model, plan).run()
        _sweep(model, plan).store(tmp_path).run()
        chunk = sorted((tmp_path / "chunks").rglob("chunk-*.npz"))[1]
        chunk.write_bytes(b"rotten")
        with pytest.raises(StoreError, match="checksum"):
            _sweep(model, plan).store(tmp_path).resume().run()
        merged = _sweep(model, plan).store(tmp_path).work(worker="fixer")
        np.testing.assert_array_equal(merged.responses, reference.responses)
        np.testing.assert_array_equal(merged.envelope_mean, reference.envelope_mean)

    def test_work_requires_a_store(self, model, plan):
        with pytest.raises(ValueError, match="store"):
            _sweep(model, plan).work()


class TestChunkTelemetry:
    @pytest.mark.parametrize("mode", ["run", "work"])
    @pytest.mark.parametrize("workload", ["sweep", "poles"])
    def test_every_chunk_record_counts_its_instances(
        self, model, plan, tmp_path, workload, mode
    ):
        """Both chunk loops record per-chunk telemetry in the manifest."""
        study = Study(model).scenarios(plan).poles(3)
        if workload == "sweep":
            study = study.sweep(FREQUENCIES)
        study = study.chunk(4).store(tmp_path)
        if mode == "run":
            study.run()
        else:
            study.work(worker="w1")
        store = StudyStore(tmp_path)
        (key,) = store.study_keys()
        records = store.completed_chunks(key)
        assert sorted(records) == [0, 1, 2, 3]
        for record in records.values():
            telemetry = record["telemetry"]
            assert telemetry["instances"] == record["hi"] - record["lo"]
            assert "verified_instances" not in telemetry
