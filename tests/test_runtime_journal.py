"""The checkpoint journal: durability, compatibility and I/O per run.

A run's first save replaces its manifest; each later save appends one
synced line to ``<manifest>.journal``; ``StudyCheckpoint.close`` folds
the journal back into the manifest and unlinks it.  These tests pin the
contract around that:

- a kill at each step of the save path loses only chunks without a
  complete record, and resume recomputes exactly those, bit-identically
  (killed child processes, so no ``finally`` runs);
- ``Study.run()`` and ``Study.work()`` leave no journal when they return
  or raise, and a co-draining worker's ``refresh()`` sees another
  worker's journaled chunks before compaction;
- a fresh 512-instance transient study makes the ``fsync`` /
  ``os.replace`` / manifest-encode counts the design names;
- a store written before the journal existed (``tests/golden/
  parent_store``: an indented manifest, no journal) resumes with no
  instance evaluated and folds exactly its stored arrays.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.circuits import rc_ladder, rc_tree, with_random_variations
from repro.core import LowRankReducer
from repro.runtime import (
    MonteCarloPlan,
    RampInput,
    StoreError,
    Study,
    StudyCheckpoint,
    StudyStore,
)

GOLDEN_STORE = Path(__file__).parent / "golden" / "parent_store"
NUM_INSTANCES, CHUNK = 10, 2          # five chunks
KILLED = 17                           # exit status of a killed child


def declare(store=None):
    """The killed-and-resumed study (also built by the child processes)."""
    parametric = with_random_variations(rc_ladder(10), 2, seed=3)
    model = LowRankReducer(num_moments=2).reduce(parametric)
    study = (
        Study(model).scenarios(MonteCarloPlan(NUM_INSTANCES, seed=5))
        .transient(num_steps=12).chunk(CHUNK)
    )
    return study if store is None else study.store(store)


def kill_at(point: str):
    """Make this process exit at one step of the save path (child only);
    for ``sigkill``, return the progress callback that waits for it.

    ``os._exit`` ends the process as a kill does: no ``finally`` block,
    so no ``close()``, runs.  Each point fires during the third save
    (chunk 2), after the first save wrote the manifest and the second
    appended a journal line -- or, for ``unlink``, inside the
    compaction.
    """
    import repro.runtime.store as store_module

    if point == "archive":  # the archive is renamed, no record yet
        replace = store_module._durable_replace

        def durable_replace(path, data):
            replace(path, data)
            if path.name == "chunk-00002.npz":
                os._exit(KILLED)

        store_module._durable_replace = durable_replace
    elif point == "fsync":  # the journal line is written, not synced
        fsync = os.fsync

        def journal_fsync(fd):
            journal = list(Path(sys.argv[1]).glob("*.journal"))
            if journal and os.fstat(fd).st_ino == journal[0].stat().st_ino \
                    and journal[0].read_bytes().count(b"\n") == 2:
                os._exit(KILLED)
            fsync(fd)

        os.fsync = journal_fsync
    elif point == "unlink":  # the compacted manifest is in place
        unlink = Path.unlink

        def journal_unlink(self, missing_ok=False):
            if self.name.endswith(".journal"):
                os._exit(KILLED)
            unlink(self, missing_ok=missing_ok)

        Path.unlink = journal_unlink
    elif point == "sigkill":  # wait for the signal after three chunks
        def progress(done, total):
            if done == 3 * CHUNK:
                print("ready", flush=True)
                import time
                time.sleep(60)

        return progress
    else:
        raise ValueError(point)


CHILD = (
    "import sys\n"
    "sys.path.insert(0, {tests!r})\n"
    "from test_runtime_journal import declare, kill_at\n"
    "progress = kill_at(sys.argv[2])\n"
    "study = declare(sys.argv[1])\n"
    "(study.progress(progress) if progress else study).run()\n"
)


def _child(store, point, **kwargs):
    script = CHILD.format(tests=str(Path(__file__).parent))
    return subprocess.Popen(
        [sys.executable, "-c", script, str(store), point], **kwargs
    )


@pytest.fixture(scope="module")
def reference():
    return declare().run()


def _same(result, reference):
    for name in ("delays", "slews", "steady_states", "envelope_min",
                 "envelope_mean", "envelope_max", "time"):
        np.testing.assert_array_equal(getattr(result, name),
                                      getattr(reference, name))


def _resume(store):
    study = declare(store).resume()
    result = study.run()
    counters = study.metrics()["counters"]
    return result, (counters.get("store.chunks_loaded", 0),
                    counters.get("study.instances_evaluated", 0))


def _recorded(store) -> list:
    reader = StudyStore.reader(store)
    (key,) = reader.study_keys()
    return sorted(reader.completed_chunks(key))


class TestKillPoints:
    @pytest.mark.parametrize("point, recorded", [
        ("archive", [0, 1]),
        ("fsync", [0, 1, 2]),
        ("unlink", [0, 1, 2, 3, 4]),
    ])
    def test_resume_recomputes_exactly_the_unrecorded_chunks(
        self, reference, tmp_path, point, recorded
    ):
        store = tmp_path / "store"
        assert _child(store, point).wait(timeout=120) == KILLED
        assert list(store.glob("*.journal"))  # a kill leaves the journal
        assert _recorded(store) == recorded
        result, (loaded, evaluated) = _resume(store)
        _same(result, reference)
        assert loaded == len(recorded)
        assert evaluated == NUM_INSTANCES - CHUNK * len(recorded)
        assert _recorded(store) == list(range(NUM_INSTANCES // CHUNK))
        assert not list(store.glob("*.journal"))

    def test_sigkill_after_the_third_checkpoint(self, reference, tmp_path):
        store = tmp_path / "store"
        child = _child(store, "sigkill", stdout=subprocess.PIPE, text=True)
        try:
            assert child.stdout.readline().strip() == "ready"
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=60)
            child.stdout.close()
        (manifest,) = store.glob("manifest-*.json")
        journal = manifest.with_name(manifest.name + ".journal")
        assert len(json.loads(manifest.read_text())["chunks"]) == 1
        assert journal.read_bytes().count(b"\n") == 2
        result, (loaded, evaluated) = _resume(store)
        _same(result, reference)
        assert (loaded, evaluated) == (3, NUM_INSTANCES - 3 * CHUNK)
        assert not journal.exists()
        assert len(json.loads(manifest.read_text())["chunks"]) == 5


class _Interrupted(Exception):
    pass


class TestNoJournalRemains:
    def test_saves_after_the_first_are_journal_lines(self, tmp_path):
        seen = []

        def snapshot(done, total):
            (manifest,) = tmp_path.glob("manifest-*.json")
            journal = manifest.with_name(manifest.name + ".journal")
            seen.append((len(json.loads(manifest.read_text())["chunks"]),
                         journal.read_bytes().count(b"\n")))

        declare(tmp_path).progress(snapshot).run()
        assert seen == [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4)]
        (manifest,) = tmp_path.glob("manifest-*.json")
        text = manifest.read_text()
        assert "\n" not in text  # compact, one line
        assert len(json.loads(text)["chunks"]) == 5
        assert not list(tmp_path.glob("*.journal"))

    def test_a_failed_run_folds_its_journal(self, reference, tmp_path):
        def stop(done, total):
            if done == 3 * CHUNK:
                raise _Interrupted

        with pytest.raises(_Interrupted):
            declare(tmp_path).progress(stop).run()
        assert not list(tmp_path.glob("*.journal"))
        assert _recorded(tmp_path) == [0, 1, 2]
        result, (loaded, evaluated) = _resume(tmp_path)
        _same(result, reference)
        assert (loaded, evaluated) == (3, NUM_INSTANCES - 3 * CHUNK)

    def test_work_leaves_no_journal(self, reference, tmp_path):
        assert declare(tmp_path).work(worker="w1", max_chunks=3) is None
        assert not list(tmp_path.glob("*.journal"))
        _same(declare(tmp_path).work(worker="w2"), reference)
        assert not list(tmp_path.glob("*.journal"))
        records = StudyStore.reader(tmp_path).chunk_records(
            declare(tmp_path).fingerprint()["key"])
        workers = {index: [r["worker"] for r in alternates]
                   for index, alternates in records.items()}
        assert workers == {0: ["w1"], 1: ["w1"], 2: ["w1"],
                           3: ["w2"], 4: ["w2"]}

    def test_a_failed_drain_folds_its_journal(self, tmp_path, monkeypatch):
        save = StudyCheckpoint.save

        def failing(self, index, *args, **kwargs):
            if index == 3:
                raise StoreError("disk full")
            return save(self, index, *args, **kwargs)

        monkeypatch.setattr(StudyCheckpoint, "save", failing)
        with pytest.raises(StoreError, match="disk full"):
            declare(tmp_path).work(worker="w1")
        assert not list(tmp_path.glob("*.journal"))
        assert _recorded(tmp_path) == [0, 1, 2]

    def test_co_draining_threads_leave_one_manifest_each(
        self, reference, tmp_path
    ):
        """Four workers on two CPUs, switching threads often: each one's
        refresh reads the others' journals while they append and
        compact, and every merge still folds the one-shot result."""
        results, errors = {}, []

        def drain(name):
            try:
                results[name] = declare(tmp_path).work(
                    worker=name, ttl=5.0, poll=0.001)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=drain, args=(f"w{i}",))
                   for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert sorted(results) == ["w0", "w1", "w2", "w3"]
        for result in results.values():
            _same(result, reference)
        assert not list(tmp_path.glob("*.journal"))
        assert _recorded(tmp_path) == list(range(NUM_INSTANCES // CHUNK))

    def test_refresh_sees_another_workers_journal(self, tmp_path):
        fingerprint = {"target": "t", "samples": "s", "workload": "sweep",
                       "config": "c", "key": "ab" * 32}
        store = StudyStore(tmp_path)

        def worker(name):
            return store.checkpoint(fingerprint, chunk_size=2, num_chunks=4,
                                    num_samples=8, worker=name)

        writer, other = worker("w1"), worker("w2")
        for index in range(3):
            writer.save(index, 2 * index, 2 * index + 2,
                        {"value": np.full(2, float(index))})
        (journal,) = tmp_path.glob("*.journal")
        assert journal.read_bytes().count(b"\n") == 2
        assert other.refresh() == {0, 1, 2}
        assert {other.completed[i]["worker"] for i in range(3)} == {"w1"}
        np.testing.assert_array_equal(other.load(2)["value"], [2.0, 2.0])
        writer.close()
        assert not journal.exists()
        assert other.refresh() == {0, 1, 2}
        writer.close()  # idempotent


class TestJournalLines:
    """Readers merge a journal's complete lines and refuse others."""

    def _journaled(self, tmp_path):
        """``(store, journal)``: a copy taken after the last save and
        before the close, so chunks 1-4 are journal lines."""

        def snapshot(done, total):
            if done == total:
                shutil.copytree(tmp_path / "store", tmp_path / "copy")

        declare(tmp_path / "store").progress(snapshot).run()
        (journal,) = (tmp_path / "copy").glob("*.journal")
        return tmp_path / "copy", journal

    def test_a_torn_final_line_is_ignored(self, reference, tmp_path):
        store, journal = self._journaled(tmp_path)
        data = journal.read_bytes()
        journal.write_bytes(data[:-7])  # the last append never returned
        assert _recorded(store) == [0, 1, 2, 3]
        result, (loaded, evaluated) = _resume(store)
        _same(result, reference)
        assert (loaded, evaluated) == (4, CHUNK)

    @pytest.mark.parametrize("line", [
        b"", b"{", b"[1, 2]", b'{"index": "1", "record": {}}',
        b'{"index": -1, "record": {}}', b'{"index": true, "record": {}}',
        b'{"index": 1}', b'{"index": 1, "record": 5}', b"\xff\xfe{}",
        b"9" * 5000, b"[" * 100_000,
    ], ids=["empty", "torn", "list", "string-index", "negative", "bool",
            "no-record", "retyped-record", "bad-utf8", "long-int", "deep"])
    def test_a_malformed_line_is_a_one_line_store_error(self, tmp_path, line):
        store, journal = self._journaled(tmp_path)
        journal.write_bytes(line + b"\n" + journal.read_bytes())
        reader = StudyStore.reader(store)
        for call in (lambda: reader.lineage(reader.study_keys()[0]),
                     lambda: declare(store).run()):
            with pytest.raises(StoreError, match="corrupt journal") as caught:
                call()
            assert "line 1" in str(caught.value)
            assert "\n" not in str(caught.value)

    def test_a_record_outside_the_layout_is_refused(self, tmp_path):
        store, journal = self._journaled(tmp_path)
        entry = json.loads(journal.read_bytes().split(b"\n")[0])
        entry["index"] = 9
        journal.write_bytes(json.dumps(entry).encode() + b"\n")
        with pytest.raises(StoreError, match="outside the 5-chunk layout"):
            declare(store).run()


class TestIOCounts:
    """Per ``run()`` of a fresh 512-instance transient study (the
    transient-durable benchmark's net and workload, no warehouse): the
    first save replaces the manifest, later ones append a synced line,
    and the close compacts once."""

    @pytest.fixture(scope="class")
    def model(self):
        parametric = with_random_variations(rc_tree(1000, seed=5), 2, seed=5)
        return LowRankReducer(num_moments=3).reduce(parametric)

    @pytest.mark.parametrize("chunk, fsyncs, replaces, encodes", [
        (32, 51, 18, 2),
        (128, 15, 6, 2),
        (512, 4, 2, 1),
    ])
    def test_counts(self, model, tmp_path, monkeypatch,
                    chunk, fsyncs, replaces, encodes):
        counts = {"fsync": 0, "replace": 0, "encode": 0}
        fsync, replace = os.fsync, os.replace
        write_manifest = StudyCheckpoint._write_manifest

        def counting(name, call):
            def wrapper(*args):
                counts[name] += 1
                return call(*args)
            return wrapper

        study = (
            Study(model).scenarios(MonteCarloPlan(512, seed=3))
            .transient(RampInput(rise_time=1e-10), num_steps=200,
                       output_index=1)
            .chunk(chunk).store(tmp_path)
        )
        study.plan()
        monkeypatch.setattr(os, "fsync", counting("fsync", fsync))
        monkeypatch.setattr(os, "replace", counting("replace", replace))
        monkeypatch.setattr(StudyCheckpoint, "_write_manifest",
                            counting("encode", write_manifest))
        study.run()
        assert counts == {"fsync": fsyncs, "replace": replaces,
                          "encode": encodes}
        assert not list(tmp_path.glob("*.journal"))


class TestParentFormatStore:
    """A store written before the journal existed: an indented manifest
    of four chunks and no journal.  Its target is a full-order ladder,
    so the study key hashes stamped matrices (exact on every platform),
    not a reduction."""

    def _declare(self, store):
        full = with_random_variations(rc_ladder(12), 2, seed=11)
        samples = np.arange(16.0).reshape(8, 2) / 16 - 0.5
        return (
            Study(full).scenarios(samples)
            .sweep(np.array([1e7, 1e8, 1e9, 1e10]), keep_responses=True)
            .chunk(2).store(store)
        )

    def test_resumes_without_evaluating_and_folds_the_stored_arrays(
        self, tmp_path
    ):
        store = tmp_path / "store"
        shutil.copytree(GOLDEN_STORE, store)
        (manifest,) = store.glob("manifest-*.json")
        before = manifest.read_bytes()
        assert before.startswith(b"{\n \"chunks\"")  # indent=1
        study = self._declare(store).resume()
        result = study.run()
        counters = study.metrics()["counters"]
        assert counters.get("study.instances_evaluated", 0) == 0
        assert counters["store.chunks_loaded"] == 4
        stored = [np.load(path) for path in
                  sorted((store / "chunks").rglob("chunk-*.npz"))]
        np.testing.assert_array_equal(
            result.responses,
            np.concatenate([chunk["responses"] for chunk in stored]))
        np.testing.assert_array_equal(
            result.envelope_min,
            np.min([chunk["env_min"] for chunk in stored], axis=0))
        np.testing.assert_array_equal(
            result.envelope_max,
            np.max([chunk["env_max"] for chunk in stored], axis=0))
        # Nothing was saved, so nothing was written.
        assert manifest.read_bytes() == before
        assert sorted(p.name for p in store.iterdir()) == [
            "chunks", manifest.name]
