"""The result warehouse: registration, in-place queries, provenance.

A warehouse is a catalog of registered studies; queries read the
registered StudyStores in place.  These tests pin its contracts: the
catalog layout, registration that writes nothing when it adds nothing,
provenance verifiable against the store manifests (per study and
chunk), exact agreement between aggregations and the in-RAM study
results they summarize, the per-chunk memory budget, a read side that
never writes, one-line failures on corrupt or missing chunk archives,
and the refusal of directories that still hold the row-copy partitions
of older releases.
"""

import json
import os
import threading

import numpy as np
import pytest

from repro.core import LowRankReducer
from repro.obs import MemorySink
from repro.obs import trace as obs_trace
from repro.runtime import MonteCarloPlan, Study, StudyStore, StoreError
from repro.runtime.store import _verified_chunk_payload
from repro.warehouse import QueryEngine, Warehouse, WarehouseError

FREQUENCIES = np.logspace(7, 10, 6)


@pytest.fixture(scope="module")
def model(small_parametric):
    return LowRankReducer(num_moments=3, rank=1).reduce(small_parametric)


@pytest.fixture(scope="module")
def plan():
    return MonteCarloPlan(num_instances=13, seed=7)


def _sweep(model, plan, store):
    """13 instances in 4 chunks: sweep envelope + 3 poles per instance."""
    return (
        Study(model)
        .scenarios(plan)
        .sweep(FREQUENCIES)
        .poles(3)
        .chunk(4)
        .store(store)
    )


def _transient(model, plan, store, chunk=4):
    """The metric-bearing workload: per-instance delay/slew/steady."""
    return (
        Study(model)
        .scenarios(plan)
        .transient(num_steps=50)
        .chunk(chunk)
        .store(store)
    )


def _tree(directory):
    """``{relative path: bytes}`` of every file under ``directory``."""
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*")) if path.is_file()
    }


def _spans(records, name):
    return [r for r in records
            if r.get("type") == "span" and r["name"] == name]


@pytest.fixture(scope="module")
def sweep_store(model, plan, tmp_path_factory):
    """One sweep study run to completion against a durable store."""
    directory = tmp_path_factory.mktemp("sweep-store")
    result = _sweep(model, plan, directory).run()
    store = StudyStore(directory)
    return store, store.study_keys()[0], result


class TestIngestBasics:
    """``register`` (the ``repro query ingest`` command) copies no rows."""

    def test_report_counts_and_layout(self, sweep_store, tmp_path):
        store, key, result = sweep_store
        chunks_before = _tree(store.directory / "chunks")
        warehouse = Warehouse(tmp_path / "wh")
        report = warehouse.register(store)
        assert report.studies == [key[:16]]
        assert report.chunks == 4
        assert report.written == [key[:16]]
        assert report.bytes_written > 0
        # Layout: one catalog record per study, nothing else, and the
        # chunk archives are untouched.
        assert list(_tree(warehouse.directory)) == [f"catalog/{key[:16]}.json"]
        assert _tree(store.directory / "chunks") == chunks_before
        engine = QueryEngine(warehouse.directory)
        assert engine.metric_values("num_poles").tolist() == [3] * 13
        assert engine.metric_values("re", table="poles").size == 13 * 3
        assert engine.metric_values("env_max", table="envelope").size > 0

    def test_reingest_is_a_noop(self, sweep_store, tmp_path):
        store, _, _ = sweep_store
        warehouse = Warehouse(tmp_path / "wh")
        warehouse.register(store)
        before = _tree(warehouse.directory)
        mtimes = {p: p.stat().st_mtime_ns
                  for p in warehouse.directory.rglob("*")}
        again = warehouse.register(store)
        assert again.chunks == 4
        assert again.written == []
        assert again.bytes_written == 0
        assert _tree(warehouse.directory) == before
        assert {p: p.stat().st_mtime_ns
                for p in warehouse.directory.rglob("*")} == mtimes

    def test_study_record_contents(self, sweep_store, tmp_path):
        store, key, _ = sweep_store
        warehouse = Warehouse(tmp_path / "wh")
        warehouse.register(store)
        records = QueryEngine(warehouse).studies()
        assert len(records) == 1
        record = records[0]
        assert record["key16"] == key[:16]
        assert record["study_key"] == key
        assert record["store"] == str(store.directory.resolve())
        assert record["workload"] == "sweep+poles"
        assert record["layout"]["num_samples"] == 13
        assert record["layout"]["num_chunks"] == 4
        catalog = json.loads(
            (warehouse.directory / "catalog" / f"{key[:16]}.json").read_text())
        assert catalog["sources"] == {str(i): "stored" for i in range(4)}
        assert catalog["samples"] is None  # bare registration

    def test_key_prefix_resolution(self, sweep_store, tmp_path):
        store, key, _ = sweep_store
        warehouse = Warehouse(tmp_path / "wh")
        report = warehouse.register(store, key=key[:16])
        assert report.chunks == 4
        with pytest.raises(WarehouseError, match="no study manifest matches"):
            warehouse.register(store, key="feedfacedeadbeef")

    def test_moved_store_is_re_pointed(self, model, plan, tmp_path, capsys):
        """A study whose store moved fails queries in one line that names
        re-registration; registering it from the new place re-points the
        record (attribution restarts there), after which queries answer
        as before and a further registration writes nothing."""
        import shutil

        from repro.cli import main

        old, new, wh = tmp_path / "old", tmp_path / "new", tmp_path / "wh"
        result = _transient(model, plan, old).warehouse(wh).run()
        shutil.move(old, new)
        with pytest.raises(WarehouseError, match="re-register") as caught:
            QueryEngine(wh).percentile("delay", 50)
        assert "\n" not in str(caught.value)
        assert main(["query", "percentile", str(wh), "--metric",
                     "delay"]) == 2
        assert "query ingest" in capsys.readouterr().err
        assert main(["query", "ingest", str(wh), str(new)]) == 0
        assert "catalog: 1 written, 0 unchanged" in capsys.readouterr().out
        engine = QueryEngine(wh)
        (record,) = engine.studies()
        assert record["store"] == str(new.resolve())
        np.testing.assert_array_equal(engine.metric_values("delay"),
                                      result.delays)
        np.testing.assert_array_equal(engine.metric_values("p_p1"),
                                      result.samples[:, 0])
        assert {row["source"] for row in engine.provenance()} == {"stored"}
        before = _tree(wh)
        assert main(["query", "ingest", str(wh), str(new)]) == 0
        assert "catalog: 0 written, 1 unchanged" in capsys.readouterr().out
        assert _tree(wh) == before

    def test_empty_store_raises(self, tmp_path):
        warehouse = Warehouse(tmp_path / "wh")
        (tmp_path / "empty-store").mkdir()
        for store in (tmp_path / "empty-store", tmp_path / "no-store"):
            with pytest.raises(WarehouseError, match="nothing to register"):
                warehouse.register(store)
        assert not (tmp_path / "no-store").exists()  # the store is only read

    def test_unwritable_directory_raises(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the warehouse dir should go")
        with pytest.raises(WarehouseError, match="not\\s+writable"):
            Warehouse(blocker / "wh")


class TestProvenance:
    def test_chunk_sha256_matches_store_manifest(self, sweep_store, tmp_path):
        store, key, _ = sweep_store
        warehouse = Warehouse(tmp_path / "wh")
        warehouse.register(store)
        manifest_shas = {
            record["index"]: record["sha256"] for record in store.lineage(key)
        }
        rows = QueryEngine(warehouse).provenance()
        assert [row["chunk"] for row in rows] == sorted(manifest_shas)
        for row in rows:
            assert row["study"] == key[:16]
            assert row["chunk_sha256"] == manifest_shas[row["chunk"]]
            assert row["source"] == "stored"  # bare registration: no lineage
            assert row["worker"] == ""  # static single-process run
        assert sum(row["rows"] for row in rows) == 13

    def test_sample_matrix_mismatch_refused(self, sweep_store, tmp_path):
        store, _, _ = sweep_store
        warehouse = Warehouse(tmp_path / "wh")
        with pytest.raises(WarehouseError, match="does not match study"):
            warehouse.register(store, samples=np.zeros((13, 2)))
        assert _tree(warehouse.directory) == {}

    def test_lineage_sources_attribute_rows(self, sweep_store, tmp_path):
        store, key, _ = sweep_store
        warehouse = Warehouse(tmp_path / "wh")
        lineage = {index: {"source": "resumed", "worker": "w7"}
                   for index in range(4)}
        warehouse.register(store, key=key, lineage=lineage)
        for row in QueryEngine(warehouse).provenance():
            assert row["source"] == "resumed"

    def test_entries_are_keyed_by_study_and_chunk(self, model, tmp_path):
        """Two studies of three chunks each: six entries, each naming its
        study, and every SHA-256 matches its own store's manifest."""
        warehouse = Warehouse(tmp_path / "wh")
        stores = {}
        for seed in (1, 2):
            store = StudyStore(tmp_path / f"store-{seed}")
            _transient(model, MonteCarloPlan(12, seed=seed), store).run()
            warehouse.register(store)
            key = store.study_keys()[0]
            stores[key[:16]] = {r["index"]: r["sha256"]
                                for r in store.lineage(key)}
        rows = QueryEngine(warehouse).provenance()
        assert [(row["study"], row["chunk"]) for row in rows] == sorted(
            (study, chunk) for study in stores for chunk in range(3)
        )
        for row in rows:
            assert row["chunk_sha256"] == stores[row["study"]][row["chunk"]]
            assert row["rows"] == 4


class TestBackends:
    """The store's native ``.npz`` chunk archive is the one table format."""

    def test_native_round_trip_is_bitwise(self, tmp_path, rng):
        store = StudyStore(tmp_path)
        fingerprint = {"key": "ab" * 32, "samples": "s"}
        checkpoint = store.checkpoint(fingerprint, chunk_size=64,
                                      num_chunks=1, num_samples=64)
        payload = {"x": rng.standard_normal(64),
                   "i": np.arange(64, dtype=np.int64)}
        record = checkpoint.save(0, 0, 64, payload)
        (loaded, sha, size), error = _verified_chunk_payload(
            tmp_path, fingerprint["key"], 0, record)
        assert error is None and sha == record["sha256"]
        assert size == (tmp_path / record["file"]).stat().st_size
        for name, values in payload.items():
            np.testing.assert_array_equal(loaded[name], values)
        (subset, _, _), _ = _verified_chunk_payload(
            tmp_path, fingerprint["key"], 0, record, members=["x", "nope"])
        assert list(subset) == ["x"]
        np.testing.assert_array_equal(subset["x"], payload["x"])

    def test_parquet_partition_is_refused(self, sweep_store, tmp_path,
                                          capsys):
        """A directory an older release filled with copied rows (``.npz``
        or ``.parquet`` partitions) is neither read nor extended: the
        queries, registration and ``repro query`` refuse it in one line
        that names re-registration."""
        from repro.cli import main

        store, key, _ = sweep_store
        for suffix in (".npz", ".parquet"):
            directory = tmp_path / f"old{suffix}"
            warehouse = Warehouse(directory)
            warehouse.register(store)
            engine = QueryEngine(directory)
            partition = directory / f"key16={key[:16]}/shard=all/chunk=00002"
            partition.mkdir(parents=True)
            (partition / f"instances-0123456789abcdef{suffix}").write_bytes(b"")
            for call in (
                lambda: warehouse.register(store),
                lambda: QueryEngine(directory),
                engine.studies,
                engine.provenance,
                lambda: engine.percentile("num_poles", 50),
            ):
                with pytest.raises(WarehouseError,
                                   match="re-register the store") as caught:
                    call()
                assert "\n" not in str(caught.value)
            for argv in (
                ["query", "ingest", str(directory), str(store.directory)],
                ["query", "studies", str(directory)],
                ["query", "outliers", str(directory), "--metric",
                 "num_poles"],
            ):
                assert main(argv) == 2
                err = capsys.readouterr().err
                assert err.startswith("error:") and err.count("\n") == 1
                assert "shard=*/chunk=*" in err


@pytest.fixture(scope="module")
def transient_warehouse(model, plan, tmp_path_factory):
    """A transient study registered via the Study directive (sample
    block + computed-source lineage), plus its in-RAM result."""
    store_dir = tmp_path_factory.mktemp("transient-store")
    wh_dir = tmp_path_factory.mktemp("transient-wh")
    study = _transient(model, plan, store_dir).warehouse(wh_dir)
    result = study.run()
    return wh_dir, result, study.warehouse_report()


class TestQueryEngine:
    def test_metric_values_bitwise_equal_in_ram(self, transient_warehouse):
        wh_dir, result, _ = transient_warehouse
        engine = QueryEngine(wh_dir)
        np.testing.assert_array_equal(
            engine.metric_values("delay"), result.delays
        )
        np.testing.assert_array_equal(
            engine.metric_values("slew"), result.slews
        )
        steady = np.atleast_2d(result.steady_states)
        np.testing.assert_array_equal(
            engine.metric_values("steady_0"), steady[:, 0]
        )
        np.testing.assert_array_equal(
            engine.metric_values("instance"), np.arange(13)
        )

    def test_yield_fraction_matches_streamed_result(self, transient_warehouse):
        wh_dir, result, _ = transient_warehouse
        engine = QueryEngine(wh_dir)
        limit = float(np.median(result.delays))
        report = engine.yield_fraction("delay", limit)
        expected = int(np.count_nonzero(result.delays <= limit))
        assert report["passed"] == expected
        assert report["total"] == 13
        assert report["fraction"] == expected / 13

    def test_percentile_matches_numpy_exactly(self, transient_warehouse):
        wh_dir, result, _ = transient_warehouse
        report = QueryEngine(wh_dir).percentile("delay", 99.0)
        assert report["value"] == float(np.percentile(result.delays, 99.0))
        assert report["count"] == 13

    def test_outliers_carry_provenance(self, transient_warehouse):
        wh_dir, result, _ = transient_warehouse
        rows = QueryEngine(wh_dir).outliers("delay", k=3)
        worst = sorted(result.delays.tolist(), reverse=True)[:3]
        assert [row["delay"] for row in rows] == worst
        for row in rows:
            assert row["delay"] == result.delays[row["instance"]]
            assert row["chunk"] == row["instance"] // 4
            assert len(row["chunk_sha256"]) == 64
            assert row["source"] == "computed"

    def test_outliers_k_bounds(self, transient_warehouse):
        """``k = 0`` selects nothing; a negative ``k`` is refused rather
        than slicing from the end of the ranking."""
        wh_dir, _, _ = transient_warehouse
        engine = QueryEngine(wh_dir)
        assert engine.outliers("delay", k=0) == []
        for k in (-1, -5):
            with pytest.raises(WarehouseError, match="k must be >= 0") \
                    as caught:
                engine.outliers("delay", k=k)
            assert "\n" not in str(caught.value)

    def test_parameter_columns_present(self, transient_warehouse, model, plan):
        """The catalog's sample block serves one ``p_<name>`` column per
        parameter, bit-identical to the realized sample matrix."""
        wh_dir, _, _ = transient_warehouse
        engine = QueryEngine(wh_dir)
        (record,) = engine.studies()
        names = record["parameter_names"]
        assert names == list(model.parameter_names) and len(names) == 2
        samples = plan.sample_matrix(model.num_parameters)
        for j, name in enumerate(names):
            np.testing.assert_array_equal(
                engine.metric_values(f"p_{name}"), samples[:, j])
        with pytest.raises(WarehouseError, match="no column 'p_nonesuch'"):
            engine.metric_values("p_nonesuch")

    def test_missing_table_raises(self, transient_warehouse):
        wh_dir, _, _ = transient_warehouse
        with pytest.raises(WarehouseError, match="no 'nonesuch' table"):
            QueryEngine(wh_dir).metric_values("x", table="nonesuch")
        with pytest.raises(WarehouseError, match="no 'poles' rows"):
            QueryEngine(wh_dir).metric_values("re", table="poles")


class TestPoleStudies:
    """Standalone pole studies persist ragged ``poles_padded`` +
    ``poles_lengths`` (not a sweep's rectangular ``poles``); every pole
    route serves ``num_poles`` and the ``poles`` table from them."""

    @pytest.mark.parametrize("full_order,route", [
        (None, "dense-batch"), ("full-order", "per-instance")])
    def test_num_poles_and_pole_rows(self, model, small_parametric, plan,
                                     tmp_path, capsys, full_order, route):
        """``full_order`` None studies the reduced model, else its
        full-order parametric system."""
        from repro.cli import main

        store, wh = tmp_path / "store", tmp_path / "wh"
        target = model if full_order is None else small_parametric
        study = Study(target).scenarios(plan).poles(3).chunk(4).store(store)
        assert study.plan().route == route
        result = study.warehouse(wh).run()
        engine = QueryEngine(wh)
        np.testing.assert_array_equal(
            engine.metric_values("num_poles"),
            [len(poles) for poles in result.pole_sets])
        values = np.concatenate(result.pole_sets)
        np.testing.assert_array_equal(
            engine.metric_values("re", table="poles"), values.real)
        np.testing.assert_array_equal(
            engine.metric_values("im", table="poles"), values.imag)
        assert main(["query", "percentile", str(wh), "--metric",
                     "num_poles"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["count"] == 13 and report["value"] == 3.0


class TestOutOfCore:
    """The acceptance property: aggregations over studies larger than
    the memory budget succeed (chunk-at-a-time reads), and the budget
    is a checked contract, not advisory."""

    def test_aggregation_exceeding_total_budget_succeeds(
            self, transient_warehouse):
        wh_dir, result, _ = transient_warehouse
        probe = QueryEngine(wh_dir)
        probe.metric_values("delay")
        # Budget below the total column bytes but above any single chunk
        # archive's: the streamed percentile must succeed and match the
        # in-RAM result exactly.
        assert probe.last_total_bytes > probe.last_peak_file_bytes > 0
        budget = probe.last_total_bytes - 1
        engine = QueryEngine(wh_dir, memory_budget=budget)
        report = engine.percentile("delay", 99.0)
        assert report["value"] == float(np.percentile(result.delays, 99.0))
        assert engine.last_total_bytes > engine.last_peak_file_bytes
        assert engine.last_peak_file_bytes <= budget

    def test_over_budget_file_raises_with_measurement(
            self, transient_warehouse):
        wh_dir, _, _ = transient_warehouse
        engine = QueryEngine(wh_dir, memory_budget=1)
        with pytest.raises(WarehouseError, match="memory budget"):
            engine.metric_values("delay")

    def test_invalid_budget_rejected(self, transient_warehouse):
        wh_dir, _, _ = transient_warehouse
        with pytest.raises(WarehouseError, match="memory budget"):
            QueryEngine(wh_dir, memory_budget=0)


class TestStudyDirective:
    def test_run_ingests_with_computed_sources(self, transient_warehouse):
        wh_dir, _, report = transient_warehouse
        assert report.chunks == 4
        assert report.written == report.studies
        sources = {row["source"]
                   for row in QueryEngine(wh_dir).provenance()}
        assert sources == {"computed"}

    def test_resumed_run_attributes_resumed_sources(
            self, model, plan, transient_warehouse, tmp_path_factory):
        # Point a *fresh* warehouse at the completed store: every chunk
        # loads from checkpoint, so lineage must read "resumed".
        store_dir = tmp_path_factory.mktemp("resume-store")
        _transient(model, plan, store_dir).run()
        wh_dir = tmp_path_factory.mktemp("resume-wh")
        study = _transient(model, plan, store_dir).warehouse(wh_dir)
        study.run()
        report = study.warehouse_report()
        assert report.chunks == 4
        sources = {row["source"]
                   for row in QueryEngine(wh_dir).provenance()}
        assert sources == {"resumed"}

    def test_second_run_skips_ingested_chunks(
            self, model, plan, transient_warehouse):
        wh_dir, _, _ = transient_warehouse
        # tmp_path_factory dirs persist for the module: rebuild a study
        # against the same store+warehouse and re-run.
        before = _tree(wh_dir)
        store_dir = QueryEngine(wh_dir).studies()[0]["store"]
        study = _transient(model, plan, store_dir).warehouse(wh_dir)
        study.run()
        report = study.warehouse_report()
        assert report.chunks == 4
        assert report.written == []
        assert _tree(wh_dir) == before

    def test_warehouse_requires_store(self, model, plan, tmp_path):
        study = (
            Study(model).scenarios(plan).transient(num_steps=50)
            .warehouse(tmp_path / "wh")
        )
        with pytest.raises(ValueError, match="requires store"):
            study.run()

    def test_warehouse_rejects_sensitivities(self, model, plan, tmp_path):
        study = (
            Study(model).scenarios(plan).sensitivities(2j * np.pi * 1e9)
            .warehouse(tmp_path / "wh")
        )
        with pytest.raises(ValueError, match="sensitivities"):
            study.run()

    def test_no_directive_no_report(self, model, plan, tmp_path):
        study = _sweep(model, plan, tmp_path / "store")
        study.run()
        assert study.warehouse_report() is None

    def test_threads_registering_one_study(self, model, tmp_path):
        """Concurrent registrations of one study -- more threads than
        cores, half of them carrying the sample block -- leave one
        catalog record that lost no update, and the answers of a single
        registration.  Every round races on a fresh study."""
        import sys

        store, plans = tmp_path / "store", [MonteCarloPlan(8, seed=s)
                                            for s in range(8)]
        keys = []
        for each in plans:
            _transient(model, each, store).run()
            keys += sorted(set(StudyStore(store).study_keys()) - set(keys))
        single, shared = tmp_path / "single", tmp_path / "shared"
        for key, each in zip(keys, plans):
            Warehouse(single).register(
                store, key=key, samples=each.sample_matrix(2),
                parameter_names=model.parameter_names)
        threads = max(4, 2 * (os.cpu_count() or 1))
        barrier, errors = threading.Barrier(threads), []

        def register(slot):
            try:
                for key, each in zip(keys, plans):
                    extra = {"samples": each.sample_matrix(2),
                             "parameter_names": model.parameter_names}
                    barrier.wait(timeout=60)
                    Warehouse(shared).register(store, key=key,
                                               **(extra if slot % 2 else {}))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        workers = [threading.Thread(target=register, args=(slot,))
                   for slot in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert not errors, errors
        assert _tree(shared) == _tree(single)  # one record each, none lost
        a, b = QueryEngine(single), QueryEngine(shared)
        for column in ("delay", "p_p1"):
            np.testing.assert_array_equal(a.metric_values(column),
                                          b.metric_values(column))
        assert a.provenance() == b.provenance()


    def test_processes_registering_one_study(self, model, plan, tmp_path):
        """Two processes registering one study into the same fresh
        warehouse, round after round -- one with the sample block, one
        without -- never lose the sample block: the catalog lock holds
        across processes, so every warehouse ends as one registration
        with samples leaves it."""
        import subprocess
        import sys

        store, rounds = tmp_path / "store", 64
        _transient(model, plan, store).run()
        np.save(tmp_path / "samples.npy", plan.sample_matrix(2))
        single = tmp_path / "single"
        Warehouse(single).register(store, samples=plan.sample_matrix(2),
                                   parameter_names=model.parameter_names)
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "import numpy as np\n"
            "from repro.warehouse import Warehouse\n"
            "me, other, root, store = sys.argv[1:5]\n"
            "root = Path(root)\n"
            "extra = {} if me == 'b' else {\n"
            "    'samples': np.load(root / 'samples.npy'),\n"
            "    'parameter_names': ['p1', 'p2']}\n"
            f"for i in range({rounds}):\n"
            "    (root / f'{me}-{i}').touch()\n"
            "    while not (root / f'{other}-{i}').exists():\n"
            "        pass\n"
            "    Warehouse(root / f'wh-{i}').register(store, **extra)\n"
        )
        workers = [subprocess.Popen([sys.executable, "-c", script, me, other,
                                     str(tmp_path), str(store)])
                   for me, other in (("a", "b"), ("b", "a"))]
        for proc in workers:
            assert proc.wait(timeout=120) == 0
        for i in range(rounds):
            assert _tree(tmp_path / f"wh-{i}") == _tree(single), i


class TestWorkStore:
    def test_two_worker_store_queries_like_a_run_store(
            self, model, plan, tmp_path):
        """A store drained by two work-stealing workers answers every
        query like the one-shot run's store."""
        run_dir = tmp_path / "run-store"
        _transient(model, plan, run_dir, chunk=2).run()
        work_dir = tmp_path / "work-store"
        errors = []

        def drain(worker):
            try:
                _transient(model, plan, work_dir, chunk=2).work(
                    ttl=5.0, poll=0.01, worker=worker)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=drain, args=(w,))
                   for w in ("w1", "w2")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        engines = []
        for name, store in (("run", run_dir), ("work", work_dir)):
            Warehouse(tmp_path / f"wh-{name}").register(store)
            engines.append(QueryEngine(tmp_path / f"wh-{name}"))
        ran, worked = engines
        np.testing.assert_array_equal(ran.metric_values("delay"),
                                      worked.metric_values("delay"))
        np.testing.assert_array_equal(
            ran.metric_values("env_max", table="envelope"),
            worked.metric_values("env_max", table="envelope"))
        assert ran.percentile("delay", 90) == worked.percentile("delay", 90)
        assert ran.yield_fraction("delay", 1.0) == \
            worked.yield_fraction("delay", 1.0)
        strip = lambda rows: [(r["study"], r["instance"], r["delay"])  # noqa: E731
                              for r in rows]
        assert strip(ran.outliers("delay", k=5)) == \
            strip(worked.outliers("delay", k=5))
        workers = {row["worker"] for row in worked.provenance()}
        assert workers and workers <= {"w1", "w2"}
        assert [row["chunk"] for row in worked.provenance()] == list(range(7))


class TestReadOnlyQueries:
    """Queries open nothing for writing."""

    def test_missing_path_fails_in_one_line_and_creates_nothing(
            self, tmp_path, capsys):
        from repro.cli import main

        typo = tmp_path / "typo"
        with pytest.raises(WarehouseError, match="no warehouse catalog"):
            QueryEngine(typo)
        for argv in (["query", "percentile", str(typo), "--metric", "delay"],
                     ["query", "studies", str(typo)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
        assert not typo.exists()

    def test_read_only_warehouse_answers(self, model, plan, tmp_path,
                                         capsys):
        from repro.cli import main

        store, wh = tmp_path / "store", tmp_path / "wh"
        result = _transient(model, plan, store).warehouse(wh).run()
        before = {**_tree(wh), **_tree(store)}
        for directory in (wh, wh / "catalog", store):
            directory.chmod(0o555)
        try:
            engine = QueryEngine(wh)
            assert engine.percentile("delay", 50)["value"] == \
                float(np.percentile(result.delays, 50))
            assert len(engine.provenance()) == 4
            assert main(["query", "yield", str(wh), "--metric", "delay",
                         "--limit", "1"]) == 0
            assert json.loads(capsys.readouterr().out)["total"] == 13
        finally:
            for directory in (wh, wh / "catalog", store):
                directory.chmod(0o755)
        assert {**_tree(wh), **_tree(store)} == before


class TestCorruptChunks:
    """A registered chunk archive that fails verification stops every
    aggregation with one line naming the chunk -- no numbers."""

    @pytest.fixture(params=["flip", "delete"])
    def damaged(self, request, model, plan, tmp_path):
        store, wh = tmp_path / "store", tmp_path / "wh"
        _transient(model, plan, store).warehouse(wh).run()
        (archive,) = (store / "chunks").rglob("chunk-00002.npz")
        if request.param == "flip":
            data = bytearray(archive.read_bytes())
            data[len(data) // 2] ^= 0x01
            archive.write_bytes(bytes(data))
        else:
            archive.unlink()
        return wh

    def test_every_aggregation_fails_naming_the_chunk(self, damaged):
        engine = QueryEngine(damaged)
        for call in (
            lambda: engine.metric_values("delay"),
            lambda: engine.yield_fraction("delay", 1.0),
            lambda: engine.percentile("delay", 99),
            lambda: engine.outliers("delay", k=3),
            engine.provenance,
            lambda: engine.metric_values("env_max", table="envelope"),
        ):
            with pytest.raises(StoreError, match="chunk 2") as caught:
                call()
            assert "\n" not in str(caught.value)

    def test_every_query_command_exits_2(self, damaged, capsys):
        from repro.cli import main

        for argv in (
            ["yield", "--metric", "delay", "--limit", "1"],
            ["percentile", "--metric", "delay"],
            ["outliers", "--metric", "delay"],
        ):
            assert main(["query", argv[0], str(damaged), *argv[1:]]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: chunk 2")
            assert captured.err.count("\n") == 1


class TestSpans:
    def test_register_and_query_spans(self, model, plan, tmp_path):
        store, wh = tmp_path / "store", tmp_path / "wh"
        sink = obs_trace.add_sink(MemorySink())
        try:
            _transient(model, plan, store).warehouse(wh).run()
            engine = QueryEngine(wh)
            engine.percentile("delay", 99)
            engine.provenance()
        finally:
            obs_trace.remove_sink(sink)
        (register,) = _spans(sink.records, "warehouse.register")
        assert register["attrs"]["chunks"] == 4
        assert register["attrs"]["written"] is True
        assert not _spans(sink.records, "warehouse.ingest")
        queries = _spans(sink.records, "warehouse.query")
        assert len(queries) == 2  # one per aggregation
        archive_bytes = sum(
            path.stat().st_size for path in (store / "chunks").rglob("*.npz"))
        for span in queries:
            assert span["attrs"]["chunks_verified"] == 4
            assert span["attrs"]["bytes_read"] == archive_bytes


class TestCliQuery:
    @pytest.fixture()
    def ingested(self, model, plan, tmp_path):
        from repro.cli import main

        store = tmp_path / "store"
        warehouse = tmp_path / "wh"
        _transient(model, plan, store).run()
        assert main(["query", "ingest", str(warehouse), str(store)]) == 0
        return warehouse

    def test_ingest_reports_and_is_idempotent(self, model, plan, tmp_path,
                                              capsys):
        from repro.cli import main

        store = tmp_path / "store"
        warehouse = tmp_path / "wh"
        _transient(model, plan, store).run()
        assert main(["query", "ingest", str(warehouse), str(store)]) == 0
        out = capsys.readouterr().out
        assert "chunks:  4 registered" in out
        assert "catalog: 1 written, 0 unchanged" in out
        before = _tree(warehouse)
        assert main(["query", "ingest", str(warehouse), str(store)]) == 0
        out = capsys.readouterr().out
        assert "catalog: 0 written, 1 unchanged" in out
        assert _tree(warehouse) == before

    def test_studies_yield_percentile_outliers(self, ingested, capsys):
        from repro.cli import main

        assert main(["query", "studies", str(ingested)]) == 0
        assert "transient" in capsys.readouterr().out

        assert main(["query", "yield", str(ingested), "--metric", "delay",
                     "--limit", "1.0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total"] == 13

        assert main(["query", "percentile", str(ingested), "--metric",
                     "delay", "--q", "50"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["count"] == 13

        assert main(["query", "outliers", str(ingested), "--metric", "delay",
                     "-k", "2"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2

    def test_errors_are_exit_2_one_liners(self, tmp_path, capsys):
        from repro.cli import main

        Warehouse(tmp_path / "wh")  # a catalog without studies
        code = main(["query", "studies", str(tmp_path / "wh")])
        assert code == 0  # empty warehouse: informational, not an error
        assert "no studies" in capsys.readouterr().out
        for argv in (["query", "percentile", str(tmp_path / "wh"),
                      "--metric", "delay"],
                     ["query", "studies", str(tmp_path / "missing")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert "\n" == err[-1] and err.count("\n") == 1


class TestSupervisorWarehouse:
    NETLIST = """
.title warehouse-supervisor-demo
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

    def _job(self, **overrides):
        document = {
            "netlist": self.NETLIST,
            "moments": 3,
            "plan": {"kind": "montecarlo", "instances": 4, "seed": 7},
            "workload": {"kind": "sweep", "points": 5},
            "chunk": 2,
        }
        document.update(overrides)
        return document

    @staticmethod
    def _wait(job, timeout=60.0):
        import time

        deadline = time.monotonic() + timeout
        while not job.terminal:
            assert time.monotonic() < deadline, f"job stuck in {job.state}"
            time.sleep(0.01)
        return job

    def test_completion_hook_ingests_and_reports(self, tmp_path):
        from repro.serve.supervisor import StudySupervisor

        supervisor = StudySupervisor(
            tmp_path / "store", pool_size=2, warehouse=tmp_path / "wh"
        )
        try:
            job = self._wait(supervisor.submit(self._job()))
            assert job.state == "done", job.error
            events = [event for event in job.events
                      if event["event"] == "warehouse.register"]
            assert len(events) == 1
            assert events[0]["chunks"] == 2
            assert events[0]["written"] == events[0]["studies"]
            rows = QueryEngine(tmp_path / "wh").provenance()
            assert {row["source"] for row in rows} == {"computed"}
            assert sum(row["rows"] for row in rows) == 4
        finally:
            supervisor.shutdown(wait=True)

    def test_rerun_skips_already_ingested_chunks(self, tmp_path):
        from repro.serve.jobs import Job
        from repro.serve.protocol import parse_job, realize
        from repro.serve.supervisor import StudySupervisor

        supervisor = StudySupervisor(
            tmp_path / "store", pool_size=1, warehouse=tmp_path / "wh"
        )
        try:
            first = self._wait(supervisor.submit(self._job()))
            assert first.state == "done", first.error
            before = _tree(tmp_path / "wh")
            # A cached resubmission never runs, so drive _run_job
            # directly: the study resumes from checkpoints and the
            # registration hook must write nothing.
            spec = parse_job(self._job())
            realized = realize(spec)
            job = Job("job-wh-rerun", "1" * 64, spec.canonical(),
                      study_keys=realized.study_keys,
                      fingerprints=realized.fingerprints,
                      peak_bytes=realized.peak_bytes)
            job._realized = realized
            supervisor._run_job(job)
            assert job.state == "done", job.error
            event = [event for event in job.events
                     if event["event"] == "warehouse.register"][0]
            assert event["chunks"] == 2
            assert event["written"] == []
            assert _tree(tmp_path / "wh") == before
        finally:
            supervisor.shutdown(wait=True)

    def test_ingest_failure_never_fails_the_job(self, tmp_path):
        from repro.serve.supervisor import StudySupervisor

        supervisor = StudySupervisor(
            tmp_path / "store", pool_size=1, warehouse=tmp_path / "wh"
        )

        def explode(*args, **kwargs):
            raise RuntimeError("warehouse disk full")

        supervisor.warehouse.register = explode
        try:
            job = self._wait(supervisor.submit(self._job()))
            assert job.state == "done", job.error  # result still served
            errors = [event for event in job.events
                      if event["event"] == "warehouse.error"]
            assert len(errors) == 1
            assert "warehouse disk full" in errors[0]["error"]
        finally:
            supervisor.shutdown(wait=True)
