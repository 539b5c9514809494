"""The result warehouse: ingest, idempotency, provenance, and queries.

The warehouse converts StudyStore chunk checkpoints into partitioned
columnar datasets.  These tests pin its contracts: the partition
layout, structural idempotency (re-ingest adds zero rows), provenance
columns verifiable against the store manifests, exact agreement between
warehouse aggregations and the in-RAM study results they summarize, and
the out-of-core memory-budget property, and the refusal of datasets
that still hold ``.parquet`` partitions from older releases.
"""

import json

import numpy as np
import pytest

from repro.core import LowRankReducer
from repro.runtime import MonteCarloPlan, Study, StudyStore
from repro.warehouse import QueryEngine, Warehouse, WarehouseError, backend

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


def _transient(model, plan, store):
    """The metric-bearing workload: per-instance delay/slew/steady."""
    return (
        Study(model)
        .scenarios(plan)
        .transient(num_steps=50)
        .chunk(4)
        .store(store)
    )


@pytest.fixture(scope="module")
def sweep_store(model, plan, tmp_path_factory):
    """One sweep study run to completion against a durable store."""
    directory = tmp_path_factory.mktemp("sweep-store")
    result = _sweep(model, plan, directory).run()
    store = StudyStore(directory)
    return store, store.study_keys()[0], result


class TestIngestBasics:
    def test_report_counts_and_layout(self, sweep_store, tmp_path):
        store, key, _ = sweep_store
        warehouse = Warehouse(tmp_path / "wh")
        report = warehouse.ingest_store(store)
        assert report.studies == [key[:16]]
        assert report.chunks == 4
        assert report.skipped == 0
        assert report.rows["instances"] == 13
        assert report.rows["poles"] == 13 * 3
        assert report.rows["envelope"] > 0
        assert report.rows_added == sum(report.rows.values())
        assert report.bytes_written > 0
        assert len(report.files) == 4 * 3  # three tables per chunk
        # Partition layout: key16=<k>/shard=all/chunk=NNNNN/<table>-<sha16>
        dataset = warehouse.dataset_dir(key[:16])
        assert (dataset / "_study.json").exists()
        chunks = sorted(dataset.glob("shard=all/chunk=*"))
        assert [p.name for p in chunks] == [
            f"chunk={i:05d}" for i in range(4)
        ]
        for record in store.lineage(key):
            sha16 = record["sha256"][:16]
            partition = dataset / "shard=all" / f"chunk={record['index']:05d}"
            assert (partition / f"instances-{sha16}.npz").exists()

    def test_reingest_is_a_noop(self, sweep_store, tmp_path):
        store, _, _ = sweep_store
        warehouse = Warehouse(tmp_path / "wh")
        warehouse.ingest_store(store)
        before = sorted(
            str(p) for p in warehouse.directory.rglob("*") if p.is_file()
        )
        again = warehouse.ingest_store(store)
        assert again.chunks == 0
        assert again.skipped == 4
        assert again.rows_added == 0
        assert again.files == []
        after = sorted(
            str(p) for p in warehouse.directory.rglob("*") if p.is_file()
        )
        assert after == before

    def test_study_record_contents(self, sweep_store, tmp_path):
        store, key, _ = sweep_store
        warehouse = Warehouse(tmp_path / "wh")
        warehouse.ingest_store(store)
        records = warehouse.studies()
        assert len(records) == 1
        record = records[0]
        assert record["key16"] == key[:16]
        assert record["study_key"] == key
        assert record["workload"] == "sweep+poles"
        assert record["layout"]["num_samples"] == 13
        assert record["layout"]["num_chunks"] == 4

    def test_key_prefix_resolution(self, sweep_store, tmp_path):
        store, key, _ = sweep_store
        warehouse = Warehouse(tmp_path / "wh")
        report = warehouse.ingest_store(store, key=key[:16])
        assert report.chunks == 4
        with pytest.raises(WarehouseError, match="no study manifest matches"):
            warehouse.ingest_store(store, key="feedfacedeadbeef")

    def test_empty_store_raises(self, tmp_path):
        warehouse = Warehouse(tmp_path / "wh")
        with pytest.raises(WarehouseError, match="nothing to ingest"):
            warehouse.ingest_store(tmp_path / "empty-store")

    def test_unwritable_directory_raises(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the warehouse dir should go")
        with pytest.raises(WarehouseError, match="not\\s+writable"):
            Warehouse(blocker / "wh")


class TestProvenance:
    def test_chunk_sha256_matches_store_manifest(self, sweep_store, tmp_path):
        store, key, _ = sweep_store
        warehouse = Warehouse(tmp_path / "wh")
        warehouse.ingest_store(store)
        manifest_shas = {
            record["index"]: record["sha256"] for record in store.lineage(key)
        }
        rows = QueryEngine(warehouse).provenance()
        assert {row["chunk"] for row in rows} == set(manifest_shas)
        for row in rows:
            assert row["chunk_sha256"] == manifest_shas[row["chunk"]]
            assert row["source"] == "stored"  # bare ingest: no trace lineage
            assert row["worker"] == ""  # static single-process run
        assert sum(row["rows"] for row in rows) == 13

    def test_sample_matrix_mismatch_refused(self, sweep_store, tmp_path):
        store, _, _ = sweep_store
        warehouse = Warehouse(tmp_path / "wh")
        with pytest.raises(WarehouseError, match="does not match study"):
            warehouse.ingest_store(store, samples=np.zeros((13, 2)))

    def test_lineage_sources_attribute_rows(self, sweep_store, tmp_path):
        store, key, _ = sweep_store
        warehouse = Warehouse(tmp_path / "wh")
        lineage = {index: {"source": "resumed", "worker": "w7"}
                   for index in range(4)}
        warehouse.ingest_store(store, key=key, lineage=lineage)
        for row in QueryEngine(warehouse).provenance():
            assert row["source"] == "resumed"


class TestBackends:
    def test_native_round_trip_is_bitwise(self, tmp_path, rng):
        columns = {
            "x": rng.standard_normal(64),
            "i": np.arange(64, dtype=np.int64),
            "s": np.full(64, "label"),
        }
        path = tmp_path / "table-0123456789abcdef.npz"
        size = backend.write(path, columns)
        assert size == path.stat().st_size > 0
        loaded = backend.read(path)
        for name, values in columns.items():
            np.testing.assert_array_equal(loaded[name], values)
        subset = backend.read(path, columns=["x"])
        assert list(subset) == ["x"]
        np.testing.assert_array_equal(subset["x"], columns["x"])
        assert set(backend.column_names(path)) == set(columns)

    def test_parquet_partition_is_refused(self, sweep_store, tmp_path,
                                          capsys):
        """A chunk an older release wrote as Parquet is neither skipped
        as already ingested nor left out of an aggregate: re-ingest of
        its study, the queries reading it, and ``repro query`` refuse
        it in one line."""
        from repro.cli import main

        store, key, _ = sweep_store
        warehouse = Warehouse(tmp_path / "wh")
        warehouse.ingest_store(store)
        partition = warehouse.dataset_dir(key[:16]) / "shard=all/chunk=00002"
        for table in partition.glob("*.npz"):
            table.rename(table.with_suffix(".parquet"))
        engine = QueryEngine(warehouse)
        for call in (
            lambda: warehouse.ingest_store(store),
            engine.studies,
            engine.provenance,
            lambda: engine.percentile("num_poles", 50),
        ):
            with pytest.raises(WarehouseError,
                               match="re-ingest from the store") as caught:
                call()
            assert "\n" not in str(caught.value)
        for argv in (
            ["query", "ingest", str(warehouse.directory), str(store.directory)],
            ["query", "studies", str(warehouse.directory)],
            ["query", "outliers", str(warehouse.directory), "--metric",
             "num_poles"],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
            assert ".parquet" in err


@pytest.fixture(scope="module")
def transient_warehouse(model, plan, tmp_path_factory):
    """A transient study ingested via the Study directive (parameter
    columns + computed-source lineage), plus its in-RAM result."""
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

    def test_parameter_columns_present(self, transient_warehouse):
        wh_dir, _, _ = transient_warehouse
        engine = QueryEngine(wh_dir)
        files = engine.files("instances")
        names = backend.column_names(files[0])
        assert sum(name.startswith("p_") for name in names) == 2

    def test_missing_table_raises(self, transient_warehouse):
        wh_dir, _, _ = transient_warehouse
        with pytest.raises(WarehouseError, match="no 'nonesuch' partitions"):
            QueryEngine(wh_dir).metric_values("x", table="nonesuch")


class TestOutOfCore:
    """The acceptance property: aggregations over datasets larger than
    the memory budget succeed (file-at-a-time streaming), and the
    budget is a checked contract, not advisory."""

    def test_aggregation_exceeding_total_budget_succeeds(
            self, transient_warehouse):
        wh_dir, result, _ = transient_warehouse
        probe = QueryEngine(wh_dir)
        probe.metric_values("delay")
        # Budget below the dataset's total column bytes but above any
        # single partition file's: the streamed percentile must succeed
        # and match the in-RAM result exactly.
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
        assert report.skipped == 0
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
        store_dir = QueryEngine(wh_dir).studies()[0]["store"]
        study = _transient(model, plan, store_dir).warehouse(wh_dir)
        study.run()
        report = study.warehouse_report()
        assert report.chunks == 0
        assert report.skipped == 4

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
        assert "4 ingested, 0 skipped" in out
        assert main(["query", "ingest", str(warehouse), str(store)]) == 0
        out = capsys.readouterr().out
        assert "0 ingested, 4 skipped" in out

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

        code = main(["query", "studies", str(tmp_path / "wh")])
        assert code == 0  # empty warehouse: informational, not an error
        assert "no studies" in capsys.readouterr().out
        code = main(["query", "percentile", str(tmp_path / "wh"),
                     "--metric", "delay"])
        assert code == 2
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
            ingests = [event for event in job.events
                       if event["event"] == "warehouse.ingest"]
            assert len(ingests) == 1
            assert ingests[0]["chunks"] == 2
            assert ingests[0]["rows"] > 0
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
            # A cached resubmission never runs, so drive _run_job
            # directly: the study resumes from checkpoints and the
            # ingest hook must skip every already-ingested chunk.
            spec = parse_job(self._job())
            realized = realize(spec)
            job = Job("job-wh-rerun", "1" * 64, spec.canonical(),
                      study_keys=realized.study_keys,
                      fingerprints=realized.fingerprints,
                      peak_bytes=realized.peak_bytes)
            job._realized = realized
            supervisor._run_job(job)
            assert job.state == "done", job.error
            ingest = [event for event in job.events
                      if event["event"] == "warehouse.ingest"][0]
            assert ingest["chunks"] == 0
            assert ingest["skipped"] == 2
        finally:
            supervisor.shutdown(wait=True)

    def test_ingest_failure_never_fails_the_job(self, tmp_path):
        from repro.serve.supervisor import StudySupervisor

        supervisor = StudySupervisor(
            tmp_path / "store", pool_size=1, warehouse=tmp_path / "wh"
        )

        def explode(*args, **kwargs):
            raise RuntimeError("warehouse disk full")

        supervisor.warehouse.ingest_store = explode
        try:
            job = self._wait(supervisor.submit(self._job()))
            assert job.state == "done", job.error  # result still served
            errors = [event for event in job.events
                      if event["event"] == "warehouse.error"]
            assert len(errors) == 1
            assert "warehouse disk full" in errors[0]["error"]
        finally:
            supervisor.shutdown(wait=True)
