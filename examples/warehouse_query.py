"""Result warehouse walkthrough: ingest, query, verify provenance.

A transient Monte Carlo study runs against a durable StudyStore with
the ``warehouse`` directive attached, so every chunk checkpoint is
converted into a partitioned columnar dataset the moment the study
completes.  The script then answers the three questions the warehouse
exists for -- parametric yield against a delay limit, a tail
percentile, and the worst-corner outliers with provenance -- checks
the aggregates against the in-RAM study result exactly, re-ingests
the store to demonstrate structural idempotency (zero new rows), and
re-verifies every row's ``chunk_sha256`` against the store manifest.

The dataset is columnar ``.npz`` tables and the aggregations stream
them one partition file at a time, with nothing beyond numpy.

Run:  python examples/warehouse_query.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    LowRankReducer,
    MonteCarloPlan,
    Study,
    StudyStore,
    Warehouse,
    rc_tree,
    with_random_variations,
)
from repro.warehouse import QueryEngine

INSTANCES = 36
CHUNK = 6


def main() -> None:
    parametric = with_random_variations(rc_tree(40, seed=5), 2, seed=7)
    model = LowRankReducer(num_moments=3, rank=1).reduce(parametric)
    plan = MonteCarloPlan(num_instances=INSTANCES, seed=11)

    with tempfile.TemporaryDirectory() as root:
        store_dir = Path(root) / "store"
        wh_dir = Path(root) / "wh"

        # -- run: store checkpoints + ingest-on-completion -------------
        study = (
            Study(model)
            .scenarios(plan)
            .transient(num_steps=200)
            .chunk(CHUNK)
            .store(store_dir)
            .warehouse(wh_dir)
        )
        result = study.run()
        report = study.warehouse_report()
        print(f"ingested {report.chunks} chunks, "
              f"{report.rows_added} rows, {report.bytes_written} bytes")

        # -- query: yield, tail percentile, worst corners --------------
        engine = QueryEngine(wh_dir, memory_budget=32 * 2 ** 20)
        limit = float(np.median(result.delays))
        yield_report = engine.yield_fraction("delay", limit)
        print(f"yield at delay <= {limit:.3e}s: "
              f"{yield_report['passed']}/{yield_report['total']} "
              f"({100 * yield_report['fraction']:.1f}%)")

        p99 = engine.percentile("delay", 99.0)
        print(f"p99 delay: {p99['value']:.3e}s over {p99['count']} instances")
        assert p99["value"] == float(np.percentile(result.delays, 99.0)), \
            "warehouse percentile must equal the in-RAM result exactly"

        print("worst corners:")
        for row in engine.outliers("delay", k=3):
            print(f"  instance {row['instance']:3d}  "
                  f"delay {row['delay']:.3e}s  "
                  f"chunk {row['chunk']} ({row['source']}) "
                  f"sha {row['chunk_sha256'][:12]}...")

        # -- idempotency: re-ingest adds exactly zero rows -------------
        again = Warehouse(wh_dir).ingest_store(store_dir)
        assert again.rows_added == 0 and again.chunks == 0, \
            "re-ingest must be a structural no-op"
        print(f"re-ingest: {again.chunks} converted, "
              f"{again.skipped} skipped, {again.rows_added} rows added")

        # -- provenance: every row checks out against the manifest -----
        store = StudyStore(store_dir)
        key = store.study_keys()[0]
        manifest_shas = {
            record["index"]: record["sha256"]
            for record in store.lineage(key)
        }
        for row in engine.provenance():
            assert row["chunk_sha256"] == manifest_shas[row["chunk"]], \
                f"chunk {row['chunk']} provenance mismatch"
        print(f"provenance verified: {len(manifest_shas)} chunks match "
              "the store manifest sha256s")


if __name__ == "__main__":
    main()
