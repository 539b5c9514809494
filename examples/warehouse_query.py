"""Result warehouse walkthrough: register, query in place, verify provenance.

A transient Monte Carlo study runs against a durable StudyStore with
the ``warehouse`` directive attached, so the study is registered in the
warehouse catalog the moment it completes -- no rows are copied.  The
script then answers the three questions the warehouse exists for --
parametric yield against a delay limit, a tail percentile, and the
worst-corner outliers with provenance -- straight from the store's
chunk archives, checks the aggregates against the in-RAM study result
exactly, registers the store again to show that a registration adding
nothing writes nothing, and re-verifies every chunk's SHA-256 against
the store manifest.

Every query hashes each chunk archive against its manifest record
before loading the one member it needs, with nothing beyond numpy.

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

        # -- run: store checkpoints + register-on-completion -----------
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
        print(f"registered {len(report.studies)} study with "
              f"{report.chunks} chunks ({report.bytes_written} catalog "
              "bytes, no rows copied)")

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

        # -- a registration that adds nothing writes nothing -----------
        again = Warehouse(wh_dir).register(store_dir)
        assert again.written == [] and again.bytes_written == 0, \
            "re-registration must write nothing"
        print(f"re-registration: {again.chunks} chunks visible, "
              f"{len(again.written)} catalog records written")

        # -- provenance: every chunk checks out against the manifest ---
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
