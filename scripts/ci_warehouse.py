#!/usr/bin/env python
"""CI warehouse drill: kill a worker mid-drain, register, query exactly.

The warehouse's operational contract is not "one tidy run answers
queries" (the unit and property tests cover that in-process) but "a
store assembled the ugly way -- two work-stealing workers, one of them
SIGKILLed mid-drain, the study finished by theft and later resumed --
registers as one study whose in-place aggregates equal the in-RAM
result bit for bit".  This script drills exactly that:

1. start one worker process draining a 60-instance transient Monte
   Carlo study (chunk 3, so 20 claim units) through a ``StudyStore``;
   it pauses after every chunk it checkpoints, so it needs seconds to
   drain alone,
2. SIGKILL it once its checkpoint journal holds a complete line (its
   first save replaces its manifest, every later one appends to the
   journal) while the study is provably not drained (SIGSTOP first,
   re-check, then SIGKILL -- so the drain cannot complete between the
   check and the kill); the pause makes that window certain on any
   host,
3. start the second worker only now: it must steal the dead worker's
   work, drain the store, and exit 0 with the merged result,
4. register the store through the ``repro query ingest`` CLI -- one
   catalog record, every chunk visible exactly once, the victim's
   partial manifest included,
5. resume the same study in-process with the ``warehouse`` directive
   attached: it adds the sample block and keeps the CLI's chunk
   attribution (first wins); registering again through the CLI and the
   directive must then write nothing (catalog bytes unchanged),
6. aggregate through the query engine: yield fraction, p99, and the
   full metric column (dataset order is instance order) must equal the
   in-RAM merged result exactly -- float64 bit equality, no tolerance
   -- and the ``repro query`` CLI must print the same numbers,
7. re-verify every provenance entry's ``chunk_sha256`` against the
   store manifests, require both workers in the attribution and at
   least one entry whose record the victim's journal holds,
8. flip one byte of a chunk archive: ``repro query percentile`` must
   exit 2 with one line naming the chunk.

Exit code 0 means the drill passed.  CI uploads the catalog, worker
manifests, and logs as artifacts so a failure can be debugged from the
provenance records.

Usage:  python scripts/ci_warehouse.py [--workdir DIR]
"""

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

from _drill import (
    REPO_ROOT,
    cli_environment,
    journal_entries,
    read_manifest,
    run_cli,
)

sys.path.insert(0, str(REPO_ROOT / "src"))

# Small chunks + many instances = 20 claim units, so the kill always
# lands while plenty of work remains for the survivor to steal.
INSTANCES = 60
CHUNK = 3
NUM_CHUNKS = INSTANCES // CHUNK
STEPS = 40
VICTIM = "w1"
SURVIVOR = "w2"
# Seconds the victim pauses after each checkpointed chunk: alone, it
# needs NUM_CHUNKS * VICTIM_PACE seconds to drain, against a 20 ms poll.
VICTIM_PACE = 0.25


def build_study():
    """The one study declaration every role shares.

    Workers and the resume run construct the study from this single
    function, so the fingerprint is identical by construction -- the
    drill tests the warehouse, not netlist-argument replication.
    """
    from repro import (
        LowRankReducer,
        MonteCarloPlan,
        Study,
        rc_tree,
        with_random_variations,
    )

    parametric = with_random_variations(rc_tree(30, seed=5), 2, seed=7)
    model = LowRankReducer(num_moments=3, rank=1).reduce(parametric)
    return (
        Study(model)
        .scenarios(MonteCarloPlan(num_instances=INSTANCES, seed=11))
        .transient(num_steps=STEPS)
        .chunk(CHUNK)
    )


def pause_after_each_chunk(seconds: float) -> None:
    """Sleep ``seconds`` whenever this process finishes a claimed chunk.

    A trace sink sees the ``scheduler.chunk`` span close right after
    the chunk's checkpoint is saved; sleeping there paces the drain
    without touching the study or its store.
    """
    from repro.obs import trace as obs_trace

    def sink(record):
        if record.get("name") == "scheduler.chunk":
            time.sleep(seconds)

    obs_trace.add_sink(sink)


def run_worker(store: pathlib.Path, worker_id: str) -> int:
    if worker_id == VICTIM:
        pause_after_each_chunk(VICTIM_PACE)
    study = build_study().store(store)
    result = study.work(ttl=2.0, poll=0.05, worker=worker_id)
    report = study.drain_report()
    print(
        f"# worker {worker_id}: drained={report.drained} "
        f"computed={len(report.computed)} stolen={len(report.stolen)}"
    )
    return 0 if result is not None else 3


def spawn_worker(store: pathlib.Path, worker_id: str, log_path: pathlib.Path):
    handle = open(log_path, "w")
    process = subprocess.Popen(
        [sys.executable, str(pathlib.Path(__file__).resolve()),
         "--role", "worker", "--store", str(store), "--worker-id", worker_id],
        env=cli_environment(), stdout=handle, stderr=subprocess.STDOUT,
    )
    process._log_handle = handle  # closed with the process
    return process


def worker_chunks(store: pathlib.Path, worker_id: str):
    """Chunk indexes recorded by one worker's manifest(s)."""
    indexes = set()
    for path in store.glob(f"manifest-*.worker-{worker_id}.json"):
        try:
            manifest = read_manifest(path)
        except (OSError, ValueError):
            continue
        indexes.update(int(index) for index in manifest.get("chunks", {}))
    return indexes


def worker_journal(store: pathlib.Path, worker_id: str) -> dict:
    """``{chunk index: sha256}`` of one worker's journal lines."""
    shas = {}
    for path in store.glob(f"manifest-*.worker-{worker_id}.json"):
        try:
            entries = journal_entries(path)
        except (OSError, ValueError):
            continue
        shas.update((entry["index"], entry["record"]["sha256"])
                    for entry in entries)
    return shas


def fail(message: str, *logs: pathlib.Path):
    print(f"FAIL: {message}")
    for log in logs:
        if log.exists():
            print(f"--- {log.name} ---")
            print(log.read_text())
    sys.exit(1)


def kill_mid_drain(store: pathlib.Path, process, log: pathlib.Path):
    """SIGKILL the victim once its journal holds a line, before drain."""
    deadline = time.monotonic() + 180.0
    while time.monotonic() < deadline:
        if process.poll() is not None:
            fail("victim exited before the kill landed", log)
        victim = worker_chunks(store, VICTIM)
        if worker_journal(store, VICTIM) and len(victim) < NUM_CHUNKS:
            # Freeze, re-check under the freeze, then kill: the study
            # cannot drain between the check and the SIGKILL.
            os.kill(process.pid, signal.SIGSTOP)
            victim = worker_chunks(store, VICTIM)
            if worker_journal(store, VICTIM) and len(victim) < NUM_CHUNKS:
                os.kill(process.pid, signal.SIGKILL)
                process.wait(timeout=30.0)
                print(
                    f"killed {VICTIM} with {len(victim)} chunk(s) saved, "
                    f"{NUM_CHUNKS - len(victim)} still pending"
                )
                return victim
            os.kill(process.pid, signal.SIGCONT)
        time.sleep(0.02)
    fail("timed out waiting for a mid-drain kill window", log)


def run_driver(workdir: pathlib.Path) -> int:
    import numpy as np

    from repro import StudyStore
    from repro.warehouse import QueryEngine

    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    store = workdir / "store"
    wh = workdir / "wh"
    logs = {
        worker: workdir / f"worker-{worker}.log"
        for worker in (VICTIM, SURVIVOR)
    }

    # -- 1/2: a paced worker, SIGKILLed mid-drain ----------------------
    processes = {VICTIM: spawn_worker(store, VICTIM, logs[VICTIM])}
    try:
        victim_chunks = kill_mid_drain(
            store, processes[VICTIM], logs[VICTIM]
        )
        # -- 3: the survivor must steal the rest and drain -------------
        survivor = processes[SURVIVOR] = spawn_worker(
            store, SURVIVOR, logs[SURVIVOR]
        )
        try:
            returncode = survivor.wait(timeout=600.0)
        except subprocess.TimeoutExpired:
            survivor.kill()
            fail("survivor did not drain the store", logs[SURVIVOR])
        if returncode != 0:
            fail(f"survivor exited {returncode}, wanted a full drain",
                 logs[SURVIVOR])
    finally:
        for process in processes.values():
            if process.poll() is None:
                process.kill()
            process._log_handle.close()
    survivor_chunks = worker_chunks(store, SURVIVOR)
    if not victim_chunks or not survivor_chunks:
        fail(f"both workers must checkpoint: victim={sorted(victim_chunks)} "
             f"survivor={sorted(survivor_chunks)}", *logs.values())
    if victim_chunks | survivor_chunks != set(range(NUM_CHUNKS)):
        fail("worker manifests do not cover the study", *logs.values())
    print(f"survivor drained: victim saved {len(victim_chunks)} chunk(s), "
          f"survivor {len(survivor_chunks)}")

    # -- 4: CLI registration -- one record, every chunk once ----------
    ingest = run_cli(["query", "ingest", str(wh), str(store)],
                     capture_output=True)
    (workdir / "ingest.log").write_text(ingest.stdout + ingest.stderr)
    if ingest.returncode != 0:
        fail(f"repro query ingest exited {ingest.returncode}",
             workdir / "ingest.log")
    if f"chunks:  {NUM_CHUNKS} registered" not in ingest.stdout \
            or "catalog: 1 written, 0 unchanged" not in ingest.stdout:
        fail(f"expected one study with {NUM_CHUNKS} chunks registered, "
             f"got:\n{ingest.stdout}")
    print(ingest.stdout.splitlines()[0])

    store_handle = StudyStore(store)
    keys = store_handle.study_keys()
    if len(keys) != 1:
        fail(f"expected one study in the store, found {keys}")
    key = keys[0]
    catalog = sorted(path.name for path in (wh / "catalog").iterdir())
    if catalog != [f"{key[:16]}.json"]:
        fail(f"the catalog must hold exactly this study's record: {catalog}")
    record_path = wh / "catalog" / catalog[0]
    first = json.loads(record_path.read_text())
    print(f"catalog: {', '.join(catalog)}")

    # -- 5: resume with the directive, then re-register both ways ------
    # The directive adds the sample block; the CLI's chunk attribution
    # stays (first wins).  After that, neither path writes anything.
    study = build_study().store(store).warehouse(wh)
    result = study.run()
    report = study.warehouse_report()
    record = json.loads(record_path.read_text())
    if report.chunks != NUM_CHUNKS or record["samples"] is None \
            or record["sources"] != first["sources"]:
        fail(f"directive registration must add only the sample block, got "
             f"{report}")
    if len(result.delays) != INSTANCES:
        fail(f"merged result has {len(result.delays)} instances")
    catalog_bytes = {path: path.read_bytes()
                     for path in sorted(wh.rglob("*")) if path.is_file()}
    again = run_cli(["query", "ingest", str(wh), str(store)],
                    capture_output=True)
    if again.returncode != 0 \
            or "catalog: 0 written, 1 unchanged" not in again.stdout:
        fail(f"CLI re-registration must write nothing, got:\n"
             f"{again.stdout}{again.stderr}")
    rerun = build_study().store(store).warehouse(wh)
    rerun.run()
    if rerun.warehouse_report().written:
        fail(f"directive re-registration must write nothing, got "
             f"{rerun.warehouse_report()}")
    after = {path: path.read_bytes()
             for path in sorted(wh.rglob("*")) if path.is_file()}
    if after != catalog_bytes:
        fail("re-registration changed the catalog bytes")
    print(f"re-registration (CLI and directive): {report.chunks} chunks, "
          "catalog bytes unchanged")

    # -- 6: exact aggregation against the in-RAM result ----------------
    engine = QueryEngine(wh)
    # Dataset order is (study, chunk), so the column is in instance
    # order; every outlier row is also pinned to its instance.
    values = engine.metric_values("delay")
    if not np.array_equal(values, result.delays):
        fail("warehouse metric column differs from the in-RAM delays")
    for row in engine.outliers("delay", k=INSTANCES):
        if row["delay"] != result.delays[row["instance"]]:
            fail(f"instance {row['instance']} delay differs from the "
                 f"in-RAM result: {row['delay']!r}")

    limit = float(np.median(result.delays))
    yielded = engine.yield_fraction("delay", limit)
    passed = int(np.count_nonzero(result.delays <= limit))
    if (yielded["passed"], yielded["total"]) != (passed, INSTANCES):
        fail(f"yield mismatch: {yielded} vs {passed}/{INSTANCES}")

    p99 = engine.percentile("delay", 99.0)
    reference = float(np.percentile(result.delays, 99.0))
    if p99["value"] != reference:  # bitwise, not a tolerance
        fail(f"p99 mismatch: {p99['value']!r} != {reference!r}")
    print(f"warehouse aggregates match in-RAM result exactly "
          f"(yield {yielded['passed']}/{yielded['total']}, "
          f"p99 {p99['value']:.6e}s)")

    cli_yield = run_cli(
        ["query", "yield", str(wh), "--metric", "delay",
         "--limit", repr(limit)],
        capture_output=True,
    )
    if cli_yield.returncode != 0:
        fail(f"repro query yield exited {cli_yield.returncode}:\n"
             f"{cli_yield.stderr}")
    document = json.loads(cli_yield.stdout)
    if (document["passed"], document["total"]) != (passed, INSTANCES):
        fail(f"CLI yield mismatch: {document}")
    print(f"repro query yield agrees: {document['passed']}/"
          f"{document['total']}")

    # -- 7: provenance -- sha256 per chunk, both workers attributed ----
    manifest_shas = {
        record["index"]: record["sha256"]
        for record in store_handle.lineage(key)
    }
    rows = engine.provenance()
    if [row["chunk"] for row in rows] != list(range(NUM_CHUNKS)):
        fail(f"every chunk must be visible exactly once, got "
             f"{[row['chunk'] for row in rows]}")
    for row in rows:
        if row["chunk_sha256"] != manifest_shas[row["chunk"]]:
            fail(f"chunk {row['chunk']} provenance sha mismatch")
    workers = {row["worker"] for row in rows}
    if workers != {VICTIM, SURVIVOR}:
        fail(f"provenance must attribute both workers, got {workers}")
    journaled = worker_journal(store, VICTIM)
    from_journal = sum(
        journaled.get(row["chunk"]) == row["chunk_sha256"] for row in rows
    )
    if not from_journal:
        fail("no verified chunk came from the victim's journal; the kill "
             "did not drill the journal")
    print(f"provenance verified: {len(rows)} chunks match the store "
          f"manifests ({from_journal} from journal lines), workers "
          f"{sorted(workers)}")

    # -- 8: a corrupt chunk stops the query in one line ----------------
    record = store_handle.chunk_records(key)[NUM_CHUNKS // 2]
    if len(record) != 1:
        fail(f"chunk {NUM_CHUNKS // 2} has {len(record)} copies; the "
             "corruption step needs exactly one")
    archive = store / record[0]["file"]
    data = bytearray(archive.read_bytes())
    data[len(data) // 2] ^= 0x01
    archive.write_bytes(bytes(data))
    corrupt = run_cli(["query", "percentile", str(wh), "--metric", "delay"],
                      capture_output=True)
    (workdir / "corrupt.log").write_text(corrupt.stdout + corrupt.stderr)
    if corrupt.returncode != 2 or corrupt.stdout \
            or corrupt.stderr.count("\n") != 1 \
            or f"chunk {NUM_CHUNKS // 2} " not in corrupt.stderr:
        fail("a corrupt chunk must fail repro query percentile with exit "
             "2 and one line naming the chunk", workdir / "corrupt.log")
    print(f"corrupt chunk refused: {corrupt.stderr.strip()}")

    print("PASS: warehouse drill complete")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default="ci-warehouse",
                        type=pathlib.Path)
    parser.add_argument("--role", choices=("driver", "worker"),
                        default="driver", help=argparse.SUPPRESS)
    parser.add_argument("--store", type=pathlib.Path,
                        help=argparse.SUPPRESS)
    parser.add_argument("--worker-id", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role == "worker":
        return run_worker(args.store, args.worker_id)
    return run_driver(args.workdir.resolve())


if __name__ == "__main__":
    sys.exit(main())
