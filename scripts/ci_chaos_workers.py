#!/usr/bin/env python
"""CI chaos drill: SIGKILL one of three work-stealing workers mid-study.

The scheduler's operational contract is not "leases round-trip" (the
unit and property tests cover that in-process) but "a worker that
**dies without cleanup** -- SIGKILL, no atexit, no release -- cannot
stall or corrupt a shared study".  This script drills exactly that
against the CLI:

1. run a one-shot ``repro batch`` on a generated RC-ladder netlist as
   the byte-level reference,
2. start three ``repro work batch`` workers against one shared
   ``--store`` (small chunks, so the study is hundreds of claim units),
3. SIGKILL one worker the moment its checkpoint journal holds a
   complete line (its first save replaces its manifest, every later
   one appends to the journal) AND it holds a live claim on a chunk no
   manifest records yet
   (SIGSTOP first, re-check, then SIGKILL -- so the claim cannot slip
   to released or saved between the check and the kill), guaranteeing
   an abandoned lease on a pending chunk,
4. wait for the survivors: they must steal the dead worker's lease
   (same-host dead-pid fast path), drain the store, and each print the
   merged envelope CSV,
5. diff both survivors' CSVs against the one-shot run: byte-identical,
6. re-verify every chunk archive in every worker manifest (and the
   journal a killed worker left) against its recorded SHA-256 --
   recomputed here, independently of the library --
   check the union of chunk records covers the whole study, and that
   at least one verified record came from a journal line,
7. read the survivors' JSONL traces and require a ``lease.steal`` span:
   the drill must actually have exercised stealing, not just luck.

Exit code 0 means the drill passed.  CI uploads the worker manifests,
traces, and logs as artifacts so a failure can be debugged from the
provenance records.

Usage:  python scripts/ci_chaos_workers.py [--workdir DIR]
"""

import argparse
import pathlib
import signal
import sys
import time

from _drill import (
    REPO_ROOT,
    csv_lines,
    journal_entries,
    ladder_netlist,
    popen_cli,
    read_manifest,
    run_cli,
    sha256_file,
    victim_pending_claim,
)

# Small chunks + hundreds of instances = many claim units, so the kill
# always lands while plenty of work remains for the survivors.
STUDY_ARGS = [
    "--plan", "montecarlo", "--instances", "240", "--chunk", "2",
    "--points", "24", "--moments", "3", "--seed", "3",
]
WORK_ARGS = ["--ttl", "5", "--poll", "0.05"]
WORKERS = ("w1", "w2", "w3")
VICTIM = "w1"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default="ci-chaos-workers")
    parser.add_argument("--timeout", type=float, default=300.0)
    args = parser.parse_args()

    workdir = pathlib.Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    netlist = workdir / "ladder.sp"
    netlist.write_text(ladder_netlist("ci-chaos-workers ladder", 40))
    store = workdir / "store"

    # -- 1: one-shot reference -----------------------------------------
    one_shot = run_cli(["batch", str(netlist), *STUDY_ARGS], capture_output=True)
    if one_shot.returncode != 0:
        print(f"FAIL: one-shot run exited {one_shot.returncode}:\n{one_shot.stderr}")
        return 1
    reference = csv_lines(one_shot.stdout)
    print(f"one-shot reference: {len(reference) - 1} envelope rows")

    # -- 2: three workers against one store ----------------------------
    processes = {}
    logs = {}
    for worker in WORKERS:
        out = open(workdir / f"{worker}.csv", "w")
        err = open(workdir / f"{worker}.log", "w")
        logs[worker] = (out, err)
        processes[worker] = popen_cli(
            ["work", "batch", str(netlist), *STUDY_ARGS,
             "--store", str(store), "--worker-id", worker, *WORK_ARGS,
             "--trace", str(workdir / f"{worker}.trace")],
            stdout=out, stderr=err,
        )

    # -- 3: SIGKILL the victim with a checkpoint behind it and a live
    #       claim on an unsaved chunk.  SIGSTOP freezes the victim
    #       before the final check, so the claim cannot be released or
    #       the chunk saved between the check and the kill: the
    #       abandoned pending lease is guaranteed, not probabilistic.
    victim = processes[VICTIM]
    deadline = time.monotonic() + args.timeout
    try:
        abandoned = None
        while abandoned is None:
            if victim.poll() is not None:
                print(f"FAIL: victim exited (code {victim.returncode}) before "
                      "the kill condition was reached")
                return 1
            if time.monotonic() > deadline:
                print("FAIL: kill condition not reached within the timeout")
                return 1
            journaled = any(
                journal_entries(path)
                for path in store.glob(f"manifest-*.worker-{VICTIM}.json")
            )
            if not (journaled and victim_pending_claim(store, VICTIM) is not None):
                time.sleep(0.002)
                continue
            victim.send_signal(signal.SIGSTOP)
            abandoned = victim_pending_claim(store, VICTIM)
            if abandoned is None:
                victim.send_signal(signal.SIGCONT)  # too late; try again
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=args.timeout)
        print(f"SIGKILLed {VICTIM} holding the lease on pending chunk "
              f"{abandoned[1]} (exit {victim.returncode})")

        # -- 4: survivors must steal the lease and drain ---------------
        for worker in WORKERS:
            if worker == VICTIM:
                continue
            returncode = processes[worker].wait(
                timeout=max(deadline - time.monotonic(), 1.0)
            )
            if returncode != 0:
                print(f"FAIL: worker {worker} exited {returncode}; see "
                      f"{workdir / (worker + '.log')}")
                return 1
    finally:
        for worker, proc in processes.items():
            if proc.poll() is None:
                proc.kill()
        for out, err in logs.values():
            out.close()
            err.close()

    # -- 5: both survivors' merged CSVs are byte-identical -------------
    for worker in WORKERS:
        if worker == VICTIM:
            continue
        merged = csv_lines((workdir / f"{worker}.csv").read_text())
        if merged != reference:
            print(f"FAIL: worker {worker}'s merged CSV differs from the "
                  "one-shot run")
            return 1
    print("both survivors' merged CSVs are byte-identical to the one-shot run")

    # -- 6: independent verification of every chunk record -------------
    manifests = sorted(store.glob("manifest-*.json"))
    if not manifests:
        print("FAIL: no manifests in the store")
        return 1
    covered = set()
    total = None
    verified = 0
    from_journal = 0
    for manifest_path in manifests:
        manifest = read_manifest(manifest_path)
        journaled = {str(entry["index"])
                     for entry in journal_entries(manifest_path)}
        total = manifest["layout"]["num_chunks"]
        for index, record in manifest["chunks"].items():
            archive = store / record["file"]
            if not archive.exists():
                print(f"FAIL: chunk {index} recorded in {manifest_path.name} "
                      f"but {record['file']} is missing")
                return 1
            if sha256_file(archive) != record["sha256"]:
                print(f"FAIL: chunk {index} ({record['file']}) does not "
                      "match its manifest checksum")
                return 1
            covered.add(int(index))
            verified += 1
            from_journal += index in journaled
    if covered != set(range(total)):
        print(f"FAIL: chunk records cover {len(covered)}/{total} chunks")
        return 1
    if not from_journal:
        print("FAIL: no verified chunk record came from a journal line; the "
              "kill did not drill the journal")
        return 1
    print(f"store is consistent: {verified} chunk records across "
          f"{len(manifests)} worker manifests cover all {total} chunks "
          f"({from_journal} from journal lines), all checksums verified")

    # -- 7: the survivors must actually have stolen the dead lease -----
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.obs import read_trace  # zero-dependency

    steals = []
    for worker in WORKERS:
        if worker == VICTIM:
            continue
        for record in read_trace(workdir / f"{worker}.trace"):
            if record.get("type") == "span" and record.get("name") == "lease.steal":
                steals.append((worker, record["attrs"]))
    if not steals:
        print("FAIL: no lease.steal span in any survivor trace -- the "
              "abandoned lease was never stolen")
        return 1
    thief, attrs = steals[0]
    print(f"abandoned lease was stolen: {thief} took chunk "
          f"{attrs.get('index')} from {attrs.get('previous')} "
          f"({len(steals)} steal(s) total)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
