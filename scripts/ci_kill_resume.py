#!/usr/bin/env python
"""CI crash-recovery drill: kill a store-backed study mid-stream, resume it.

The durable-study contract that matters operationally is not "the happy
path round-trips" (the unit and property tests cover that in-process)
but "a **real SIGTERM** at an arbitrary instant leaves a store a fresh
process can finish from".  This script drills exactly that against the
CLI:

1. run ``repro batch --store`` on a generated RC-ladder netlist with a
   small chunk size (hundreds of checkpoint units),
2. SIGTERM the process the moment the first checkpoint manifest
   appears on disk,
3. verify the store is consistent (1 <= completed chunks < total, every
   chunk archive the manifest or its journal records present and
   matching its recorded SHA-256 -- recomputed here, independently of
   the library),
4. ``--resume`` the study to completion in a new process, with a JSONL
   span trace (``--trace``) recording the run,
5. diff the resumed envelope CSV against a one-shot run without a
   store: they must be byte-identical,
6. reconstruct the per-chunk lineage from the resumed trace and check
   every chunk's SHA-256 against the manifest record bit-for-bit --
   the trace and the store must tell the same provenance story.

Exit code 0 means the drill passed.  CI uploads the store manifests
and the resume trace as artifacts so a failure can be debugged from
the provenance records.

Usage:  python scripts/ci_kill_resume.py [--workdir DIR]
"""

import argparse
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Small chunks + many instances = hundreds of checkpoint units, so the
# SIGTERM (sent at first-manifest-sighting) always lands mid-stream.
STUDY_ARGS = [
    "--plan", "montecarlo", "--instances", "600", "--chunk", "2",
    "--points", "48", "--moments", "3", "--seed", "3",
]


def ladder_netlist(segments: int) -> str:
    lines = [".title ci-kill-resume ladder", "Rdrv n0 0 10", "C0 n0 0 0.02p"]
    for k in range(1, segments + 1):
        lines.append(f"R{k} n{k - 1} n{k} 25")
        lines.append(f"C{k} n{k} 0 0.02p")
    lines.append(".port in n0")
    return "\n".join(lines) + "\n"


def run_cli(arguments, **kwargs):
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + environment["PYTHONPATH"] if environment.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *arguments],
        env=environment, text=True, **kwargs,
    )


def popen_cli(arguments, stdout):
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + environment["PYTHONPATH"] if environment.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *arguments],
        env=environment, stdout=stdout, stderr=subprocess.STDOUT, text=True,
    )


def csv_lines(text: str):
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def read_manifest(path: pathlib.Path) -> dict:
    """Parse a store manifest with its journal's complete lines merged
    over its ``chunks`` (later lines win), independently of the library.

    A run's later checkpoints are lines of ``<manifest>.journal`` until
    the run compacts them, so a killed run's chunks are only there.  The
    journal is read first, as the store does (a compaction in between
    has put its lines in the manifest); bytes after its last newline are
    an append that never returned.
    """
    journal = path.with_name(path.name + ".journal")
    try:
        lines = journal.read_bytes().split(b"\n")[:-1]
    except FileNotFoundError:
        lines = []
    manifest = json.loads(path.read_text())
    for line in lines:
        entry = json.loads(line)
        manifest.setdefault("chunks", {})[str(entry["index"])] = entry["record"]
    return manifest


def sha256_file(path: pathlib.Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default="ci-kill-resume")
    parser.add_argument("--timeout", type=float, default=120.0)
    args = parser.parse_args()

    workdir = pathlib.Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    netlist = workdir / "ladder.sp"
    netlist.write_text(ladder_netlist(40))
    store = workdir / "store"
    base_cmd = ["batch", str(netlist), *STUDY_ARGS, "--store", str(store)]

    # -- 1+2: start the study, SIGTERM at the first checkpoint ---------
    with open(workdir / "killed-run.log", "w") as log:
        victim = popen_cli(base_cmd, stdout=log)
        deadline = time.monotonic() + args.timeout
        try:
            while not list(store.glob("manifest-*.json")):
                if victim.poll() is not None:
                    print("FAIL: study finished before any checkpoint was seen")
                    return 1
                if time.monotonic() > deadline:
                    print("FAIL: no checkpoint appeared within the timeout")
                    return 1
                time.sleep(0.002)
            victim.send_signal(signal.SIGTERM)
            returncode = victim.wait(timeout=args.timeout)
        finally:
            if victim.poll() is None:
                victim.kill()
    if returncode == 0:
        print("FAIL: SIGTERM landed after the study completed; nothing was drilled")
        return 1
    print(f"killed the study mid-stream (exit {returncode})")

    # -- 3: independent store consistency check ------------------------
    manifest_path = next(iter(store.glob("manifest-*.json")))
    manifest = read_manifest(manifest_path)
    completed = manifest["chunks"]
    total = manifest["layout"]["num_chunks"]
    if not 1 <= len(completed) < total:
        print(f"FAIL: expected a partial store, found {len(completed)}/{total} chunks")
        return 1
    for index, record in completed.items():
        archive = store / record["file"]
        if not archive.exists():
            print(f"FAIL: chunk {index} recorded but {record['file']} is missing")
            return 1
        if sha256_file(archive) != record["sha256"]:
            print(f"FAIL: chunk {index} does not match its manifest checksum")
            return 1
    print(f"store is consistent: {len(completed)}/{total} chunks checkpointed, "
          "all checksums verified")

    # -- 4: resume to completion in a fresh process, traced ------------
    trace_path = workdir / "resume.trace"
    resumed = run_cli(
        base_cmd + ["--resume", "--trace", str(trace_path)], capture_output=True
    )
    if resumed.returncode != 0:
        print(f"FAIL: resume exited {resumed.returncode}:\n{resumed.stderr}")
        return 1

    # -- 5: byte-identical envelope vs a one-shot run ------------------
    one_shot = run_cli(
        ["batch", str(netlist), *STUDY_ARGS], capture_output=True
    )
    if one_shot.returncode != 0:
        print(f"FAIL: one-shot run exited {one_shot.returncode}")
        return 1
    if csv_lines(resumed.stdout) != csv_lines(one_shot.stdout):
        print("FAIL: resumed envelope CSV differs from the one-shot run")
        return 1
    print("resumed study is byte-identical to the one-shot run "
          f"({len(csv_lines(one_shot.stdout)) - 1} envelope rows)")

    # -- 6: trace lineage vs manifest, bit-for-bit ---------------------
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.obs import chunk_lineage, read_trace  # zero-dependency

    lineage = chunk_lineage(read_trace(trace_path))
    final_manifest = json.loads(manifest_path.read_text())
    recorded = {int(i): r["sha256"] for i, r in final_manifest["chunks"].items()}
    if len(lineage) != total:
        print(f"FAIL: resumed trace covers {len(lineage)}/{total} chunks")
        return 1
    for entry in lineage:
        if entry["sha256"] != recorded.get(entry["index"]):
            print(f"FAIL: chunk {entry['index']} trace sha256 {entry['sha256']} "
                  f"!= manifest {recorded.get(entry['index'])}")
            return 1
    sources = {entry["source"] for entry in lineage}
    if sources != {"resumed", "computed"}:
        print(f"FAIL: a mid-stream kill must resume some chunks and compute "
              f"the rest; trace says {sorted(sources)}")
        return 1
    resumed_count = sum(1 for e in lineage if e["source"] == "resumed")
    print(f"trace lineage matches the manifest: {total} chunks "
          f"({resumed_count} resumed, {total - resumed_count} computed), "
          "all SHA-256s bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
