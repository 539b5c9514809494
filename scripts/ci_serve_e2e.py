#!/usr/bin/env python
"""CI end-to-end drill for the study service: kill a worker, hit the cache.

The service's operational contract is layered on the scheduler's: a
job submitted over HTTP must survive a cooperating worker dying
without cleanup, and an identical re-submission must cost nothing.
This script drills both against the real server process:

1. boot ``repro serve`` as a subprocess on an ephemeral port (with
   ``REPRO_TRACE`` set, so the server's span trace is a CI artifact),
2. submit the Monte Carlo job over HTTP (``workers: 2`` -- the server
   drains it through the lease scheduler rather than running solo),
3. start an external ``repro work montecarlo`` worker against the
   server's store with the *identical* declaration -- the wire schema
   and the CLI land on the same study fingerprints, so it joins the
   in-flight drain as a third participant,
4. SIGKILL the external worker while it provably holds a live claim on
   an unsaved chunk (SIGSTOP first, re-check, then kill -- the
   abandoned lease is guaranteed, not probabilistic),
5. the HTTP job must still complete: the server's drain participants
   steal the dead worker's lease (asserted via a ``lease.steal`` span
   in the server trace) and merge every worker's chunks,
6. re-submit the identical document: the response must come back
   ``cached``, **byte-identical**, with **zero recompute** -- the
   ``study.instances_evaluated`` counter, read from ``/metrics``, must
   not move -- and answered by the document index without being
   realized: ``serve.document_hits`` must move by exactly 1,
7. save the job's NDJSON event stream and the result document next to
   the trace for the artifact upload.

Exit code 0 means the drill passed.

Usage:  python scripts/ci_serve_e2e.py [--workdir DIR]
"""

import argparse
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

INSTANCES = 128
CHUNK = 2  # 64 claim units per study side: plenty of room for the kill
SEGMENTS = 240  # ~481-state full model: each reference solve costs real time
VICTIM = "victim"

JOB = {
    "moments": 3,
    "plan": {"kind": "montecarlo", "instances": INSTANCES, "seed": 0},
    "workload": {"kind": "montecarlo", "poles": 3},
    "chunk": CHUNK,
    "workers": 2,
}
# The identical declaration, spelled in CLI flags (defaults align:
# parameters 2, spread 0.5, variation seed 0, sigma 0.3, rank 1).
WORKER_ARGS = [
    "--moments", "3", "--instances", str(INSTANCES), "--poles", "3",
    "--chunk", str(CHUNK), "--ttl", "3", "--poll", "0.05",
    "--worker-id", VICTIM,
]


def ladder_netlist(segments: int) -> str:
    lines = [".title ci-serve-e2e ladder", "Rdrv n0 0 10", "C0 n0 0 0.02p"]
    for k in range(1, segments + 1):
        lines.append(f"R{k} n{k - 1} n{k} 25")
        lines.append(f"C{k} n{k} 0 0.02p")
    lines.append(".port in n0")
    return "\n".join(lines) + "\n"


def cli_environment(**extra):
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + environment["PYTHONPATH"]
        if environment.get("PYTHONPATH") else ""
    )
    environment.update(extra)
    return environment


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


def saved_chunk_indices(store: pathlib.Path):
    """``(key16, index)`` pairs for every chunk any manifest records."""
    saved = set()
    for manifest_path in store.glob("manifest-*.json"):
        key16 = manifest_path.name[len("manifest-"):][:16]
        try:
            manifest = read_manifest(manifest_path)
        except (OSError, ValueError):
            continue
        saved.update((key16, int(index)) for index in
                     manifest.get("chunks", {}))
    return saved


def victim_pending_claim(store: pathlib.Path):
    """A (key16, chunk) the victim has claimed but not saved, else None."""
    saved = saved_chunk_indices(store)
    for claim in store.glob("claims/*/*.claim"):
        try:
            record = json.loads(claim.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(record, dict) or record.get("worker") != VICTIM:
            continue
        pending = (claim.parent.name, record.get("index"))
        if pending not in saved:
            return pending
    return None


def counter(client, name: str) -> int:
    return client.metrics().get("counters", {}).get(name, 0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default="ci-serve-e2e")
    parser.add_argument("--timeout", type=float, default=300.0)
    args = parser.parse_args()

    workdir = pathlib.Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    netlist = workdir / "ladder.sp"
    netlist.write_text(ladder_netlist(SEGMENTS))
    store = workdir / "store"
    job_document = {"netlist": netlist.read_text(), **JOB}
    (workdir / "job.json").write_text(json.dumps(job_document, indent=1))
    deadline = time.monotonic() + args.timeout

    # -- 1: boot the server on an ephemeral port -----------------------
    server_log = open(workdir / "server.log", "w")
    server = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", str(store),
         "--port", "0", "--pool-size", "2", "--ttl", "3", "--poll", "0.05"],
        env=cli_environment(REPRO_TRACE=str(workdir / "serve.trace")),
        stdout=subprocess.PIPE, stderr=server_log, text=True,
    )
    victim = None
    try:
        url = None
        while url is None:
            if server.poll() is not None:
                print(f"FAIL: server exited {server.returncode} at startup")
                return 1
            line = server.stdout.readline()
            match = re.search(r"serving on (http://\S+)", line or "")
            if match:
                url = match.group(1)
            elif time.monotonic() > deadline:
                print("FAIL: server announced no URL within the timeout")
                return 1
        print(f"server up on {url}")

        from repro.serve.client import ServeClient

        client = ServeClient(url, timeout=args.timeout)

        # -- 2: submit the job over HTTP -------------------------------
        job = client.submit(job_document)
        print(f"submitted {job['id']} ({job['state']}), "
              f"planned peak {job['peak_bytes']} bytes")

        # -- 3: an external worker joins the drain mid-job -------------
        victim_log = open(workdir / f"{VICTIM}.log", "w")
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", "work", "montecarlo",
             str(netlist), *WORKER_ARGS, "--store", str(store)],
            env=cli_environment(), stdout=victim_log, stderr=victim_log,
            text=True,
        )

        # -- 4: SIGKILL the worker holding a live pending claim --------
        abandoned = None
        while abandoned is None:
            if time.monotonic() > deadline:
                print("FAIL: kill condition not reached within the timeout")
                return 1
            if victim.poll() is not None:
                print(f"FAIL: victim exited (code {victim.returncode}) "
                      "before the kill condition was reached")
                return 1
            if victim_pending_claim(store) is None:
                time.sleep(0.002)
                continue
            victim.send_signal(signal.SIGSTOP)
            abandoned = victim_pending_claim(store)
            if abandoned is None:
                victim.send_signal(signal.SIGCONT)  # too late; try again
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=args.timeout)
        print(f"SIGKILLed the external worker holding the lease on chunk "
              f"{abandoned[1]} of study {abandoned[0]}…")

        # -- 5: the job must complete via steal/resume -----------------
        final = client.wait(
            job["id"], timeout=max(deadline - time.monotonic(), 1.0),
            poll=0.2,
        )
        if final["state"] != "done":
            print(f"FAIL: job finished {final['state']}: {final['error']}")
            return 1
        first_bytes = client.result_bytes(job["id"])
        result = json.loads(first_bytes)["result"]
        print(f"job completed after the kill: {result['num_instances']} "
              f"instances, max pole error {result['max_error']:.3e}")
        (workdir / "result.json").write_bytes(first_bytes)
        with open(workdir / "events.ndjson", "w") as stream:
            for event in client.events(job["id"]):
                stream.write(json.dumps(event, sort_keys=True) + "\n")

        # -- 6: identical re-submission: cached, byte-identical, free --
        before = counter(client, "study.instances_evaluated")
        hits = counter(client, "serve.document_hits")
        again = client.submit(job_document)
        if not again["cached"] or again["state"] != "done":
            print(f"FAIL: re-submission not served from cache: {again}")
            return 1
        second_bytes = client.result_bytes(again["id"])
        if second_bytes != first_bytes:
            print("FAIL: cached response is not byte-identical")
            return 1
        evaluated = counter(client, "study.instances_evaluated") - before
        if evaluated != 0:
            print(f"FAIL: cached re-submission evaluated {evaluated} "
                  "instances (expected zero recompute)")
            return 1
        hits = counter(client, "serve.document_hits") - hits
        if hits != 1:
            print(f"FAIL: serve.document_hits moved by {hits} across the "
                  "re-submission (expected exactly 1: answered without "
                  "being realized)")
            return 1
        print(f"re-submission served from cache: {len(second_bytes)} "
              "byte-identical bytes, zero instances recomputed, one "
              "document-index hit")
    finally:
        if victim is not None and victim.poll() is None:
            victim.kill()
        if server.poll() is None:
            server.terminate()
            try:
                server.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                server.kill()
        server_log.close()

    # -- 7: the server must actually have stolen the dead lease --------
    from repro.obs import read_trace

    steals = [
        record["attrs"]
        for record in read_trace(workdir / "serve.trace")
        if record.get("type") == "span" and record.get("name") == "lease.steal"
    ]
    if not any(attrs.get("previous") == VICTIM for attrs in steals):
        print("FAIL: no lease.steal span naming the killed worker in the "
              "server trace -- the abandoned lease was never stolen")
        return 1
    stolen = next(a for a in steals if a.get("previous") == VICTIM)
    print(f"server stole the dead worker's lease (chunk "
          f"{stolen.get('index')}, {len(steals)} steal(s) total)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
