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
7. submit the same netlist with a new plan seed and a few instances:
   the job must run fresh (not ``cached``) on the system the first job
   realized -- ``serve.realization_hits`` must move by exactly 1 and
   ``serve.document_hits`` not at all,
8. a fresh ``ServeClient`` reads ``/metrics``, polls the job's status
   and reads ``/metrics`` again, all from one thread: it keeps one
   connection, so ``serve.http_connections`` moves by exactly 1 while
   ``serve.http_requests`` moves by every request it made; and a
   raw-socket request saying ``Connection: close`` is answered with
   ``Connection: close`` and the socket closed,
9. save the job's NDJSON event stream and the result document next to
   the trace for the artifact upload.

Exit code 0 means the drill passed.

Usage:  python scripts/ci_serve_e2e.py [--workdir DIR]
"""

import argparse
import json
import pathlib
import re
import signal
import socket
import subprocess
import sys
import time
from urllib.parse import urlsplit

from _drill import (
    REPO_ROOT,
    cli_environment,
    ladder_netlist,
    popen_cli,
    victim_pending_claim,
)

sys.path.insert(0, str(REPO_ROOT / "src"))

INSTANCES = 128
CHUNK = 2  # 64 claim units per study side: plenty of room for the kill
SEGMENTS = 240  # ~481-state full model: each reference solve costs real time
VICTIM = "victim"
KEPT_POLLS = 10  # status polls step 8's client makes between its reads

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
    netlist.write_text(ladder_netlist("ci-serve-e2e ladder", SEGMENTS))
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
        victim = popen_cli(
            ["work", "montecarlo", str(netlist), *WORKER_ARGS,
             "--store", str(store)],
            stdout=victim_log, stderr=victim_log,
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
            if victim_pending_claim(store, VICTIM) is None:
                time.sleep(0.002)
                continue
            victim.send_signal(signal.SIGSTOP)
            abandoned = victim_pending_claim(store, VICTIM)
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

        # -- 7: a new plan on the same net reuses its realization ------
        realizations = counter(client, "serve.realization_hits")
        hits = counter(client, "serve.document_hits")
        replanned = client.submit({
            **job_document, "workers": 1,
            "plan": {"kind": "montecarlo", "instances": 8, "seed": 1},
        })
        if replanned["cached"]:
            print(f"FAIL: a new plan was answered from cache: {replanned}")
            return 1
        final = client.wait(
            replanned["id"], timeout=max(deadline - time.monotonic(), 1.0),
            poll=0.2,
        )
        if final["state"] != "done":
            print(f"FAIL: re-planned job finished {final['state']}: "
                  f"{final['error']}")
            return 1
        realizations = counter(client, "serve.realization_hits") - realizations
        hits = counter(client, "serve.document_hits") - hits
        if (realizations, hits) != (1, 0):
            print(f"FAIL: serve.realization_hits moved by {realizations} and "
                  f"serve.document_hits by {hits} across a fresh job on the "
                  "same net (expected 1 and 0: declared on the kept system)")
            return 1
        print("re-planned job ran fresh on the kept realization: one "
              "realization-index hit, no document-index hit")

        # -- 8: one kept connection per client thread ------------------
        base = client.metrics()["counters"]
        with ServeClient(url, timeout=args.timeout) as kept:
            first = kept.metrics()["counters"]
            for _ in range(KEPT_POLLS):
                kept.job(replanned["id"])
            last = kept.metrics()["counters"]
        requests = KEPT_POLLS + 2
        moved = [last[name] - base[name] for name in
                 ("serve.http_connections", "serve.http_requests")]
        if moved != [1, requests] or last["serve.http_connections"] \
                != first["serve.http_connections"]:
            print(f"FAIL: {requests} requests from one client thread moved "
                  f"serve.http_connections by {moved[0]} and "
                  f"serve.http_requests by {moved[1]} (expected 1 and "
                  f"{requests}: one kept connection)")
            return 1
        address = urlsplit(url)
        try:
            with socket.create_connection(
                    (address.hostname, address.port), timeout=10.0) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: ci\r\n"
                             b"Connection: close\r\n\r\n")
                answer = b""
                while chunk := sock.recv(65536):
                    answer += chunk
        except socket.timeout:
            print("FAIL: the server kept a 'Connection: close' socket open")
            return 1
        head = answer.partition(b"\r\n\r\n")[0]
        if not head.startswith(b"HTTP/1.1 200 ") \
                or b"Connection: close" not in head.split(b"\r\n"):
            print(f"FAIL: 'Connection: close' request answered {head!r}")
            return 1
        print(f"{requests} requests from one client thread took one "
              "connection; a 'Connection: close' request was answered "
              "'Connection: close' and its socket closed")
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

    # -- 9: the server must actually have stolen the dead lease --------
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
