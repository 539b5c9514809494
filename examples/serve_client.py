"""The study service: submit over HTTP, stream progress, hit the cache.

``repro.serve`` puts an async HTTP front end on the Study engine: a
client POSTs a *job document* -- netlist text, a scenario plan, and a
workload in the same declaration schema the CLI uses -- and gets a job
id back.  The server admits the job against a memory budget using the
plan's peak-bytes estimate, drains it through a shared StudyStore, and
content-addresses the finished response by study fingerprint.  This
example plays the whole loop in one process:

1. boot a server on an ephemeral port (the same thing
   ``repro serve DIR`` runs),
2. submit a Monte Carlo frequency-envelope job and follow its NDJSON
   progress stream (chunk spans bridged straight from ``repro.obs``),
3. submit the *identical* document again -- it comes back ``cached``,
   byte-identical, with zero recomputation (the study never runs;
   the bytes are served from the result index on disk),
4. show the provenance every response carries: the study's content
   fingerprint and the per-chunk SHA-256 lineage,
5. push the memory budget down and watch a too-large job get rejected
   at admission with the plan's estimate in the error body.

Run:  python examples/serve_client.py
"""

import asyncio
import json
import tempfile
import threading
from pathlib import Path

from repro.serve import ServeClient, ServeClientError, StudyServer, StudySupervisor

NETLIST = """
.title serve-demo
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

JOB = {
    "netlist": NETLIST,
    "parameters": 2,
    "moments": 3,
    "plan": {"kind": "montecarlo", "instances": 8, "seed": 7},
    "workload": {"kind": "sweep", "fmin": 1e7, "fmax": 1e10, "points": 12},
    "chunk": 2,
}


def boot_server(store_dir):
    """Start a StudyServer on an ephemeral port in a daemon thread;
    returns the server, its supervisor and a ``stop()`` for both."""
    supervisor = StudySupervisor(store_dir, pool_size=2)
    server = StudyServer(supervisor, port=0)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def serve():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    if not started.wait(10.0):
        raise RuntimeError("server failed to start")

    def stop():
        """Close every connection, stop the loop and the worker pool."""
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(10.0)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10.0)
        loop.close()
        supervisor.shutdown(wait=True)

    return server, supervisor, stop


def main():
    workspace = Path(tempfile.mkdtemp(prefix="repro-serve-"))
    server, supervisor, stop = boot_server(workspace / "store")
    client = ServeClient(server.url)
    print(f"server up on {server.url}")
    print(f"healthz: {client.healthz()}")

    # -- first submission: computed ------------------------------------
    job = client.submit(JOB)
    print(f"\nsubmitted {job['id']}  state: {job['state']}")
    chunk_events = 0
    for event in client.events(job["id"]):
        if event["event"] == "study.chunk":
            chunk_events += 1
            print(f"  chunk {event['chunks_done']}/{event['num_chunks']} "
                  f"({event['instances']} instances, "
                  f"{event['wall_seconds'] * 1e3:.1f} ms)")
    assert chunk_events > 0, "progress stream carried no chunk spans"
    first = client.wait(job["id"])
    assert first["state"] == "done" and not first["cached"]
    bytes_one = client.result_bytes(job["id"])
    document = json.loads(bytes_one)
    print(f"done: {len(bytes_one)} result bytes, "
          f"{document['result']['num_chunks']} chunks over "
          f"{document['result']['num_samples']} instances")

    # -- provenance: fingerprint + per-chunk lineage -------------------
    fingerprint = document["provenance"]["fingerprints"][0]
    lineage = document["provenance"]["lineage"][fingerprint["key"]]
    print(f"study fingerprint: {fingerprint['key'][:16]}…")
    for record in lineage:
        print(f"  chunk {record['index']}: rows [{record['lo']}, "
              f"{record['hi']})  sha256 {record['sha256'][:12]}…")

    # -- second submission: served from the result index ---------------
    again = client.submit(JOB)
    assert again["cached"] and again["state"] == "done"
    bytes_two = client.result_bytes(again["id"])
    assert bytes_two == bytes_one, "cached response must be byte-identical"
    print(f"\nresubmitted as {again['id']}: served from cache, "
          f"byte-identical ({len(bytes_two)} bytes, zero recompute)")

    # -- admission control ---------------------------------------------
    supervisor.memory_budget = 64
    try:
        client.submit({**JOB, "workload": {"kind": "sweep", "points": 40}})
        raise AssertionError("over-budget job must be rejected")
    except ServeClientError as rejection:
        assert rejection.status == 413
        print(f"\nover-budget job rejected: planned peak "
              f"{rejection.body['peak_bytes']} bytes > budget "
              f"{rejection.body['memory_budget']} bytes")
    finally:
        supervisor.memory_budget = None

    client.close()
    stop()
    print("\nall service checks passed")


if __name__ == "__main__":
    main()
