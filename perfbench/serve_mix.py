"""serve-mix: ``python -m repro serve`` under a closed loop of two clients.

The server runs as a subprocess with ``--cache``, ``--warehouse`` and
the default pool of 2.  Each client thread owns three ~300-node
netlists (disjoint from the other client's).  A round has two phases,
each ending when both clients are done: both submit one fresh
128-instance transient job (chunk 32), then both re-submit five of
their earlier jobs, which the result index answers.  A calibration
block runs after each phase, while the server is idle.

Latencies run from POST to result bytes in hand.  Completion is
detected by polling ``GET /jobs/{id}`` every 5 ms; the residue between
the server's ``finished`` stamp and the client's observation is reported
as ``serve.detect_lag_s``.

Known hazard kept out of the load on purpose: two clients whose first
submissions carry the *same* netlist race in ``ModelCache.store``, whose
scratch file name ``.{key}.{pid}.tmp.npz`` is shared by the server's
threads; one POST then fails with HTTP 500 ``FileNotFoundError``.  The
README has the reproduction recipe.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from common import (
    Meter,
    Operations,
    counter_delta,
    per_layer_metrics,
    proc_peak_rss_mib,
    rc_tree_text,
    self_times,
    tail_value,
    trace_overhead,
)
from library import COUNTERS, CheckFailed, check_error, reference_error, rep_seed
from repro.obs import read_trace
from repro.serve.client import ServeClient
from repro.warehouse import QueryEngine

NODES = 300
MOMENTS = 3
INSTANCES = 128
CHUNK = 32
NETS_PER_CLIENT = 3
CACHED_PER_ROUND = 5
POLL_S = 0.005
SETUP_SPAWNS = 5
QUERY_STUDIES = 8
QUERY_EVERY = 2        # rounds between timed query batches
QUERY_REPEATS = 4      # query passes per timed batch
START_TIMEOUT_S = 60.0


class Server:
    """One ``repro serve`` subprocess with its own store, cache and warehouse."""

    def __init__(self, root: Path, directory: Path, trace: bool):
        directory.mkdir(parents=True, exist_ok=True)
        self.directory = directory
        self.warehouse = directory / "warehouse"
        self.trace_path = directory / "server.trace" if trace else None
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        env.pop("REPRO_TRACE", None)
        if trace:
            env["REPRO_TRACE"] = str(self.trace_path)
        self.log = open(directory / "server.out", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             str(directory / "store"), "--port", "0",
             "--cache", str(directory / "cache"),
             "--warehouse", str(self.warehouse), "--pool-size", "2"],
            stdout=self.log, stderr=subprocess.STDOUT, env=env, cwd=str(root),
        )
        try:
            self.url = self._wait_healthy(directory / "server.out")
        except BaseException:
            self.stop()
            raise
        self.client = ServeClient(self.url, timeout=60.0)

    def _wait_healthy(self, log_path: Path) -> str:
        deadline = time.monotonic() + START_TIMEOUT_S
        url = None
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: "
                    + log_path.read_text()[-500:])
            if url is None:
                for line in log_path.read_text().splitlines():
                    if line.startswith("# serving on "):
                        url = line.split()[3]
            if url is not None:
                try:
                    ServeClient(url, timeout=5.0).healthz()
                    return url
                except OSError:
                    pass
            time.sleep(0.002)
        raise RuntimeError("server did not become healthy in time")

    def peak_rss_mib(self) -> float:
        return proc_peak_rss_mib(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class Client:
    """One closed-loop client: its own netlists, jobs and results."""

    def __init__(self, index: int, seed: int):
        self.index = index
        self.seed = seed
        self.nets = [
            rc_tree_text(NODES, rep_seed(seed, 1000 * (index + 1) + k),
                         title=f"client{index}-net{k}")
            for k in range(NETS_PER_CLIENT)
        ]
        self.jobs = 0
        # Per server URL: (document, first result bytes, study keys).
        self.done = defaultdict(list)

    def next_document(self) -> dict:
        k = self.jobs % NETS_PER_CLIENT
        plan_seed = rep_seed(self.seed, 100000 * (self.index + 1) + self.jobs)
        self.jobs += 1
        return {
            "netlist": self.nets[k], "parameters": 2, "spread": 0.5,
            "variation_seed": k, "moments": MOMENTS, "rank": 1,
            "plan": {"kind": "montecarlo", "instances": INSTANCES,
                     "sigma": 0.3, "seed": plan_seed % 2**31},
            "workload": {"kind": "transient", "steps": 200, "output": 1,
                         "waveform": {"kind": "ramp", "rise_time": 1e-10}},
            "chunk": CHUNK,
        }

    def fresh(self, server: Server) -> dict:
        """POST a fresh job, poll to completion, fetch the result."""
        client = server.client
        document = self.next_document()
        t0 = time.perf_counter()
        job = client.submit(document)
        t1 = time.perf_counter()
        if job["cached"] or job["state"] not in ("queued", "running", "done"):
            raise CheckFailed(f"fresh job answered {job['state']}, cached={job['cached']}")
        while True:
            status = client.job(job["id"])
            if status["state"] in ("done", "failed", "rejected"):
                observed = time.time()
                break
            time.sleep(POLL_S)
        t2 = time.perf_counter()
        data = client.result_bytes(job["id"])
        t3 = time.perf_counter()
        if status["state"] != "done":
            raise CheckFailed(f"job {job['id']} {status['state']}: {status['error']}")
        result = json.loads(data)
        keys = [fp["key"] for fp in result["provenance"]["fingerprints"]]
        if keys != status["study_keys"] or sorted(result["provenance"]["lineage"]) \
                != sorted(status["study_keys"]):
            raise CheckFailed("result document's study keys differ from the job's")
        if result["result"]["num_samples"] != INSTANCES:
            raise CheckFailed("result covers the wrong number of instances")
        self.done[server.url].append((document, data, status["study_keys"]))
        return {
            "latency": t3 - t0, "submit": t1 - t0, "result": t3 - t2,
            "queue_wait": status["started"] - status["created"],
            "run": status["finished"] - status["started"],
            "detect_lag": observed - status["finished"],
        }

    def cached(self, server: Server) -> dict:
        """Re-submit earlier jobs; each must come back byte-identical."""
        client = server.client
        done = self.done[server.url]
        entries = [done[(self.jobs + i) % len(done)] for i in range(CACHED_PER_ROUND)]
        serve_time = 0.0
        t0 = time.perf_counter()
        for document, first, keys in entries:
            s0 = time.perf_counter()
            job = client.submit(document)
            s1 = time.perf_counter()
            if job["state"] != "done" or not job["cached"]:
                raise CheckFailed(f"re-submission answered {job['state']}")
            data = client.result_bytes(job["id"])
            serve_time += (s1 - s0) + (time.perf_counter() - s1)
            if data != first:
                raise CheckFailed("cached result bytes differ from the first response")
            if job["study_keys"] != keys:
                raise CheckFailed("cached job's study keys differ")
        total = time.perf_counter() - t0
        return {"batch": total, "serve_share": serve_time / total}


class ServeMix(Operations):
    """The round loop, its checks, and the metrics it reports."""

    def __init__(self, root: Path, work: Path, seed: int):
        super().__init__()
        self.root = root
        self.work = work
        self.seed = seed
        self.layers = defaultdict(list)
        self.files_scanned = 0
        self.meter = Meter()

    def spawn(self, label: str, trace: bool) -> Server:
        self.attempted += 1
        return Server(self.root, self.work / label, trace)

    def run(self, seconds: float, trace: bool) -> dict:
        servers = []
        try:
            if not trace:
                # Cold set-up, several times: spawn -> first healthy /healthz.
                for k in range(SETUP_SPAWNS - 1):
                    server = self.meter.time("setup", lambda: self.spawn(f"s{k}", False))
                    server.stop()
            servers.append(self.meter.time("setup", lambda: self.spawn("main", False)))
            if trace:
                servers.append(self.spawn("traced", True))
            return self.loop(servers, seconds, trace)
        finally:
            for server in servers:
                server.stop()

    def loop(self, servers, seconds: float, trace: bool) -> dict:
        clients = [Client(i, self.seed) for i in range(2)]
        pool = ThreadPoolExecutor(max_workers=2)
        try:
            # Warm-up (untimed): one fresh job per netlist, per server.
            for server in servers:
                for _ in range(NETS_PER_CLIENT):
                    self.phase(pool, clients, lambda c: c.fresh(server), 1)
            model_err = self.attempt("check.accuracy", lambda: reference_error(
                NODES, 2, 0.5, MOMENTS, 0.3))
            if model_err is None:
                model_err = 1.0
            else:
                self.attempt("check.accuracy.bound", lambda: check_error(model_err, 0.1))
            before = [server.client.metrics() for server in servers]
            query_keys, rounds = [], 0
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline:
                server = servers[rounds % len(servers)]
                traced = server.trace_path is not None
                tag = ".traced" if traced else ""
                fresh, _, block = self.meter.bracket(
                    lambda: self.phase(pool, clients, lambda c: c.fresh(server), 1))
                for sample in fresh:
                    self.meter.add("job" + tag, sample["latency"], block)
                    if traced:
                        for name in ("submit", "queue_wait", "run", "detect_lag", "result"):
                            self.layers[f"serve.{name}_s"].append(sample[name])
                cached, _, block = self.meter.bracket(lambda: self.phase(
                    pool, clients, lambda c: c.cached(server), CACHED_PER_ROUND))
                for sample in cached:
                    self.meter.add("cached" + tag, sample["batch"] / CACHED_PER_ROUND, block)
                    if traced:
                        self.layers["share.serve_cached"].append(sample["serve_share"])
                if server is servers[0] and len(query_keys) < QUERY_STUDIES:
                    query_keys += [c.done[server.url][-1] for c in clients]
                rounds += 1
                if len(query_keys) >= QUERY_STUDIES and rounds % QUERY_EVERY == 0:
                    self.attempt("query", lambda: self.query(servers[0], query_keys))
            after = [server.client.metrics() for server in servers]
            return self.outcome(servers, before, after, model_err, trace)
        finally:
            pool.shutdown(wait=True)

    def phase(self, pool, clients, work, operations: int):
        """Run ``work(client)`` for both clients at once; their samples."""
        futures = [pool.submit(work, client) for client in clients]
        samples = []
        for future in futures:
            self.attempted += operations - 1
            sample = self.attempt("job", future.result)
            if sample is not None:
                samples.append(sample)
        return samples

    def query(self, server: Server, entries) -> None:
        """Per-study query sets over a fixed group of served studies."""
        entries = entries[:QUERY_STUDIES]

        def run():
            engine = QueryEngine(server.warehouse)
            out = []
            for _, _, keys in entries:
                out.append(engine.percentile("delay", 99, study=keys[0]))
                engine.yield_fraction("delay", 5e-11, study=keys[0])
                engine.outliers("delay", k=10, study=keys[0])
            self.files_scanned = 3 * sum(
                len(engine.files("instances", study=keys[0])) for _, _, keys in entries)
            return out

        answers = self.meter.time(
            "query", lambda: [run() for _ in range(QUERY_REPEATS)][0],
            per=QUERY_REPEATS)
        for (_, data, _), p99 in zip(entries, answers):
            delays = np.array([d for d in json.loads(data)["result"]["delays_s"]
                               if d is not None])
            if p99["value"] != float(np.percentile(delays, 99)):
                raise CheckFailed("warehouse p99 differs from the served delays")

    def outcome(self, servers, before, after, model_err, trace):
        meter = self.meter
        peak = servers[0].peak_rss_mib()
        if trace:
            self.server_layers(servers[1], before[1], after[1])
            self.layers["warehouse.query_s"] = list(meter.raw["query"])
            self.layers["warehouse.files_scanned"] = [self.files_scanned]
            metrics = per_layer_metrics(self.layers)
            metrics["obs.trace_overhead"] = (trace_overhead(
                meter.calibrated["job"], meter.calibrated["job.traced"]), "ratio")
        else:
            job = meter.median("job")
            metrics = {
                "setup_s": (meter.median("setup"), "s"),
                "instances_per_s": (INSTANCES / job, "1/s"),
                "job_p50_s": (job, "s"),
                "job_tail_s": (tail_value(meter.calibrated["job"])[0], "s"),
                "cached_job_s": (meter.median("cached"), "s"),
                "query_s": (meter.median("query"), "s"),
                "model_err_max": (model_err, "ratio"),
                "peak_rss_mib": (peak, "MiB"),
            }
        return {"metrics": metrics, "record": meter.record(), **self.counts()}

    def server_layers(self, server: Server, before, after) -> None:
        """Per-layer rows from the traced server's trace and /metrics."""
        counters = counter_delta(before, after)
        client_rounds = len(self.layers["serve.run_s"]) or 1
        jobs = client_rounds * (1 + CACHED_PER_ROUND)
        per_rep = lambda key: counters.get(key, 0) / client_rounds  # noqa: E731
        self.layers["serve.http_requests_per_job"].append(
            counters.get("serve.http_requests", 0) / jobs)
        for name, key in COUNTERS + (("serve.jobs_cached", "serve.jobs_cached"),
                                     ("serve.jobs_failed", "serve.jobs_failed")):
            self.layers[name].append(per_rep(key))
        ingested = counters.get("warehouse.chunks_ingested", 0)
        skipped = counters.get("warehouse.chunks_skipped", 0)
        self.layers["warehouse.ingest_useful"].append(ingested / max(ingested + skipped, 1))

        # Server-side self times, per fresh job the traced server ran.
        records = read_trace(server.trace_path)
        selfs = self_times(records)
        runs = [r for r in records if r.get("type") == "span" and r["name"] == "study.run"]
        totals = defaultdict(float)
        for record in records:
            if record.get("type") == "span":
                totals[record["name"]] += selfs[record["span_id"]]
        fresh_jobs = max(len(runs), 1)
        kernel = totals["study.chunk"] / fresh_jobs
        save = totals["store.save"] / fresh_jobs
        ingest = totals["warehouse.ingest"] / fresh_jobs
        self.layers["stream.chunk_self_s"].append(kernel)
        self.layers["store.save_s"].append(save)
        self.layers["warehouse.ingest_s"].append(ingest)
        self.layers["engine.run_self_s"].append(totals["study.run"] / fresh_jobs)
        plans = [r for r in records if r.get("type") == "span" and r["name"] == "study.plan"]
        self.layers["engine.plan_s"].append(totals["study.plan"] / max(len(plans), 1))
        job = float(np.median(self.meter.raw["job.traced"]))
        self.layers["share.kernel"].append(kernel / job)
        self.layers["share.store_ingest"].append((save + ingest) / job)


def run_serve_mix(name: str, work_dir: Path, seed: int, seconds: float,
                  trace: bool) -> dict:
    """Run the serve-mix workload; returns metrics, counts and the record."""
    root = Path(__file__).resolve().parent.parent
    return ServeMix(root, work_dir, seed).run(seconds, trace)
