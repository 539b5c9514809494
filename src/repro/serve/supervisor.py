"""Admission, queueing, and the worker pool behind the study service.

The supervisor is the synchronous core the asyncio front end
(:mod:`repro.serve.server`) delegates to:

- :meth:`StudySupervisor.submit` parses and realizes a declaration,
  admits it against the configured memory budget using the plan's
  ``estimated_peak_bytes``, and either rejects it, serves it from the
  content-addressed result index, or enqueues it;
- a pool of worker threads drains the queue, running each job through
  ``Study.store()`` (one worker) or a cooperating group of
  ``Study.work()`` drains (``workers > 1`` in the declaration) against
  the shared :class:`~repro.runtime.store.StudyStore`;
- every finished job's response document is rendered to canonical JSON
  bytes and persisted under ``<store>/results/``, so an identical
  re-submission -- same netlist, plan, workload, from any client -- is
  served byte-identically with zero recomputation, carrying the same
  study fingerprints and per-chunk SHA-256 lineage.

In front of that content-addressed result index sits an in-memory
*document index*: the SHA-256 of a job's canonical declaration
(:meth:`StudySupervisor.document_key`) maps to the job that last
answered it -- a fresh job once its result is in the result index, or
a submission the result index answered.  A re-submitted document whose
entry is there, and whose result file still holds that job's bytes, is
answered ``cached`` without being realized (no parse, attach,
model-cache load, plan or fingerprint): the new job shares the earlier
one's content key, study keys, fingerprints, peak bytes, declaration
and result bytes.  Everything else -- a new document, a failed or
still-running first job, a deleted or rewritten result file, a
restarted server -- takes the full path, so the result index stays the
authority: the document index only remembers which answer a document
already got.  It lives in memory; ``serve.document_hits`` counts its
hits.
"""

from __future__ import annotations

import hashlib
import json
import queue
import threading
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Optional

import numpy as np

from repro.obs import MemorySink, SpanEventBridge, chunk_lineage, lineage_sources
from repro.obs import metrics as obs_metrics
from repro.runtime import ModelCache, StudyStore
from repro.serve.jobs import Job, JobRegistry
from repro.serve.protocol import ProtocolError, RealizedJob, parse_job, realize

__all__ = ["AdmissionError", "StudySupervisor"]

_SUBMITTED = obs_metrics.counter("serve.jobs_submitted")
_CACHED = obs_metrics.counter("serve.jobs_cached")
_REJECTED = obs_metrics.counter("serve.jobs_rejected")
_COMPLETED = obs_metrics.counter("serve.jobs_completed")
_FAILED = obs_metrics.counter("serve.jobs_failed")
_DOCUMENT_HITS = obs_metrics.counter("serve.document_hits")


class AdmissionError(RuntimeError):
    """A job whose planned peak memory exceeds the configured budget.

    Carries the numbers the error body must surface: the plan's
    ``estimated_peak_bytes`` and the budget it failed against.
    """

    def __init__(self, peak_bytes: int, budget: int):
        self.peak_bytes = int(peak_bytes)
        self.budget = int(budget)
        super().__init__(
            f"job rejected at admission: planned peak "
            f"{self.peak_bytes} bytes exceeds the server memory budget "
            f"{self.budget} bytes (shrink the study or raise --memory-budget)"
        )


class StudySupervisor:
    """Job queue + admission control + worker pool over one StudyStore.

    Parameters
    ----------
    store:
        Directory or :class:`~repro.runtime.store.StudyStore` every job
        checkpoints through (and the content-addressed result index
        lives under ``<store>/results/``).
    memory_budget:
        Optional admission bound in bytes: a job whose worst study plan
        estimates a higher peak is rejected up front with the estimate
        in the error.  ``None`` admits everything.
    pool_size:
        Worker threads draining the queue (jobs run concurrently up to
        this count; each job may additionally declare ``workers`` > 1
        to co-drain its own chunks).
    model_cache:
        Optional directory or :class:`~repro.runtime.ModelCache` for
        the reduction step; bounded caches
        (``ModelCache(..., max_entries=...)``) are recommended for
        long-running services.
    ttl, poll:
        Lease scheduler knobs for multi-worker jobs (see
        :meth:`~repro.runtime.engine.Study.work`).
    warehouse:
        Optional directory or :class:`~repro.warehouse.Warehouse`:
        every completed job's studies are registered in this catalog
        (a registration that adds nothing writes nothing, so a
        warehouse shared with ``repro work`` drainers or a study's own
        :meth:`~repro.runtime.engine.Study.warehouse` directive never
        duplicates a study), with source attribution from the job's own
        spans.  A registration failure is reported as a
        ``warehouse.error`` job event, never as a job failure -- the
        result document is already durable by then.
    """

    def __init__(self, store, memory_budget: Optional[int] = None,
                 pool_size: int = 2, model_cache=None,
                 ttl: float = 30.0, poll: float = 0.05,
                 warehouse=None):
        self.store = store if isinstance(store, StudyStore) else \
            StudyStore(store)
        self.memory_budget = memory_budget
        self.pool_size = max(int(pool_size), 1)
        if model_cache is None or isinstance(model_cache, ModelCache):
            self.model_cache = model_cache
        else:
            self.model_cache = ModelCache(model_cache)
        self.ttl = ttl
        self.poll = poll
        if warehouse is None:
            self.warehouse = None
        else:
            from repro.warehouse import Warehouse

            self.warehouse = (
                warehouse if isinstance(warehouse, Warehouse)
                else Warehouse(warehouse)
            )
        self.registry = JobRegistry()
        self.results_dir = self.store.directory / "results"
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._threads = []
        self._started = False
        self._lock = threading.Lock()
        # study key -> the lock its plain runs take (see _plain_run)
        self._study_locks = {}
        # document key -> (the job that last answered it, its bytes)
        self._answers = {}
        self._answers_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "StudySupervisor":
        """Start the worker pool (idempotent)."""
        with self._lock:
            if self._started:
                return self
            self._started = True
            for i in range(self.pool_size):
                thread = threading.Thread(
                    target=self._worker_loop, name=f"serve-worker-{i}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
        return self

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool after in-flight jobs finish."""
        with self._lock:
            if not self._started:
                return
            threads, self._threads = self._threads, []
            self._started = False
        for _ in threads:
            self._queue.put(None)
        if wait:
            for thread in threads:
                thread.join()

    # -- submission ----------------------------------------------------

    def job_key(self, realized: RealizedJob) -> str:
        """Content key of a job: its study keys + rendering options.

        The study fingerprints cover the netlist, samples, and workload
        physics; the workload options additionally pin the rendering
        knobs (which output/input the envelope reads, histogram bins)
        so two jobs are byte-compatible iff their responses are.
        """
        record = {
            "study_keys": realized.study_keys,
            "workload": {
                "kind": realized.spec.workload_kind,
                **realized.spec.workload_options,
            },
        }
        return hashlib.sha256(
            json.dumps(record, sort_keys=True, default=repr).encode()
        ).hexdigest()

    def document_key(self, spec: dict) -> Optional[str]:
        """Document-index key of a canonical declaration.

        The SHA-256 of ``spec`` (a :meth:`JobSpec.canonical` document)
        as sorted-key JSON: documents that differ only in key order,
        whitespace or explicit defaults share it, and equal declarations
        realize to equal content keys.  ``None`` when an in-process
        payload holds a value JSON cannot encode; such a document is
        never indexed.
        """
        try:
            text = json.dumps(spec, sort_keys=True)
        except (TypeError, ValueError):
            return None
        return hashlib.sha256(text.encode()).hexdigest()

    def result_path(self, key: str) -> Path:
        """Canonical result-index location for job content key ``key``."""
        return self.results_dir / f"result-{key[:16]}.json"

    def submit(self, payload) -> Job:
        """Parse, realize, admit, and route one job document.

        Returns the :class:`~repro.serve.jobs.Job` in one of three
        states: ``done`` (served from the result index), ``queued``
        (admitted and enqueued), or ``rejected`` (admission failure --
        the job's ``error`` carries the peak-bytes estimate).  Protocol
        errors raise :class:`~repro.serve.protocol.ProtocolError`
        before any job is registered.  A document the document index
        knows is answered from the earlier job without being realized.
        """
        spec = parse_job(payload)
        canonical = spec.canonical()
        answered = self._answered(canonical)
        if answered is not None:
            earlier, data = answered
            job = Job(
                self.registry.new_id(earlier.key), earlier.key, earlier.spec,
                study_keys=earlier.study_keys,
                fingerprints=earlier.fingerprints,
                peak_bytes=earlier.peak_bytes,
                workers=earlier.workers,
            )
            _SUBMITTED.inc()
            _DOCUMENT_HITS.inc()
            return self._answer_cached(job, data)

        realized = realize(spec, self.model_cache)
        key = self.job_key(realized)
        job = Job(
            self.registry.new_id(key), key, canonical,
            study_keys=realized.study_keys,
            fingerprints=realized.fingerprints,
            peak_bytes=realized.peak_bytes,
            workers=spec.workers,
        )
        _SUBMITTED.inc()

        if self.memory_budget is not None \
                and realized.peak_bytes > self.memory_budget:
            error = AdmissionError(realized.peak_bytes, self.memory_budget)
            job.state = "rejected"
            job.error = str(error)
            self.registry.add(job)
            _REJECTED.inc()
            return job

        cached = self._load_result(key)
        if cached is not None:
            self._remember(job, cached)
            return self._answer_cached(job, cached)

        job._realized = realized
        self.registry.add(job)
        job.add_event({"event": "job.state", "state": "queued"})
        self.start()
        self._queue.put(job)
        return job

    def _answer_cached(self, job: Job, data: bytes) -> Job:
        self.registry.add(job)
        job.mark_done(data, cached=True)
        _CACHED.inc()
        return job

    def _answered(self, spec: dict):
        """``(job, bytes)`` that answered declaration ``spec``, if they
        still may, else ``None``.

        The result index stays the authority: the bytes must still be
        what the job's entry holds (a read of one small file, then
        dropped).  A deleted entry sends the document down the full
        path, which re-renders it from the store.  So does an entry
        rewritten since: identical jobs that run at once may render
        different chunk lineage, and the last writer's file wins.  No
        admission check: the document was admitted under this
        supervisor's budget.
        """
        key = self.document_key(spec)
        with self._answers_lock:
            answered = self._answers.get(key)
        if answered is None \
                or self._load_result(answered[0].key) != answered[1]:
            return None
        return answered

    def _remember(self, job: Job, data: bytes) -> None:
        """Index ``job``, answered by result ``data``, under its
        declaration.

        Called once ``data`` is in the result index, before the job is
        marked done, so a client that sees ``done`` finds the entry.
        """
        key = self.document_key(job.spec)
        if key is not None:
            with self._answers_lock:
                self._answers[key] = (job, data)

    def _load_result(self, key: str) -> Optional[bytes]:
        path = self.result_path(key)
        try:
            return path.read_bytes() if path.exists() else None
        except OSError:
            return None

    # -- execution -----------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            try:
                self._run_job(job)
            except Exception as exc:  # noqa: BLE001 - job isolation
                job.mark_failed(f"{type(exc).__name__}: {exc}")
                _FAILED.inc()
            finally:
                self._queue.task_done()

    def _run_job(self, job: Job) -> None:
        realized: RealizedJob = job._realized
        # The registry keeps the job for ever; the models and study
        # factories live only as long as this run.
        job._realized = None
        job.mark_running()
        # The bridge streams span events to the job's NDJSON log; the
        # memory sink (warehouse mode only) keeps the raw span records
        # the post-completion registration joins into per-chunk source
        # attribution.
        sinks = [SpanEventBridge(job.add_event)]
        lineage_sink = None
        if self.warehouse is not None:
            lineage_sink = MemorySink()
            sinks.append(lineage_sink)
        try:
            with self._plain_run(job):
                if realized.spec.workload_kind == "montecarlo":
                    result = self._run_montecarlo(job, realized, sinks)
                    payload = _render_montecarlo(result, realized)
                else:
                    study = self._run_engine_sides(job, realized, sinks)
                    payload = _render_study(study, realized)
        except Exception as exc:  # noqa: BLE001 - report, don't die
            job.mark_failed(f"{type(exc).__name__}: {exc}")
            _FAILED.inc()
            return
        document = {
            "job": {"key": job.key, "spec": job.spec},
            "provenance": {
                "fingerprints": job.fingerprints,
                "lineage": {
                    key: self.store.lineage(key) for key in job.study_keys
                },
            },
            "result": payload,
        }
        data = json.dumps(
            document, sort_keys=True, indent=1, default=_json_default
        ).encode()
        self._store_result(job.key, data)
        self._remember(job, data)
        self._register_job(job, realized, lineage_sink)
        job.mark_done(data, cached=False)
        _COMPLETED.inc()

    @contextmanager
    def _plain_run(self, job: Job):
        """Hold ``job``'s per-study-key locks if it is a plain run.

        A plain (``workers`` 1) run replaces its study's one manifest
        with its own records at its first save and again when it closes
        (folding in the journal its later saves appended to), and
        empties and removes that one journal; two at once -- identical
        documents, or documents differing only in rendering options --
        could drop each other's records just as one renders its
        lineage.  Inside
        this supervisor they take turns, and the later one loads every
        chunk the earlier one saved.  Keys are taken in sorted order (a
        montecarlo job holds both of its).  Co-drains write
        worker-suffixed files and take none.
        """
        keys = sorted(set(job.study_keys)) if job.workers <= 1 else []
        with self._lock:
            locks = [self._study_locks.setdefault(key, threading.Lock())
                     for key in keys]
        with ExitStack() as stack:
            for lock in locks:
                stack.enter_context(lock)
            yield

    def _register_job(self, job: Job, realized: RealizedJob,
                      lineage_sink) -> None:
        """Warehouse hook: register a completed job's studies.

        Best-effort by design: the result document is already persisted
        and served, so a registration failure degrades to a
        ``warehouse.error`` job event (and the next completed job -- or
        a ``repro query ingest`` -- registers again) instead of failing
        a job whose numbers are done.
        """
        if self.warehouse is None:
            return
        try:
            lineage = lineage_sources(chunk_lineage(lineage_sink.records))
            studies, chunks, written = [], 0, []
            for key in job.study_keys:
                report = self.warehouse.register(
                    self.store, key=key,
                    samples=realized.samples,
                    parameter_names=getattr(
                        realized.parametric, "parameter_names", None
                    ),
                    lineage=lineage,
                )
                studies += report.studies
                chunks += report.chunks
                written += report.written
            job.add_event({
                "event": "warehouse.register",
                "studies": studies,
                "chunks": chunks,
                "written": written,
            })
        except Exception as exc:  # noqa: BLE001 - never fail the job
            job.add_event({
                "event": "warehouse.error",
                "error": f"{type(exc).__name__}: {exc}",
            })

    def _run_engine_sides(self, job: Job, realized: RealizedJob, sinks):
        """Drain each engine side; return the last side's merged study."""

        def traced(study):
            for sink in sinks:
                study = study.trace(sink)
            return study

        study = None
        for label, factory in realized.studies.items():
            if job.workers <= 1:
                study = traced(factory()).store(self.store).run()
            else:
                study = self._co_drain(
                    lambda worker, factory=factory: traced(factory())
                    .work(store=self.store, ttl=self.ttl, poll=self.poll,
                          worker=worker),
                    job,
                )
        return study

    def _run_montecarlo(self, job: Job, realized: RealizedJob, sinks):
        """The full-vs-reduced pole sign-off, through the shared store."""
        from repro.analysis.montecarlo import monte_carlo_pole_study

        options = realized.spec.workload_options
        kwargs = dict(
            num_instances=realized.samples.shape[0],
            num_poles=options["poles"],
            samples=realized.samples,
            store=self.store,
            chunk_size=realized.spec.chunk,
            trace=sinks,
        )
        if job.workers <= 1:
            return monte_carlo_pole_study(
                realized.parametric, realized.model, **kwargs
            )
        return self._co_drain(
            lambda worker: monte_carlo_pole_study(
                realized.parametric, realized.model,
                work=True, ttl=self.ttl, poll=self.poll, worker=worker,
                **kwargs,
            ),
            job,
        )

    def _co_drain(self, run_one, job: Job):
        """``job.workers`` cooperating drains of one study; first result.

        Every participant blocks until the store drains and returns the
        same merged result (bit-identical by the scheduler contract), so
        any non-``None`` return serves.  A worker that raises fails the
        job (the first exception propagates after every thread joins).
        """
        results = [None] * job.workers
        errors = []

        def participant(slot):
            try:
                results[slot] = run_one(f"{job.id}-w{slot}")
            except Exception as exc:  # noqa: BLE001 - propagated below
                errors.append(exc)

        threads = [
            threading.Thread(
                target=participant, args=(slot,),
                name=f"{job.id}-drain-{slot}", daemon=True,
            )
            for slot in range(job.workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        merged = [result for result in results if result is not None]
        if not merged:
            raise RuntimeError("no worker produced a merged result")
        return merged[0]

    def _store_result(self, key: str, data: bytes) -> None:
        """Persist one rendered result document, durably and race-safely.

        The write goes through the store's ``_durable_replace``, whose
        per-process-and-thread scratch name lets two pool threads
        finishing identical jobs write concurrently, and whose fsync
        before the rename keeps a crash from surfacing a truncated
        index entry that would poison every future identical
        submission (the index is trusted byte-for-byte).  The entry is
        then read back and parsed: a torn or unparsable index
        entry raises :class:`~repro.runtime.store.StoreError`
        immediately (failing this job loudly) instead of being served
        to the next client.  A well-formed file with *different* bytes
        is accepted -- two racing writers of one key render equivalent
        documents, and last-writer-wins keeps the file consistent.
        """
        from repro.runtime.store import StoreError, _durable_replace

        path = self.result_path(key)
        try:
            _durable_replace(path, data)
            written = path.read_bytes()
            json.loads(written.decode())
        except (OSError, ValueError) as exc:
            raise StoreError(
                f"result index entry {str(path)!r} failed its write-back "
                f"check: {exc}"
            ) from None

    # -- views ---------------------------------------------------------

    def describe(self) -> dict:
        """The service document ``GET /healthz`` returns."""
        return {
            "ok": True,
            "store": str(self.store.directory),
            "memory_budget": self.memory_budget,
            "pool_size": self.pool_size,
            "jobs": len(self.registry),
        }


def _json_default(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return repr(value)


def _finite_list(array) -> list:
    """Float list with NaN/Inf mapped to None (strict-JSON safe)."""
    return [
        float(x) if np.isfinite(x) else None for x in np.asarray(array).ravel()
    ]


def _render_study(study, realized: RealizedJob) -> dict:
    """Workload-specific result payload for the engine workloads."""
    kind = realized.spec.workload_kind
    options = realized.spec.workload_options
    if kind == "sweep":
        low, mean, high = study.magnitude_envelope(
            output_index=options["output"], input_index=options["input"]
        )
        return {
            "workload": "sweep",
            "num_samples": int(study.num_samples),
            "num_chunks": int(study.num_chunks),
            "frequencies_hz": _finite_list(study.frequencies),
            "min_magnitude": _finite_list(low),
            "mean_magnitude": _finite_list(mean),
            "max_magnitude": _finite_list(high),
        }
    if kind == "transient":
        low, mean, high = study.output_envelope(
            output_index=options["output"]
        )
        delays = np.asarray(study.delays, dtype=float)
        crossed = delays[np.isfinite(delays)]
        return {
            "workload": "transient",
            "num_samples": int(study.num_samples),
            "num_chunks": int(study.num_chunks),
            "time_s": _finite_list(study.time),
            "min_output": _finite_list(low),
            "mean_output": _finite_list(mean),
            "max_output": _finite_list(high),
            "delays_s": _finite_list(delays),
            "delay_summary": {
                "crossed": int(crossed.size),
                "of": int(delays.size),
                "min": float(crossed.min()) if crossed.size else None,
                "mean": float(crossed.mean()) if crossed.size else None,
                "max": float(crossed.max()) if crossed.size else None,
            },
        }
    # poles: the nan-padded (m, num_poles) stack (ragged rows padded)
    poles = np.asarray(study.poles)
    return {
        "workload": "poles",
        "num_samples": int(poles.shape[0]),
        "num_poles": int(poles.shape[1]),
        "poles": [
            [
                None if not np.isfinite(p) else
                {"re": float(p.real), "im": float(p.imag)}
                for p in row
            ]
            for row in poles
        ],
    }


def _render_montecarlo(result, realized: RealizedJob) -> dict:
    """Result payload for the pole-accuracy sign-off workload."""
    counts, edges = result.histogram(
        bins=realized.spec.workload_options["bins"]
    )
    return {
        "workload": "montecarlo",
        "num_instances": int(result.num_instances),
        "total_poles": int(result.total_poles),
        "max_error": float(result.max_error),
        "mean_error": float(result.pole_errors.mean()),
        "histogram": {
            "bin_edges_pct": _finite_list(edges),
            "counts": [int(c) for c in counts],
        },
    }
