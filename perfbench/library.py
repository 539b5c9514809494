"""Library workloads: mc-sweep, transient-durable and signoff.

Each runs in this process, on one thread, through the public API.  One
repetition ("rep") of a workload is

1. ``setup``: netlist text -> ``parse_netlist`` -> ``with_random_variations``
   -> ``LowRankReducer.reduce`` -> first ``Study.plan()``;
2. ``unit``: the fresh durable study, ``Study.run()`` with a store and a
   warehouse;
3. ``reread``: a batch of re-runs of the study just completed, every
   chunk loaded, SHA-256-checked and folded from the store, nothing
   computed;
4. ``query``: a batch of warehouse query sets (p99, yield at a fixed
   limit, top-10 outliers) over a fixed group of ingested studies, once
   that group is complete;

each timed step followed by a calibration block.  Every rep draws fresh
seeds for its netlist and samples, so content-keyed memos (the plan
cache, low-rank detection, the store) never make a later unit cheaper
than the first.  With tracing on, reps alternate between traced and
untraced; the traced ones feed the per-layer table.
"""

from __future__ import annotations

import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from common import (
    Meter,
    Operations,
    box_corners,
    counter_delta,
    peak_rss_mib,
    per_layer_metrics,
    phase_self_times,
    rc_tree_text,
    self_times,
    tail_value,
    trace_overhead,
    transfer_error,
)
from repro.circuits.generators import with_random_variations
from repro.circuits.parser import parse_netlist
from repro.core import LowRankReducer
from repro.obs import MemorySink
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime import MonteCarloPlan, RampInput, Study
from repro.warehouse import QueryEngine

# Fixed seed of the reference net each workload's accuracy is checked on.
REFERENCE_SEED = 2005
ACCURACY_FREQUENCIES = np.logspace(7, 10, 40)


class CheckFailed(RuntimeError):
    """An output check of the benchmark did not hold."""


def rep_seed(seed: int, rep: int) -> int:
    """Seed of repetition ``rep`` of a run started with ``seed``."""
    return int(np.random.SeedSequence([seed, rep + 1]).generate_state(1)[0])


def check_error(value: float, bound: float) -> None:
    """Raise :class:`CheckFailed` when a model error exceeds ``bound``."""
    if not value <= bound:
        raise CheckFailed(f"model error {value:.4f} above the {bound} bound")


def same(a, b) -> bool:
    """Bit-for-bit equality of two result arrays (NaN padding equal)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


class LibraryWorkload(Operations):
    """The rep loop shared by the library workloads."""

    name = ""
    nodes = 1000
    parameters = 2
    spread = 0.5
    moments = 4
    instances = 512
    chunk = 128
    setup_batch = 1      # cold set-ups per timed batch
    group = 8            # studies per query dataset
    reread_batch = 4     # study re-runs per timed batch
    query_repeats = 1    # query sets per timed batch
    table = "instances"
    metric = "delay"
    limit = 0.0
    accuracy_box = 0.3
    error_bound = 0.1
    net_options: dict = {}

    def __init__(self, work_dir: Path, seed: int):
        super().__init__()
        self.work = work_dir
        self.seed = seed
        self.store = work_dir / "store"
        self.meter = None
        # (parametric, model, sub-rep, warehouse dir, results) of the
        # query group's studies and of the latest unit.
        self.completed = []
        self.errors = []
        self.layers = defaultdict(list)

    # -- per-workload hooks ---------------------------------------------

    def net_text(self, rep: int) -> str:
        return rc_tree_text(self.nodes, rep_seed(self.seed, rep),
                            title=f"{self.name}-{rep}", **self.net_options)

    def variation_seed(self, rep: int) -> int:
        return rep_seed(self.seed, rep)

    def declare(self, parametric, model, rep: int, warehouse: Path):
        """The unit's studies, freshly declared (a list of Study)."""
        raise NotImplementedError

    def check_unit(self, parametric, model, results) -> None:
        """Raise :class:`CheckFailed` when a fresh unit's output is wrong."""

    def result_arrays(self, results):
        """The arrays a reread must reproduce bit for bit."""
        raise NotImplementedError

    def query_values(self, results) -> np.ndarray:
        """In-memory values of the queried column for one unit."""
        raise NotImplementedError

    def model_err_max(self) -> float:
        """Worst reduced-vs-full relative transfer error (see README)."""
        return reference_error(self.nodes, self.parameters, self.spread,
                               self.moments, self.accuracy_box, self.net_options)

    # -- operations -------------------------------------------------------

    def warehouse_dir(self, index: int) -> Path:
        return self.work / f"wh-{index:03d}"

    def setup(self, text: str, rep: int, warehouse: Path):
        with obs_trace.span("bench.setup"):
            with obs_trace.span("bench.parse"):
                netlist = parse_netlist(text, title=f"{self.name}-{rep}")
            with obs_trace.span("bench.assemble"):
                parametric = with_random_variations(
                    netlist, self.parameters, seed=self.variation_seed(rep),
                    relative_spread=self.spread,
                )
            with obs_trace.span("bench.reduce"):
                model = LowRankReducer(num_moments=self.moments).reduce(parametric)
            studies = self.declare(parametric, model, rep, warehouse)
            with obs_trace.span("bench.plan"):
                for study in studies:
                    study.plan()
        return parametric, model, studies

    @staticmethod
    def run_studies(studies, span_name: str):
        with obs_trace.span(span_name):
            return [study.run() for study in studies]

    def query_set(self, directory: Path):
        engine = QueryEngine(directory)
        with obs_trace.span("bench.query.percentile"):
            p99 = engine.percentile(self.metric, 99, table=self.table)
        with obs_trace.span("bench.query.yield"):
            passed = engine.yield_fraction(self.metric, self.limit, table=self.table)
        with obs_trace.span("bench.query.outliers"):
            worst = engine.outliers(self.metric, k=10, table=self.table)
        return p99, passed, worst, len(engine.files(self.table))

    # -- one repetition -----------------------------------------------------

    def rep(self, rep: int, traced: bool) -> None:
        meter = self.meter
        tag = ".traced" if traced else ""
        # Several cold set-ups per rep, each with its own seeds; the unit
        # runs on the last one.
        subs = [rep * self.setup_batch + j for j in range(self.setup_batch)]
        texts = [self.net_text(sub) for sub in subs]
        warehouse = self.warehouse_dir(len(self.completed) // self.group)
        built = self.attempt("setup", lambda: meter.time(
            "setup" + tag,
            lambda: [self.setup(t, s, warehouse) for t, s in zip(texts, subs)],
            per=self.setup_batch))
        if built is None:
            return
        parametric, model, studies = built[-1]
        results = self.attempt("unit", lambda: meter.time(
            "unit" + tag, lambda: self.run_studies(studies, "bench.unit")))
        if results is None:
            return
        self.attempt("check.unit", lambda: self.check_unit(parametric, model, results))
        self.completed.append((parametric, model, subs[-1], warehouse, results))
        if len(self.completed) > self.group + 1:
            del self.completed[self.group]

        # The study just completed, re-run reread_batch times: the same
        # batch composition on every rep.
        batch = [self.completed[-1]] * self.reread_batch
        rereads = self.attempt("reread", lambda: meter.time(
            "reread" + tag,
            lambda: [self.run_studies(self.declare(p, m, s, w), "bench.reread")
                     for p, m, s, w, _ in batch],
            per=len(batch)))
        if rereads is not None:
            self.attempt("check.reread", lambda: self.check_reread(batch, rereads))

        # The query dataset is the first full group of ingested studies.
        if len(self.completed) >= self.group:
            directory = self.completed[0][3]
            answers = self.attempt("query", lambda: meter.time(
                "query" + tag,
                lambda: [self.query_set(directory) for _ in range(self.query_repeats)],
                per=self.query_repeats))
            if answers is not None:
                self.attempt("check.query", lambda: self.check_query(answers[0]))
                if traced:
                    self.layers["warehouse.files_scanned"].append(3 * answers[0][3])
        if traced:
            self.layers["circuits.elements"].append(
                sum(1 for line in texts[-1].splitlines() if line[:1] in "RC"))
            self.layers["core.order"].append(model.size)

    def check_reread(self, batch, rereads) -> None:
        for (_, _, _, _, fresh), again in zip(batch, rereads):
            for a, b in zip(self.result_arrays(fresh), self.result_arrays(again)):
                if not same(a, b):
                    raise CheckFailed("reread result differs from the fresh run")

    def check_query(self, answer) -> None:
        p99 = answer[0]
        values = np.concatenate([
            self.query_values(entry[4]) for entry in self.completed[:self.group]
        ])
        expected = float(np.percentile(values[np.isfinite(values)], 99))
        if p99["value"] != expected:
            raise CheckFailed(
                f"warehouse p99 {p99['value']!r} != in-memory {expected!r}")

    # -- the run ------------------------------------------------------------

    def run(self, seconds: float, trace: bool) -> dict:
        # Warm-up (untimed): imports, first-call LAPACK/SuperLU set-up.
        text = self.net_text(-1)
        parametric, model, studies = self.setup(text, -1, self.work / "wh-warm")
        self.run_studies(studies, "bench.unit")

        self.meter = Meter()
        deadline = time.perf_counter() + seconds
        rep = 0
        while time.perf_counter() < deadline:
            if trace and rep % 2 == 0:
                self.traced_rep(rep)
            else:
                self.rep(rep, False)
            rep += 1
        return self.outcome(self.checked_accuracy(), trace)

    def checked_accuracy(self) -> float:
        """``model_err_max``, counting a failed operation above the bound."""
        value = self.attempt("check.accuracy", self.model_err_max)
        if value is None:
            return 1.0
        self.attempt("check.accuracy.bound", lambda: check_error(value, self.error_bound))
        return value

    def traced_rep(self, rep: int) -> None:
        sink = obs_trace.add_sink(MemorySink())
        before = obs_metrics.registry().snapshot()
        try:
            self.rep(rep, True)
        finally:
            obs_trace.remove_sink(sink)
        counters = counter_delta(before, obs_metrics.registry().snapshot())
        self.add_layers(sink.records, counters)

    def add_layers(self, records, counters) -> None:
        selfs = self_times(records)
        add = lambda name, value: self.layers[name].append(value)  # noqa: E731
        setup = phase_self_times(records, selfs, "bench.setup")
        if setup is not None:
            count, _, s = setup
            add("circuits.parse_s", s["bench.parse"] / count)
            add("circuits.assemble_s", s["bench.assemble"] / count)
            add("core.reduce_s", s["bench.reduce"] / count)
            add("engine.plan_s", (s["bench.plan"] + s["study.plan"]) / count)
        unit = phase_self_times(records, selfs, "bench.unit")
        if unit is not None:
            _, wall, s = unit
            kernel = s["study.chunk"] + s["sparse.refactor"] + s["poles.instance"]
            add("stream.chunk_self_s", kernel)
            add("store.save_s", s["store.save"])
            add("warehouse.ingest_s", s["warehouse.ingest"])
            add("engine.run_self_s", s["study.run"] + s["study.plan"])
            add("share.kernel", kernel / wall)
            add("share.store_ingest", (s["store.save"] + s["warehouse.ingest"]) / wall)
            add("trace.unattributed_share", s["bench.unit"] / wall)
            add("trace.self_sum_error", abs(sum(s.values()) - wall) / wall)
        rereads = phase_self_times(records, selfs, "bench.reread")
        if rereads is not None:
            count, _, s = rereads
            add("store.load_s", s["store.load"] / count)
            add("warehouse.reingest_s", s["warehouse.ingest"] / count)
        queries = [r for r in records if r.get("name", "").startswith("bench.query.")]
        if queries:
            add("warehouse.query_s",
                sum(r["wall_seconds"] for r in queries) / (len(queries) / 3))
        for name, key in COUNTERS:
            add(name, counters.get(key, 0))
        ingested = counters.get("warehouse.chunks_ingested", 0)
        skipped = counters.get("warehouse.chunks_skipped", 0)
        add("warehouse.ingest_useful", ingested / max(ingested + skipped, 1))

    def outcome(self, model_err, trace: bool) -> dict:
        meter = self.meter
        if trace:
            metrics = per_layer_metrics(self.layers)
            metrics["obs.trace_overhead"] = (trace_overhead(
                meter.calibrated["unit"], meter.calibrated["unit.traced"]), "ratio")
        else:
            unit = meter.median("unit")
            metrics = {
                "setup_s": (meter.median("setup"), "s"),
                "instances_per_s": (self.instances / unit, "1/s"),
                "job_p50_s": (unit, "s"),
                "job_tail_s": (tail_value(meter.calibrated["unit"])[0], "s"),
                "cached_job_s": (meter.median("reread"), "s"),
                "query_s": (meter.median("query"), "s"),
                "model_err_max": (model_err, "ratio"),
                "peak_rss_mib": (peak_rss_mib(), "MiB"),
            }
        return {"metrics": metrics, "record": meter.record(), **self.counts()}


def reference_error(nodes: int, parameters: int, spread: float, moments: int,
                    box: float, net_options=None) -> float:
    """Accuracy of a workload's reduction on its fixed reference net.

    The net size, variational sources and reducer settings follow the
    workload, but the seeds are fixed, so the value repeats exactly on
    every run.  The full-order net goes through the engine's sparse
    route and the reduced model through the dense route, both at the
    ``2**n_p`` corners of the workload's ``+-box`` parameter box.
    """
    text = rc_tree_text(nodes, REFERENCE_SEED, title="reference",
                        **(net_options or {}))
    parametric = with_random_variations(
        parse_netlist(text), parameters, seed=REFERENCE_SEED + 1,
        relative_spread=spread,
    )
    model = LowRankReducer(num_moments=moments).reduce(parametric)
    corners = box_corners(parameters, box)
    full = Study(parametric).scenarios(corners).sweep(
        ACCURACY_FREQUENCIES, keep_responses=True).run()
    reduced = Study(model).scenarios(corners).sweep(
        ACCURACY_FREQUENCIES, keep_responses=True).run()
    return float(transfer_error(full.responses, reduced.responses).max())


class McSweep(LibraryWorkload):
    """Frequency sweep plus dominant poles over a ~2k-node RC tree."""

    name = "mc-sweep"
    nodes = 2000
    parameters = 3
    moments = 4
    instances = 512
    chunk = 128
    setup_batch = 1
    group = 4
    reread_batch = 16
    query_repeats = 4
    table = "poles"
    metric = "re"
    limit = -1e9
    frequencies = np.logspace(7, 10, 100)

    def declare(self, parametric, model, rep, warehouse):
        plan = MonteCarloPlan(self.instances, seed=rep_seed(self.seed, rep))
        return [
            Study(model).scenarios(plan).sweep(self.frequencies).poles(5)
            .chunk(self.chunk).store(self.store).warehouse(warehouse)
        ]

    def check_unit(self, parametric, model, results) -> None:
        # Spot-check the first and last instance against the reduced
        # model's own per-instance frequency response: each must lie in
        # the unit's magnitude envelope.
        result = results[0]
        low, _, high = result.magnitude_envelope(output_index=1, input_index=0)
        for k in (0, result.num_samples - 1):
            spot = np.abs(
                model.frequency_response(self.frequencies, result.samples[k])[:, 1, 0]
            )
            if np.any(spot < low * (1 - 1e-9)) or np.any(spot > high * (1 + 1e-9)):
                raise CheckFailed(f"instance {k} falls outside the sweep envelope")
        if result.num_samples != self.instances or not np.all(np.isfinite(high)):
            raise CheckFailed("sweep result is incomplete")

    def result_arrays(self, results):
        result = results[0]
        return [result.envelope_min, result.envelope_mean, result.envelope_max,
                result.poles]

    def query_values(self, results):
        return results[0].poles.real.ravel()


class TransientDurable(LibraryWorkload):
    """Ramp-input delay/slew Monte Carlo, durable in many small chunks."""

    name = "transient-durable"
    nodes = 1000
    parameters = 2
    moments = 3
    instances = 512
    chunk = 32
    setup_batch = 3
    group = 8
    reread_batch = 4
    query_repeats = 1
    table = "instances"
    metric = "delay"
    limit = 5e-11
    waveform = RampInput(rise_time=1e-10)
    steps = 200

    def declare(self, parametric, model, rep, warehouse):
        plan = MonteCarloPlan(self.instances, seed=rep_seed(self.seed, rep))
        return [
            Study(model).scenarios(plan)
            .transient(self.waveform, num_steps=self.steps, output_index=1)
            .chunk(self.chunk).store(self.store).warehouse(warehouse)
        ]

    def check_unit(self, parametric, model, results) -> None:
        delays = results[0].delays
        if delays.shape != (self.instances,) or np.isfinite(delays).mean() < 0.99:
            raise CheckFailed("transient delays missing or not crossing")

    def result_arrays(self, results):
        result = results[0]
        return [result.delays, result.slews, result.steady_states,
                result.envelope_min, result.envelope_mean, result.envelope_max]

    def query_values(self, results):
        return results[0].delays


class Signoff(LibraryWorkload):
    """The paper's Section 5.1 protocol: full-order vs reduced, +-70% box."""

    name = "signoff"
    nodes = 767
    parameters = 2
    moments = 4
    instances = 16
    chunk = 16
    setup_batch = 3
    group = 4
    reread_batch = 24
    query_repeats = 16
    table = "poles"
    metric = "re"
    limit = -1e10
    accuracy_box = 0.7
    error_bound = 0.03
    net_options = {"r_range": (10.0, 20.0), "c_range": (1e-14, 2e-14)}
    frequencies = ACCURACY_FREQUENCIES

    def net_text(self, rep: int) -> str:
        # One fixed net, signed off at fresh instances every rep.
        return rc_tree_text(self.nodes, REFERENCE_SEED, title="rc-767",
                            **self.net_options)

    def variation_seed(self, rep: int) -> int:
        return REFERENCE_SEED + 1

    def declare(self, parametric, model, rep, warehouse):
        rng = np.random.default_rng(rep_seed(self.seed, rep))
        corners = box_corners(self.parameters, self.accuracy_box)
        inner = rng.uniform(-self.accuracy_box, self.accuracy_box,
                            (self.instances - len(corners), self.parameters))
        samples = np.vstack([corners, inner])
        return [
            Study(parametric).scenarios(samples)
            .sweep(self.frequencies, keep_responses=True)
            .chunk(self.chunk).store(self.store),
            Study(model).scenarios(samples)
            .sweep(self.frequencies, keep_responses=True).poles(5)
            .chunk(self.chunk).store(self.store).warehouse(warehouse),
        ]

    def check_unit(self, parametric, model, results) -> None:
        full, reduced = results
        errors = transfer_error(full.responses, reduced.responses)
        self.errors.extend(errors.tolist())
        check_error(float(errors.max()), self.error_bound)

    def result_arrays(self, results):
        full, reduced = results
        return [full.responses, reduced.responses, reduced.poles]

    def query_values(self, results):
        return results[1].poles.real.ravel()

    def model_err_max(self) -> float:
        # Over every instance the run signed off (corners included).
        return max(self.errors)


WORKLOADS = {cls.name: cls for cls in (McSweep, TransientDurable, Signoff)}


def run_library(name: str, work_dir: Path, seed: int, seconds: float,
                trace: bool) -> dict:
    """Run one library workload; returns metrics, counts and the record."""
    return WORKLOADS[name](work_dir, seed).run(seconds, trace)


# Registry counters of the per-layer table: (table name, registry name).
COUNTERS = (
    ("engine.plan_cache.hits", "engine.plan_cache.hits"),
    ("engine.plan_cache.misses", "engine.plan_cache.misses"),
    ("stream.instances", "study.instances_evaluated"),
    ("stream.chunks", "study.chunks_completed"),
    ("batch.eig_fallbacks", "runtime.batch.eig_fallbacks"),
    ("lowrank.ensembles", "runtime.lowrank.ensembles"),
    ("sparselu.factorizations", "linalg.sparselu.factorizations"),
    ("sparselu.refactorizations", "linalg.sparselu.refactorizations"),
    ("store.chunks_saved", "store.chunks_saved"),
    ("store.chunks_loaded", "store.chunks_loaded"),
    ("store.bytes_written", "store.bytes_written"),
    ("store.bytes_read", "store.bytes_read"),
    ("store.chunks_requeued", "store.chunks_requeued"),
    ("warehouse.rows_ingested", "warehouse.rows_ingested"),
    ("warehouse.bytes_written", "warehouse.bytes_written"),
    ("cache.hits", "cache.hits"),
    ("cache.misses", "cache.misses"),
)
