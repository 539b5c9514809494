"""One front door: the declarative ``Study`` engine.

The runtime's kernels -- dense batched evaluation, the sparse
shared-pattern family, the chunk loop -- sit behind one declarative
entry point that routes to the right kernel automatically:

>>> study = (
...     Study(model)
...     .scenarios(MonteCarloPlan(num_instances=10_000, seed=7))
...     .sweep(np.logspace(7, 10, 200))
...     .poles(5)
...     .memory_budget(256 * 2**20)
... )
>>> print(study.plan())          # inspect before paying for anything
>>> result = study.run()         # execute the planned route

``Study`` is a builder: ``scenarios`` + one workload (``sweep`` /
``transient`` / ``poles`` / ``sensitivities``) plus optional execution
directives (``chunk`` or ``memory_budget``, ``cached`` + ``reduced``,
``progress``, and the durability pair ``store`` / ``resume``).
:meth:`Study.plan` inspects the target and workload and returns an
:class:`ExecutionPlan` naming the chosen route, kernel tier, chunk
count, and estimated peak bytes; :meth:`Study.run` executes that plan.
Every route except sensitivities runs through the one chunk loop of
:mod:`repro.runtime.stream`, and :meth:`Study.work` drains the same
chunks through the same checkpoint unit across any number of workers.
Payloads run in the chunk loop's own thread; only the dense eig sweep
kernel (sweeps and dense pole studies) splits its chunks over the
process-wide row pool of :mod:`repro.runtime.executor`.

Routes
------

- ``dense-batch`` -- dense-batchable targets (reduced macromodels) in
  one chunk: the eig-amortized sweep kernel, the propagator transient
  kernel, batched sensitivities; dense pole studies (the sweep kernel
  with no frequencies) keep this label however they are chunked.
- ``dense-stream`` -- the sweep and transient kernels chunked under
  ``chunk`` / ``memory_budget``, with incremental envelope reducers.
  On both dense routes the eig sweep kernel splits each chunk's rows
  over the row pool, streamed sweeps one chunk ahead (see
  :class:`ExecutionPlan`).
- ``sparse-family`` -- sparse full-order parametric systems: batched
  data-array instantiation on the shared union pattern, each
  instance's pencils through the tridiagonal / banded LAPACK tier, the
  level-scheduled LU (wide patterns), or SuperLU refactorization
  (patterns with a structurally missing diagonal).
- ``per-instance`` -- full-order reference solves, one instance at a
  time: pole studies of sparse or duck-typed targets (chunked like any
  other study) and sparse sensitivities.

Determinism contract
--------------------

Every route evaluates instances independently through the same kernels
whichever way the samples are chunked, so results are **bit-identical**
across chunk sizes (up to the documented chunk-summed envelope mean),
across row-pool widths, and across fresh, resumed, and work-stolen
runs: sweeps match the eig-amortized sweep kernel, transients the
batched propagator kernel, pole studies the Monte Carlo protocol of
:func:`repro.analysis.montecarlo.monte_carlo_pole_study`, and
sensitivities :func:`repro.analysis.sensitivity.transfer_sensitivities`.
On a dense target ``.poles(k)``, ``.sweep(f).poles(k)`` and
:func:`~repro.analysis.poles.dominant_poles` run one kernel: bit-identical.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.export import JsonlSink
from repro.runtime import executor as executor_module
from repro.runtime.batch import (
    _sweep_study,
    as_sample_matrix,
    batch_transfer_sensitivities,
    grid_contraction,
    supports_batching,
    symmetric_definite,
)
from repro.runtime.cache import array_fingerprint
from repro.runtime.scenarios import ScenarioPlan, StepInput
from repro.runtime.scheduler import (
    LeaseBoard,
    default_worker_id,
    drain_chunks,
    parse_worker_id,
)
from repro.runtime.sparse import shared_pattern_family, supports_sparse_batching
from repro.runtime.store import StudyStore, study_fingerprint
from repro.runtime.stream import (
    _CHUNK_RECORD_BYTES,
    _KERNEL_HEADER_BYTES,
    _chunk_grid,
    _chunk_unit,
    _drive_chunks,
    _queue_sweep_chunk,
    _sweep_chunk_payload,
    _sweep_result,
    _transient_chunk_payload,
    _transient_result,
    _transient_run_bytes,
    sweep_chunk_bytes,
    sweep_lookahead_bytes,
    transient_chunk_bytes,
)
from repro.runtime.transient import (
    DELAY_REFERENCES,
    TRANSIENT_METHODS,
    default_horizon,
)

ProgressCallback = Callable[[int, int], None]


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_transient_options(options: dict) -> None:
    """Refuse a malformed :meth:`Study.transient` declaration.

    Runs at plan time, so a bad job document is refused in one line
    naming the field before any chunk is queued, instead of failing
    (or, for ``num_steps=True``, silently running one step) at run
    time.
    """
    steps = options["num_steps"]
    if not isinstance(steps, numbers.Integral) or isinstance(steps, bool) or steps < 1:
        raise ValueError(f"num_steps must be an integer >= 1, got {steps!r}")
    t_final = options["t_final"]
    if t_final is not None and not (
        _is_real(t_final) and math.isfinite(t_final) and t_final > 0
    ):
        raise ValueError(f"t_final must be None or a finite number > 0, got {t_final!r}")
    if options["method"] not in TRANSIENT_METHODS:
        raise ValueError(
            f"method must be one of {', '.join(TRANSIENT_METHODS)}, "
            f"got {options['method']!r}"
        )
    threshold = options["delay_threshold"]
    if not (_is_real(threshold) and 0 < threshold < 1):
        raise ValueError(f"delay_threshold must be in (0, 1), got {threshold!r}")
    bounds = options["slew_bounds"]
    try:
        low, high = bounds
    except (TypeError, ValueError):
        low = high = None
    if not (_is_real(low) and _is_real(high) and 0 < low < high < 1):
        raise ValueError(
            f"slew_bounds must be (low, high) with 0 < low < high < 1, got {bounds!r}"
        )
    if options["reference"] not in DELAY_REFERENCES:
        raise ValueError(
            f"reference must be one of {', '.join(DELAY_REFERENCES)}, "
            f"got {options['reference']!r}"
        )


# -- the pole payload ---------------------------------------------------


def _pole_chunk_payload(target, family, num_poles: int, block) -> dict:
    """One pole chunk's persistable payload (the checkpoint unit).

    Dense targets run the sweep kernel's rows with no frequencies on
    the row pool, bit-identical to a ``.sweep(f).poles(k)`` study and
    to :func:`~repro.analysis.poles.dominant_poles` at each point.
    Other targets instantiate row by row -- sparse ones through their
    shared-pattern ``family``, any other through its own
    ``instantiate`` -- and hand each system to ``dominant_poles`` under
    one ``poles.instance`` span.
    """
    from repro.analysis.poles import dominant_poles

    if supports_batching(target):
        poles = _sweep_study(target, (), block, num_poles=num_poles)[1]
        return _pack_pole_sets([row[~np.isnan(row)] for row in poles])
    source = target if family is None else family
    kernel = "instantiate" if family is None else "shared-pattern"
    pole_sets = []
    for point in block:
        # Instantiation inside the span: it is the row's time too.
        with obs_trace.span("poles.instance", kernel=kernel):
            pole_sets.append(dominant_poles(source.instantiate(point), num_poles))
    return _pack_pole_sets(pole_sets)


# Beside the 32 bytes per pole a retained pole set costs (its padded
# row, then its unpacked copy): the row's length and the unpacked
# array's header and list slot.
_POLE_SET_BYTES = 128

# Bytes per q^2 the general (nonsymmetric) eig kernel holds per
# instance beyond sweep_chunk_bytes: its real G^{-1} C operand and the
# complex copy of G its G^{-1} B solve takes.  Measured on the RLC bus
# (q = 52, 4 ports, 4 frequencies, one row-pool thread): a run in
# one-instance chunks peaked 21 q^2 above sweep_chunk_bytes, chunks of
# 7 and 64 instances 10 q^2 per instance above it.
_GENERAL_EIG_Q2_BYTES = 24


def _dense_eig_bytes(target, num_frequencies: int) -> int:
    """Per-instance bytes of the dense eig kernel, which dense sweeps
    and dense pole studies (``num_frequencies = 0``) share:
    :func:`~repro.runtime.stream.sweep_chunk_bytes`, plus
    ``_GENERAL_EIG_Q2_BYTES q^2`` when the target takes the general
    kernel rather than the symmetric-definite one."""
    nominal = target.nominal
    order = nominal.order
    per_instance = sweep_chunk_bytes(
        order, num_frequencies, 1, nominal.L.shape[1], nominal.B.shape[1]
    )
    if not symmetric_definite(target):
        per_instance += _GENERAL_EIG_Q2_BYTES * order * order
    return per_instance


def _pole_run_bytes(
    target, kind: str, num_poles: int, num_samples: int
) -> Tuple[int, int, int]:
    """``(per_instance, fixed, per_chunk)`` bytes of a pole study.

    Dense chunks run the sweep kernel: per instance
    :func:`_dense_eig_bytes` at ``n_f = 0``.  Other targets factor one
    instance at a time: ``64 n^2`` (measured 48-56 ``n^2`` on the
    paper's nets), plus, on sparse targets, the shared pattern's
    ``16 nnz``.  Each instance's pole set is retained: its padded row
    and its unpacked copy, 32 bytes per pole plus ``_POLE_SET_BYTES``.
    A target with no ``nominal`` has order 0.
    """
    order = getattr(getattr(target, "nominal", None), "order", 0)
    retained = num_samples * (32 * num_poles + _POLE_SET_BYTES)
    if kind == "dense":
        return (_dense_eig_bytes(target, 0), retained + _KERNEL_HEADER_BYTES,
                _CHUNK_RECORD_BYTES)
    fixed = 64 * order * order + retained
    if kind == "sparse":
        fixed += 16 * shared_pattern_family(target).nnz
    return 0, fixed, _CHUNK_RECORD_BYTES


# -- results for the non-sweep workloads --------------------------------


def _pack_pole_sets(pole_sets) -> dict:
    """Ragged pole sets -> a rectangular ``.npz``-storable payload.

    Residue filtering can retain fewer than ``num_poles`` entries per
    instance, so the sets are zero-padded into one complex matrix with
    a per-row length vector; :func:`_unpack_pole_sets` reverses this
    exactly (values and row counts round-trip bit-for-bit).
    """
    rows = [np.asarray(p, dtype=complex).ravel() for p in pole_sets]
    lengths = np.array([row.size for row in rows], dtype=np.int64)
    width = int(lengths.max()) if lengths.size else 0
    padded = np.zeros((len(rows), width), dtype=complex)
    for k, row in enumerate(rows):
        padded[k, : row.size] = row
    return {"poles_padded": padded, "poles_lengths": lengths}


def _unpack_pole_sets(padded: np.ndarray, lengths: np.ndarray) -> List[np.ndarray]:
    """Inverse of :func:`_pack_pole_sets`."""
    return [np.array(padded[k, : int(n)]) for k, n in enumerate(lengths)]


@dataclass
class PoleStudy:
    """Dominant poles of every sampled instance (the Figs. 5-6 quantity).

    ``pole_sets[k]`` holds instance ``k``'s dominant poles in dominance
    order -- ragged, because residue filtering and coincidence merging
    can retain fewer than ``num_poles`` entries.  :attr:`poles` stacks
    them into a ``nan``-padded ``(m, num_poles)`` array.
    """

    samples: np.ndarray
    num_poles: int
    pole_sets: List[np.ndarray] = field(default_factory=list)

    @property
    def num_samples(self) -> int:
        """Number of evaluated parameter instances."""
        return self.samples.shape[0]

    @property
    def poles(self) -> np.ndarray:
        """``(m, num_poles)`` stacked poles, ``nan``-padded per row."""
        out = np.full(
            (len(self.pole_sets), self.num_poles), np.nan + 1j * np.nan, dtype=complex
        )
        for k, row in enumerate(self.pole_sets):
            row = np.asarray(row, dtype=complex)[: self.num_poles]
            out[k, : row.size] = row
        return out


@dataclass
class SensitivityStudy:
    """Exact transfer-function parameter slopes of a sampled ensemble.

    ``sensitivities`` has shape ``(m, n_p, m_out, m_in)``: instance
    ``k``'s ``dH/dp_i`` at the study's expansion point ``s``.
    """

    samples: np.ndarray
    s: complex
    sensitivities: np.ndarray

    @property
    def num_samples(self) -> int:
        """Number of evaluated parameter instances."""
        return self.samples.shape[0]


# -- the inspectable plan ----------------------------------------------


@dataclass(frozen=True)
class ExecutionPlan:
    """What :meth:`Study.run` will do, decided before anything runs.

    ``route`` is one of ``"dense-batch"``, ``"dense-stream"``,
    ``"sparse-family"``, ``"per-instance"``; ``kernel`` names the
    numeric kernel tier inside the route (e.g. the shared-pattern
    solver chosen by RCM bandwidth).  ``estimated_peak_bytes`` is the
    documented working-set estimate of the chunk loop (constant
    factor ~2), lookahead included; for sensitivities it is a rough
    one-instance figure.

    Dense sweeps run one batched eig kernel, chosen from the model
    alone: ``eig-rational[sweep-study/symmetric/...]`` (Cholesky +
    ``eigh``) when the model's pencils are symmetric-definite,
    otherwise ``eig-rational[sweep-study/...]`` (general ``eig``).  The
    last qualifier is the response contraction, ``per-frequency`` or
    ``grid``, chosen once from the study's total instance count (see
    :func:`~repro.runtime.batch.grid_contraction`).  Dense pole studies
    run it with no frequencies: ``dominant-poles[eig-sweep(/symmetric)]``.
    The ``executor`` of both is the row pool, ``row-pool(width=N)``; a
    sweep's ``lookahead`` is how many computed chunks the loop queues
    ahead of the one it folds: 1 on a multi-CPU pool when the extra
    chunk fits the budget, else 0.  Every other plan's ``executor`` is
    ``serial``: its payloads run in the chunk loop's own thread.
    """

    route: str
    kernel: str
    workload: str
    target: str
    num_samples: int
    chunk_size: int
    num_chunks: int
    estimated_peak_bytes: int
    executor: str
    notes: Tuple[str, ...] = ()
    store: Optional[str] = None
    lookahead: int = 0

    def describe(self) -> str:
        """Multi-line human-readable plan summary."""
        lines = [
            f"route:     {self.route}",
            f"kernel:    {self.kernel}",
            f"workload:  {self.workload}",
            f"target:    {self.target}",
            f"samples:   {self.num_samples}"
            f" ({self.num_chunks} chunk(s) of {self.chunk_size})",
            f"peak:      ~{self.estimated_peak_bytes / 2**20:.1f} MiB",
            f"executor:  {self.executor}"
            + (f", {self.lookahead} chunk lookahead" if self.lookahead else ""),
        ]
        if self.store is not None:
            lines.append(f"store:     {self.store}")
        for note in self.notes:
            lines.append(f"note:      {note}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()


class Study:
    """Declarative scenario-evaluation study over any supported target.

    ``target`` is a dense-batchable reduced macromodel, a sparse
    full-order parametric system, or (with :meth:`reduced`) a full
    system to be reduced first.  Builder methods return ``self`` so a
    study reads as one chained declaration; nothing is evaluated until
    :meth:`plan` (routing + reduction only) or :meth:`run`.
    """

    def __init__(self, target):
        self._target = target
        self._reducer = None
        self._cache = None
        self._scenarios = None
        self._frequencies: Optional[np.ndarray] = None
        self._keep_responses = False
        self._transient_options: Optional[dict] = None
        self._num_poles: Optional[int] = None
        self._sensitivity_point: Optional[complex] = None
        self._chunk_size: Optional[int] = None
        self._memory_budget: Optional[int] = None
        self._store: Optional[StudyStore] = None
        self._resume = False
        # (worker_id, lenient) checkpoint context of run(): work() sets
        # it around its merge phase, run() alone leaves the strict
        # no-worker default.
        self._worker_ctx: Tuple[Optional[str], bool] = (None, False)
        self._warehouse = None
        self._last_warehouse = None
        self._last_drain = None
        self._progress: Optional[ProgressCallback] = None
        self._trace_sinks: List = []
        self._last_metrics: dict = {}
        self._resolved_target = None
        self._sample_matrix: Optional[np.ndarray] = None
        # What this declaration derives once until it next changes (see
        # _invalidate): its plan, resolved transient options and study
        # fingerprint (the workload config record rides in it).
        self._memo: dict = {}

    # -- builder -------------------------------------------------------

    def _invalidate(self) -> "Study":
        self._sample_matrix = None
        self._memo = {}
        return self

    def scenarios(self, plan_or_samples) -> "Study":
        """Declare which parameter instances to visit.

        Accepts a :class:`~repro.runtime.scenarios.ScenarioPlan` (or
        any object with ``sample_matrix``) or a raw ``(m, n_p)`` sample
        matrix.
        """
        self._scenarios = plan_or_samples
        return self._invalidate()

    def sweep(self, frequencies: Sequence[float], keep_responses: bool = False) -> "Study":
        """Declare a frequency-domain workload over ``frequencies`` (Hz).

        ``keep_responses`` retains the full ``(m, n_f, m_out, m_in)``
        grid on the result (defeats the streaming memory bound; meant
        for small studies and regression tests).
        """
        self._frequencies = np.asarray(frequencies, dtype=float)
        self._keep_responses = bool(keep_responses)
        return self._invalidate()

    def transient(
        self,
        waveform=None,
        t_final: Optional[float] = None,
        num_steps: int = 500,
        method: str = "trapezoidal",
        delay_threshold: float = 0.5,
        slew_bounds: Tuple[float, float] = (0.1, 0.9),
        output_index: int = 0,
        reference: str = "steady",
        keep_outputs: bool = False,
    ) -> "Study":
        """Declare a time-domain workload.

        ``waveform`` is any :class:`~repro.runtime.scenarios.InputWaveform`
        (default: unit step); ``t_final`` defaults to the nominal
        settling horizon.  The remaining options carry the delay/slew
        extraction semantics of the transient study kernel.
        """
        self._transient_options = dict(
            waveform=waveform,
            t_final=t_final,
            num_steps=num_steps,
            method=method,
            delay_threshold=delay_threshold,
            slew_bounds=slew_bounds,
            output_index=output_index,
            reference=reference,
            keep_outputs=keep_outputs,
        )
        return self._invalidate()

    def poles(self, num: int = 5) -> "Study":
        """Request dominant poles: those with a non-negligible residue
        in the port response ``H[0, 0]``, ranked by ``|s|`` (the Figs.
        5-6 quantity, :func:`~repro.runtime.batch.dominant_pole_rows`).

        Combined with :meth:`sweep` (dense targets) the poles ride the
        sweep's eigendecomposition for free; alone, dense targets run
        the same kernel with no frequencies, bit-identical to it and to
        :func:`~repro.analysis.poles.dominant_poles`, and other targets
        run ``dominant_poles`` per instance.  Chunked like any other
        study.  ``num`` must be an integer >= 0.
        """
        if not isinstance(num, numbers.Integral) or isinstance(num, bool) or num < 0:
            raise ValueError(f"num must be an integer >= 0, got {num!r}")
        self._num_poles = int(num)
        return self._invalidate()

    def sensitivities(self, s: complex) -> "Study":
        """Request exact ``dH/dp_i`` at the complex frequency ``s``."""
        self._sensitivity_point = complex(s)
        return self._invalidate()

    def memory_budget(self, num_bytes: int) -> "Study":
        """Bound peak memory; the chunk size is derived automatically.

        Uses the documented per-chunk estimates
        (:func:`~repro.runtime.stream.sweep_chunk_bytes` /
        :func:`~repro.runtime.stream.transient_chunk_bytes`).  Raises at
        plan time, quoting the single-instance estimate, when even one
        instance cannot fit.  Mutually exclusive with :meth:`chunk`.
        """
        if num_bytes < 1:
            raise ValueError("memory budget must be >= 1 byte")
        if self._chunk_size is not None:
            raise ValueError("chunk(...) and memory_budget(...) are mutually exclusive")
        self._memory_budget = int(num_bytes)
        return self._invalidate()

    def chunk(self, chunk_size: int) -> "Study":
        """Set the streaming chunk size by hand (instances per batch).

        Mutually exclusive with :meth:`memory_budget`.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self._memory_budget is not None:
            raise ValueError("chunk(...) and memory_budget(...) are mutually exclusive")
        self._chunk_size = int(chunk_size)
        return self._invalidate()

    def store(self, store) -> "Study":
        """Persist results and checkpoints under a durable study store.

        Accepts a directory path or an existing
        :class:`~repro.runtime.store.StudyStore`.  Each chunk is written
        to disk the moment it completes, keyed by the study's content
        fingerprint; a re-run of the same study loads completed chunks
        instead of recomputing them and is bit-identical to an
        uninterrupted run.  See :mod:`repro.runtime.store` for the
        on-disk layout and the provenance (manifest fingerprint +
        per-chunk checksums) every persisted result carries.
        """
        self._store = store if isinstance(store, StudyStore) else StudyStore(store)
        return self._invalidate()

    def warehouse(self, directory) -> "Study":
        """Register this study in a warehouse catalog after each run.

        After each successful :meth:`run` (including the merge phase of
        :meth:`work`), the study is registered in the catalog at
        ``directory`` (see :class:`repro.warehouse.Warehouse`): where its
        store lives, its realized sample matrix (checked against the
        manifest, for ``p_<name>`` query columns) and per-chunk
        ``source`` provenance (``computed`` / ``resumed`` / ``stolen``)
        attributed from this run's own trace spans.  No rows are copied;
        :class:`~repro.warehouse.QueryEngine` reads the store in place.
        A registration that adds nothing writes nothing, and
        :meth:`warehouse_report` tells what the last run registered.

        Requires :meth:`store`; like :meth:`trace`, the directive
        observes the run without affecting any numeric result.
        ``directory`` may also be an existing
        :class:`~repro.warehouse.Warehouse`.
        """
        self._warehouse = directory
        return self

    def warehouse_report(self):
        """The :class:`~repro.warehouse.RegisterReport` of the most
        recent :meth:`run` with a :meth:`warehouse` declared (``None``
        before the first)."""
        return self._last_warehouse

    def resume(self, flag: bool = True) -> "Study":
        """Require (and reuse) persisted checkpoints from :meth:`store`.

        A store-backed run always skips chunks that are already
        persisted; ``resume()`` additionally *asserts* there is
        something to resume -- it raises
        :class:`~repro.runtime.store.StoreError` when the store holds
        no manifest for this study's fingerprint (or a corrupt or
        layout-incompatible one), instead of silently starting over.
        Every manifest for the study's fingerprint is merged -- a
        previous run's, each :meth:`work` worker's, and the shard-named
        manifests of static shard runs from older releases.
        """
        self._resume = bool(flag)
        return self._invalidate()

    def reduced(self, reducer) -> "Study":
        """Reduce the target with ``reducer`` before evaluation.

        ``reducer.reduce(target)`` runs lazily at plan time (once;
        memoized).  Combine with :meth:`cached` to skip reduction on
        repeat workloads.
        """
        self._reducer = reducer
        self._resolved_target = None
        return self._invalidate()

    def cached(self, cache) -> "Study":
        """Route the :meth:`reduced` reduction through a ModelCache."""
        self._cache = cache
        self._resolved_target = None
        return self._invalidate()

    def progress(self, callback: ProgressCallback) -> "Study":
        """Register ``callback(instances_done, total_instances)``."""
        self._progress = callback
        return self._invalidate()

    def trace(self, sink) -> "Study":
        """Attach an observability sink for this study's runs.

        ``sink`` is either a path (a JSONL trace file is opened for the
        duration of each :meth:`run` and closed afterwards) or any sink
        object with an ``emit(record)`` method -- e.g.
        :class:`~repro.obs.trace.MemorySink`,
        :class:`~repro.obs.export.JsonlSink` (then caller-owned, left
        open), or :class:`~repro.obs.progress.ProgressReporter`.  Sinks
        accumulate: several may observe the same run.  While at least
        one sink is installed the engine, the chunk loop, the
        store, and the sparse solvers emit spans (``study.run`` >
        ``study.chunk`` > ``store.save`` / ``sparse.refactor`` /
        ``poles.instance`` / ...).  With no sink attached every span
        site short-circuits to a shared no-op.
        """
        self._trace_sinks.append(sink)
        return self

    def metrics(self) -> dict:
        """Metrics-registry delta of the most recent :meth:`run`.

        Returns ``{"counters": ..., "gauges": ..., "histograms": ...}``
        with only the instruments the run moved (e.g.
        ``study.instances_evaluated``, ``store.chunks_saved``,
        ``linalg.sparselu.refactorizations``); ``{}`` before the first
        run.  The underlying instruments are process-global (see
        :func:`repro.obs.registry`); this view isolates one run's
        contribution.
        """
        return self._last_metrics

    # -- resolution ----------------------------------------------------

    def _resolve_target(self):
        """The object the kernels evaluate (after any cached reduction)."""
        if self._resolved_target is not None:
            return self._resolved_target
        target = self._target
        if self._cache is not None and self._reducer is None:
            raise ValueError("cached(cache) requires reduced(reducer)")
        if self._reducer is not None:
            model = None
            key = None
            if self._cache is not None:
                key = self._cache.key(target, self._reducer)
                model = self._cache.load(key)
            if model is None:
                model = self._reducer.reduce(target)
                if isinstance(model, tuple):  # adaptive reducers return (model, report)
                    model = model[0]
                if key is not None:
                    self._cache.store(key, model)
            target = model
        self._resolved_target = target
        return target

    def _target_kind(self) -> str:
        target = self._resolve_target()
        if supports_batching(target):
            return "dense"
        if supports_sparse_batching(target):
            return "sparse"
        return "other"

    def _workload(self) -> str:
        declared = [
            name
            for name, present in (
                ("sweep", self._frequencies is not None),
                ("transient", self._transient_options is not None),
                ("sensitivities", self._sensitivity_point is not None),
            )
            if present
        ]
        if len(declared) > 1:
            raise ValueError(f"declare exactly one workload, got {declared}")
        if not declared:
            if self._num_poles is None:
                raise ValueError(
                    "no workload declared: call .sweep(...), .transient(...), "
                    ".poles(...), or .sensitivities(...)"
                )
            return "poles"
        workload = declared[0]
        if workload == "transient":
            # At plan time, before any horizon or fingerprint is
            # derived from the options.
            _check_transient_options(self._transient_options)
        if self._num_poles is not None:
            if workload != "sweep":
                raise ValueError(f"poles(...) cannot be combined with {workload}(...)")
            return "sweep+poles"
        return workload

    def _samples(self) -> np.ndarray:
        if self._sample_matrix is not None:
            return self._sample_matrix
        if self._scenarios is None:
            raise ValueError("no scenarios: call .scenarios(plan_or_samples) first")
        target = self._resolve_target()
        if isinstance(self._scenarios, ScenarioPlan) or hasattr(
            self._scenarios, "sample_matrix"
        ):
            samples = self._scenarios.sample_matrix(target.num_parameters)
        else:
            samples = as_sample_matrix(target, self._scenarios)
        self._sample_matrix = samples
        return samples

    def _scenario_plan(self) -> Optional[ScenarioPlan]:
        if isinstance(self._scenarios, ScenarioPlan) or hasattr(
            self._scenarios, "sample_matrix"
        ):
            return self._scenarios
        return None

    # -- planning ------------------------------------------------------

    def _per_instance_bytes(
        self, workload: str, kind: str, num_samples: int
    ) -> Tuple[int, int, int]:
        """``(per_instance, fixed, per_chunk)`` bytes of a streamed run.

        A dense sweep's instance costs :func:`_dense_eig_bytes`, the
        kernel it shares with dense pole studies.  A swept pole study
        (``.sweep(f).poles(k)``) also retains every instance's pole set
        and prices it as :func:`_pole_run_bytes` does: ``32 k +
        _POLE_SET_BYTES`` per instance and ``_CHUNK_RECORD_BYTES`` per
        chunk.
        ``fixed`` covers what lives across chunks: the streaming
        reducer's envelope accumulator (three float64 arrays shaped
        like one instance's statistic grid -- running min, sum, max)
        and, on the sparse route, the workspace of one instance's
        pencil solve (instances are solved one at a time).
        The accumulator was historically omitted, which understated
        the peak on every streamed route (most visibly the
        cached+reduced one, where the chunk arrays are smallest).
        Transients also hold the per-run terms of
        :func:`~repro.runtime.stream._transient_run_bytes` -- the
        metrics (and kept outputs) retained across chunks among them
        -- and ``per_chunk`` bytes of array headers for every chunk.
        Pole studies factor one instance at a time: see
        :func:`_pole_run_bytes`.
        """
        target = self._resolve_target()
        if workload == "poles":
            return _pole_run_bytes(target, kind, self._num_poles, num_samples)
        if workload in ("sweep", "sweep+poles"):
            n_f = self._frequencies.size
            m_out = target.nominal.L.shape[1]
            m_in = target.nominal.B.shape[1]
            fixed, per_chunk = 24 * n_f * m_out * m_in, 0
            if workload == "sweep+poles":
                fixed += num_samples * (32 * self._num_poles + _POLE_SET_BYTES)
                per_chunk = _CHUNK_RECORD_BYTES
            if kind == "sparse":
                family = shared_pattern_family(target)
                # Two (c, nnz) data stacks + the chunk's response grid,
                # plus one instance's pencil-solve workspace.
                per = 16 * (2 * family.nnz + n_f * m_out * m_in)
                return per, family.workspace_bytes(n_f) + fixed, per_chunk
            return _dense_eig_bytes(target, n_f), fixed, per_chunk
        options = self._transient_options
        num_steps = options["num_steps"]
        m_out = target.nominal.L.shape[1]
        per = transient_chunk_bytes(target.nominal.order, num_steps, 1, m_out)
        fixed = _transient_run_bytes(
            num_samples, num_steps, m_out, target.nominal.B.shape[1],
            options["keep_outputs"],
        )
        return per, fixed, _CHUNK_RECORD_BYTES

    def _chunk_plan(self, workload: str, kind: str, num_samples: int):
        """``(chunk_size, num_chunks, estimated_peak_bytes)`` for streams."""
        per_instance, fixed, per_chunk = self._per_instance_bytes(
            workload, kind, num_samples
        )

        def peak(chunk: int) -> int:
            return chunk * per_instance + fixed + per_chunk * -(-num_samples // chunk)

        if self._chunk_size is not None:
            chunk = min(self._chunk_size, max(num_samples, 1))
        elif self._memory_budget is not None:
            chunk = (self._memory_budget - fixed - per_chunk) // max(per_instance, 1)
            chunk = min(int(chunk), max(num_samples, 1))
            # Smaller chunks keep more per-chunk records: step down to
            # the largest chunk whose whole run fits.
            while chunk >= 1 and peak(chunk) > self._memory_budget:
                chunk -= 1
            if chunk < 1:
                raise ValueError(
                    f"memory budget {self._memory_budget} bytes cannot fit a "
                    f"single instance: one instance of this workload needs "
                    f"~{peak(1)} bytes "
                    f"({per_instance} per instance + {peak(1) - per_instance} "
                    "fixed); raise the budget or shrink the frequency/timestep "
                    "axis"
                )
        else:
            chunk = max(num_samples, 1)
        num_chunks = -(-num_samples // chunk) if num_samples else 0
        return chunk, num_chunks, int(peak(chunk))

    def _describe_target(self, kind: str) -> str:
        target = self._resolve_target()
        if kind == "dense":
            return f"dense-reduced (q={target.nominal.order})"
        if kind == "sparse":
            # Nominal pattern only -- describing a target must not pay
            # for the union-pattern family (sweep routes build it anyway,
            # memoized; the per-instance sensitivity route never needs it).
            nominal = target.nominal
            return f"sparse-full (n={nominal.order}, nnz={nominal.G.nnz})"
        return f"full ({type(target).__name__})"

    def plan(self) -> ExecutionPlan:
        """Decide (and report) the route without evaluating anything.

        Resolving the plan runs any :meth:`reduced` reduction (memoized
        across calls) because routing depends on the resolved target's
        shape; everything else is pure accounting, tens of microseconds
        to a tenth of a millisecond on the perfbench studies.  The plan
        is memoized on this Study until its declaration next changes, so
        ``plan()`` followed by ``run()`` pays once.
        """
        plan = self._memo.get("plan")
        if plan is None:
            with obs_trace.span("study.plan") as plan_span:
                plan = self._memo["plan"] = self._build_plan()
                plan_span.set(route=plan.route, kernel=plan.kernel)
        return plan

    def _build_plan(self) -> ExecutionPlan:
        workload = self._workload()
        kind = self._target_kind()
        target = self._resolve_target()
        notes: List[str] = []
        if self._resume and self._store is None:
            raise ValueError("resume() requires store(directory)")
        store_path = None if self._store is None else str(self._store.directory)
        if workload == "sensitivities":
            return self._sensitivity_plan(kind, target, store_path)

        # Route validation first: it must not depend on sample
        # realization (which needs a parametric target to begin with).
        if kind == "other" and workload != "poles":
            raise ValueError(
                f"{target!r} supports neither dense nor sparse batching; "
                "see repro.runtime.batch.supports_batching"
            )
        if workload == "transient" and kind == "sparse":
            raise ValueError(
                "transient studies require a dense-batchable model "
                "(reduce the system first; full-order sparse ensembles are "
                "frequency-domain only)"
            )
        if workload == "sweep+poles" and kind == "sparse":
            raise ValueError(
                "full-order sparse sweeps compute responses only; drop "
                ".poles(...) (dense eigendecompositions of the full model "
                "are not a streaming quantity)"
            )
        num_samples = self._samples().shape[0]
        chunk, num_chunks, peak = self._chunk_plan(workload, kind, num_samples)
        executor_label = "serial"
        lookahead = 0
        if workload == "poles":
            if self._store is not None:
                notes.append(f"pole checkpoint unit: {chunk} instance(s) per chunk")
            if kind == "dense":
                symmetric = "/symmetric" if symmetric_definite(target) else ""
                kernel = f"dominant-poles[eig-sweep{symmetric}]"
                executor_label = f"row-pool(width={executor_module.row_pool_width()})"
            elif kind == "sparse":
                family = shared_pattern_family(target)
                kernel = f"dominant-poles[shared-pattern/{family.solver_kind}]"
            else:
                kernel = "dominant-poles[instantiate]"
        elif workload == "transient":
            kernel = "transient-propagator[gesv]"
            if self._transient_options["keep_outputs"]:
                notes.append("keep_outputs retains the full trajectory grid")
        elif kind == "sparse":
            family = shared_pattern_family(target)
            kernel = f"shared-pattern[{family.solver_kind}]"
        else:
            contraction = (
                "grid" if grid_contraction(num_samples, self._frequencies.size)
                else "per-frequency"
            )
            symmetric = "/symmetric" if symmetric_definite(target) else ""
            kernel = f"eig-rational[sweep-study{symmetric}/{contraction}]"
            width = executor_module.row_pool_width()
            executor_label = f"row-pool(width={width})"
            extra = sweep_lookahead_bytes(
                self._frequencies.size, chunk,
                target.nominal.L.shape[1], target.nominal.B.shape[1],
            )
            if width > 1 and num_chunks > 1 and (
                self._memory_budget is None
                or peak + extra <= self._memory_budget
            ):
                lookahead = 1
                peak += extra
        if workload in ("sweep", "sweep+poles") and self._keep_responses:
            m_out = target.nominal.L.shape[1]
            m_in = target.nominal.B.shape[1]
            peak += 16 * num_samples * self._frequencies.size * m_out * m_in
            notes.append("keep_responses retains the full response grid")
        if kind != "dense":
            route = "per-instance" if workload == "poles" else "sparse-family"
        elif num_chunks <= 1 or workload == "poles":
            route = "dense-batch"
        else:
            route = "dense-stream"
        return ExecutionPlan(
            route=route,
            kernel=kernel,
            workload=workload,
            target=self._describe_target(kind),
            num_samples=num_samples,
            chunk_size=chunk,
            num_chunks=num_chunks,
            estimated_peak_bytes=peak,
            executor=executor_label,
            notes=tuple(notes),
            store=store_path,
            lookahead=lookahead,
        )

    def _sensitivity_plan(self, kind: str, target, store_path) -> ExecutionPlan:
        """The one-unit plan of a sensitivity study (never chunked)."""
        if self._store is not None:
            raise ValueError(
                "sensitivity studies do not support store(); durable "
                "checkpointing covers sweep, transient, and pole studies"
            )
        num_samples = self._samples().shape[0]
        order = getattr(getattr(target, "nominal", None), "order", 0)
        if kind == "dense":
            route, kernel = "dense-batch", "batch-sensitivities[gesv]"
            peak = 48 * num_samples * order * order
        else:
            route, kernel = "per-instance", "sensitivities[sparse-lu]"
            # Estimate straight off the nominal pattern: each sample
            # factors its own instantiation and never needs the
            # shared-pattern family, so don't pay to build one here.
            nominal_g = getattr(getattr(target, "nominal", None), "G", None)
            peak = 64 * getattr(nominal_g, "nnz", order * order)
        return ExecutionPlan(
            route=route,
            kernel=kernel,
            workload="sensitivities",
            target=self._describe_target(kind),
            num_samples=num_samples,
            chunk_size=num_samples,
            num_chunks=1 if num_samples else 0,
            estimated_peak_bytes=int(peak),
            executor="serial",
            store=store_path,
        )

    # -- execution -----------------------------------------------------

    def _resolve_trace_sinks(self) -> Tuple[List, List]:
        """``(installed, owned)``: sinks to install, and which to close.

        Paths become run-scoped :class:`~repro.obs.export.JsonlSink`
        files (opened lazily, closed when the run finishes); sink
        objects pass through and stay caller-owned.
        """
        installed: List = []
        owned: List = []
        for spec in self._trace_sinks:
            if isinstance(spec, (str, os.PathLike)):
                sink = JsonlSink(spec)
                owned.append(sink)
                installed.append(sink)
            else:
                installed.append(spec)
        return installed, owned

    def run(self):
        """Execute the planned route.

        Returns the route's canonical result object:
        :class:`~repro.runtime.stream.StreamedSweepStudy` for sweeps,
        :class:`~repro.runtime.stream.StreamedTransientStudy` for
        transients, :class:`PoleStudy` for pole studies,
        :class:`SensitivityStudy` for sensitivities.  Every route but
        sensitivities walks the chunk grid through
        :func:`repro.runtime.stream._drive_chunks`, loading each
        checkpointed chunk and computing (and checkpointing) the rest.

        Observability: the run executes under a ``study.run`` root span
        (emitted to any :meth:`trace` sinks plus globally installed
        ones), and :meth:`metrics` afterwards reports the registry
        delta the run produced.  Neither affects any numeric result.
        """
        sinks, owned_sinks = self._resolve_trace_sinks()
        lineage_sink = None
        if self._warehouse is not None:
            # A private in-memory sink captures this run's chunk spans so
            # the post-run registration can attribute each chunk's source
            # (computed / resumed / stolen) instead of the flat "stored"
            # a bare manifest walk would yield.
            lineage_sink = obs_trace.MemorySink()
            sinks = sinks + [lineage_sink]
        for sink in sinks:
            obs_trace.add_sink(sink)
        try:
            before = obs_metrics.registry().snapshot()
            with obs_trace.span("study.run") as root:
                plan = self.plan()
                if self._warehouse is not None:
                    if plan.workload == "sensitivities":
                        raise ValueError(
                            "warehouse(...) cannot register a sensitivities "
                            "study: the workload has no durable checkpoints"
                        )
                    if self._store is None:
                        raise ValueError(
                            "warehouse(...) requires store(...): the "
                            "warehouse reads durable chunk checkpoints"
                        )
                root.set(
                    route=plan.route,
                    kernel=plan.kernel,
                    workload=plan.workload,
                    num_samples=plan.num_samples,
                    chunk_size=plan.chunk_size,
                    num_chunks=plan.num_chunks,
                    executor=plan.executor,
                    lookahead=plan.lookahead,
                    store=plan.store,
                )
                result = self._execute(plan)
            if lineage_sink is not None:
                self._register_warehouse(lineage_sink)
            self._last_metrics = obs_metrics.snapshot_delta(
                before, obs_metrics.registry().snapshot()
            )
            if obs_trace.enabled():
                obs_trace.emit_record(
                    {"type": "metrics", "delta": self._last_metrics}
                )
            return result
        finally:
            for sink in sinks:
                obs_trace.remove_sink(sink)
            for sink in owned_sinks:
                sink.close()

    def work(
        self,
        store=None,
        ttl: float = 30.0,
        poll: float = 0.2,
        worker: Optional[str] = None,
        max_chunks: Optional[int] = None,
        board: Optional[LeaseBoard] = None,
    ):
        """Work-steal this study's chunks from a shared store, then merge.

        This is how one study is split across processes or machines:
        this process claims unfinished chunks one at a time through
        lease files in the store directory
        (:mod:`repro.runtime.scheduler`), so any number of
        heterogeneous workers running the same declaration against the
        same store finish the study together -- a dead worker's leases
        expire and are stolen, a slow one simply takes fewer chunks.
        Each claimed chunk is computed by the same payload function and
        checkpointed through the same checkpoint unit as a :meth:`run`
        chunk, to this worker's own manifest and worker-suffixed chunk
        files, so racing workers never write the same file.

        When the drain finds every chunk checkpointed it merges through
        the ordinary :meth:`run` path -- each chunk's SHA-256 verified
        against its manifest before folding, corrupt copies re-queued
        and recomputed -- and returns the route's canonical result
        object, **bit-identical** to a one-shot run.  When
        ``max_chunks`` stopped this worker early the study is someone
        else's to finish and ``None`` is returned;
        :meth:`drain_report` tells either way what this worker did.

        Parameters
        ----------
        store:
            Store directory (or :class:`StudyStore`); optional if
            :meth:`store` was already declared.
        ttl:
            Lease time-to-live in seconds (see
            :class:`~repro.runtime.scheduler.LeaseBoard`).
        poll:
            Seconds between store re-scans while every remaining chunk
            is claimed by another worker.
        worker:
            Explicit worker id (filename-safe; validated); default is a
            fresh ``host-pid-random`` id.
        max_chunks:
            Stop after computing this many chunks (chaos drills).
        board:
            Inject a preconfigured
            :class:`~repro.runtime.scheduler.LeaseBoard` (tests use a
            fake clock); default builds one from ``ttl``.
        """
        if store is not None:
            self.store(store)
        if self._store is None:
            raise ValueError(
                "work() requires a store: pass a directory or call .store(...)"
            )
        worker_id = (
            parse_worker_id(worker) if worker is not None else default_worker_id()
        )
        sinks, owned_sinks = self._resolve_trace_sinks()
        for sink in sinks:
            obs_trace.add_sink(sink)
        try:
            with obs_trace.span("study.work", worker=worker_id) as root:
                plan = self.plan()
                target = self._resolve_target()
                samples = self._samples()
                root.set(
                    route=plan.route,
                    workload=plan.workload,
                    num_chunks=plan.num_chunks,
                    store=plan.store,
                )
                checkpoint = self._open_checkpoint(plan, worker=worker_id)
                try:
                    lease_board = board if board is not None else LeaseBoard(
                        self._store, checkpoint.key, worker=worker_id, ttl=ttl
                    )
                    grid = _chunk_grid(plan.num_samples, plan.chunk_size)
                    payload_fn, _, _ = self._chunk_workload(plan, target)

                    def compute(index: int) -> None:
                        lo, hi = grid[index]
                        _chunk_unit(
                            checkpoint, index, lo, hi, payload_fn, samples[lo:hi]
                        )

                    report = drain_chunks(
                        checkpoint, compute, lease_board,
                        poll=poll, max_chunks=max_chunks,
                    )
                finally:
                    checkpoint.close()
                self._last_drain = report
                root.set(
                    drained=report.drained,
                    computed=len(report.computed),
                    stolen=len(report.stolen),
                    waits=report.waits,
                )
        finally:
            for sink in sinks:
                obs_trace.remove_sink(sink)
            for sink in owned_sinks:
                sink.close()
        if not report.drained:
            return None
        # Merge through the ordinary run() path: every chunk is loaded
        # with its recorded SHA-256 verified and folded in global chunk
        # order.  Lenient mode turns a chunk whose every copy fails
        # verification into an inline recompute (the chunk unit's
        # nothing-loaded branch) instead of a fatal StoreError.
        self._worker_ctx = (worker_id, True)
        try:
            return self.run()
        finally:
            self._worker_ctx = (None, False)

    def drain_report(self):
        """The :class:`~repro.runtime.scheduler.DrainReport` of the most
        recent :meth:`work` call (``None`` before the first)."""
        return self._last_drain

    def fingerprint(self) -> dict:
        """The study's durable content fingerprint, without running it.

        The same :func:`~repro.runtime.store.study_fingerprint` record
        :meth:`run` and :meth:`work` key their manifests by -- target
        content hash, sample-matrix hash, workload name, canonical
        config -- plus the combined ``key``.  Servers use this for
        content-addressed result lookup (an identical declaration from
        a different client lands on the same key) and clients use it to
        re-verify what a server computed.  Only durable workloads have
        a fingerprint; ``sensitivities`` raises ``ValueError``.

        Derived once per declaration: the checkpoint, the
        :meth:`warehouse` registration and every later call read the
        same record, so treat it as read-only.
        """
        fingerprint = self._memo.get("fingerprint")
        if fingerprint is None:
            workload = self.plan().workload
            fingerprint = self._memo["fingerprint"] = study_fingerprint(
                self._resolve_target(), workload, self._samples(),
                self._workload_config(workload),
            )
        return fingerprint

    def _register_warehouse(self, lineage_sink):
        """Post-run hook of the :meth:`warehouse` directive.

        Joins the run's captured chunk spans into per-chunk source
        attribution, then registers this study in the catalog.  Errors
        propagate as the directive's failure -- the study result is
        already computed by this point, but an explicitly requested
        warehouse that cannot be written is not something to swallow.
        The warehouse package is imported lazily so studies without the
        directive never touch it.
        """
        from repro.obs.export import chunk_lineage, lineage_sources
        from repro.warehouse import Warehouse

        directory = self._warehouse
        warehouse = (
            directory if isinstance(directory, Warehouse)
            else Warehouse(directory)
        )
        self._last_warehouse = warehouse.register(
            self._store,
            key=self.fingerprint()["key"],
            samples=self._samples(),
            parameter_names=getattr(
                self._resolve_target(), "parameter_names", None
            ),
            lineage=lineage_sources(chunk_lineage(lineage_sink.records)),
        )
        return self._last_warehouse

    def _chunk_workload(self, plan: ExecutionPlan, target):
        """``(payload_fn, queue, build)`` for the plan's workload.

        The one factory behind both chunk loops -- :meth:`run` and the
        compute :meth:`work` hands to the drain: ``payload_fn(block)``
        computes one chunk's persistable payload, ``queue(block)``
        queues the same payload on the row pool when the plan has a
        chunk of lookahead (else ``None``), and ``build(samples,
        folded)`` turns the folded chunks into the route's result
        object.
        """
        queue = None
        if plan.workload in ("sweep", "sweep+poles"):
            dense = supports_batching(target)
            options = dict(
                num_poles=self._num_poles,
                keep_poles=dense and self._num_poles is not None,
                keep_responses=self._keep_responses,
                grid=dense and grid_contraction(
                    plan.num_samples, self._frequencies.size
                ),
            )
            payload_fn = functools.partial(
                _sweep_chunk_payload,
                target,
                None if dense else shared_pattern_family(target),
                self._frequencies,
                **options,
            )
            if plan.lookahead:
                queue = functools.partial(
                    _queue_sweep_chunk, target, self._frequencies, **options
                )

            def build(samples, folded):
                return _sweep_result(
                    folded, self._scenario_plan(), samples,
                    self._frequencies, plan.chunk_size,
                )

        elif plan.workload == "transient":
            options = self._resolved_transient_options()
            payload_fn = functools.partial(
                _transient_chunk_payload, target, **options
            )

            def build(samples, folded):
                return _transient_result(
                    folded, self._scenario_plan(), samples, plan.chunk_size,
                    options["waveform"], options["t_final"],
                    options["num_steps"], options["method"],
                )

        else:  # poles
            num_poles = self._num_poles
            payload_fn = functools.partial(
                _pole_chunk_payload,
                target,
                shared_pattern_family(target)
                if supports_sparse_batching(target) else None,
                num_poles,
            )

            def build(samples, folded):
                pole_sets: List[np.ndarray] = []
                for padded, lengths in zip(
                    folded.columns["poles_padded"], folded.columns["poles_lengths"]
                ):
                    pole_sets.extend(_unpack_pole_sets(padded, lengths))
                return PoleStudy(
                    samples=samples,
                    num_poles=num_poles,
                    pole_sets=pole_sets,
                )

        return payload_fn, queue, build

    def _resolved_transient_options(self) -> dict:
        """Transient options with the waveform/horizon defaults realized,
        once per declaration (the horizon is an eigensolve).

        Resolved before fingerprinting so a resumed (or work-stolen)
        study keys on the waveform and horizon it actually ran with.
        """
        options = self._memo.get("transient")
        if options is None:
            options = dict(self._transient_options)
            if options["waveform"] is None:
                options["waveform"] = StepInput()
            if options["t_final"] is None:
                options["t_final"] = default_horizon(self._resolve_target())
            self._memo["transient"] = options
        return options

    def _workload_config(self, workload: str) -> dict:
        """The workload's canonical option record -- the ``config``
        component of the study fingerprint, memoized inside it (see
        :meth:`fingerprint`).  One definition shared by :meth:`run` and
        :meth:`work`, so a worker draining a study and a one-shot run of
        the same declaration land on the same manifest key."""
        if workload in ("sweep", "sweep+poles"):
            config = {
                "frequencies": array_fingerprint(self._frequencies),
                "num_poles": self._num_poles,
                "keep_responses": self._keep_responses,
            }
            if workload == "sweep+poles":  # never fold in raw |s| ranks
                config["poles"] = "residue"
            return config
        if workload == "transient":
            options = self._resolved_transient_options()
            return {
                "waveform": repr(options["waveform"]),
                "t_final": float(options["t_final"]),
                "num_steps": int(options["num_steps"]),
                "method": options["method"],
                "delay_threshold": float(options["delay_threshold"]),
                "slew_bounds": [float(b) for b in options["slew_bounds"]],
                "output_index": int(options["output_index"]),
                "reference": options["reference"],
                "keep_outputs": bool(options["keep_outputs"]),
            }
        if workload == "poles":
            return {"num_poles": self._num_poles}
        raise ValueError(f"workload {workload!r} has no durable config record")

    def _execute(self, plan: ExecutionPlan):
        target = self._resolve_target()
        samples = self._samples()
        if plan.workload == "sensitivities":
            return self._run_sensitivities(plan, target, samples)
        worker, lenient = self._worker_ctx
        checkpoint = self._open_checkpoint(
            plan, worker=worker, lenient=lenient, resume=self._resume
        )
        try:
            payload_fn, queue, build = self._chunk_workload(plan, target)
            folded = _drive_chunks(
                "sweep" if plan.workload.startswith("sweep") else plan.workload,
                samples, plan.chunk_size, payload_fn,
                checkpoint=checkpoint, progress=self._progress, queue=queue,
            )
        finally:
            if checkpoint is not None:
                checkpoint.close()
        return build(samples, folded)

    def _open_checkpoint(
        self, plan: ExecutionPlan, worker: Optional[str] = None,
        lenient: bool = False, resume: bool = False,
    ):
        """The chunk loop's :class:`StudyCheckpoint`, or ``None`` without
        a store.  ``worker`` names a work-stealing worker's own manifest
        and chunk files, ``lenient`` re-queues chunks whose every copy
        fails verification (the merge after a drain), and ``resume``
        requires existing history (see :meth:`resume`)."""
        if self._store is None:
            return None
        fingerprint = self.fingerprint()
        # Stamp the durable identity onto the enclosing study.run (or
        # study.work) span, so a trace line joins back to its manifest.
        obs_trace.annotate(study_key=fingerprint["key"])
        context = {
            "route": plan.route,
            "kernel": plan.kernel,
            "workload": plan.workload,
            "executor": plan.executor,
        }
        if worker is not None:
            context["worker"] = worker
        return self._store.checkpoint(
            fingerprint,
            chunk_size=plan.chunk_size,
            num_chunks=plan.num_chunks,
            num_samples=plan.num_samples,
            resume=resume,
            worker=worker,
            lenient=lenient,
            context=context,
        )

    def _run_sensitivities(
        self, plan: ExecutionPlan, target, samples
    ) -> SensitivityStudy:
        from repro.analysis.sensitivity import _scalar_sensitivities

        s = self._sensitivity_point
        if plan.route == "dense-batch":
            sensitivities = batch_transfer_sensitivities(target, s, samples)
        else:
            rows = []
            for point in samples:
                with obs_trace.span("sensitivities.instance"):
                    rows.append(_scalar_sensitivities(target, s, point))
            sensitivities = np.stack(rows)
        if self._progress is not None:
            self._progress(samples.shape[0], samples.shape[0])
        return SensitivityStudy(samples=samples, s=s, sensitivities=sensitivities)

    def __repr__(self) -> str:
        directives = []
        if self._scenarios is not None:
            directives.append(f"scenarios={self._scenarios!r}")
        if self._frequencies is not None:
            directives.append(f"sweep[{self._frequencies.size} freqs]")
        if self._transient_options is not None:
            directives.append(
                f"transient[{self._transient_options['num_steps']} steps]"
            )
        if self._num_poles is not None:
            directives.append(f"poles[{self._num_poles}]")
        if self._sensitivity_point is not None:
            directives.append(f"sensitivities[s={self._sensitivity_point}]")
        return f"Study({type(self._target).__name__}, {', '.join(directives)})"
