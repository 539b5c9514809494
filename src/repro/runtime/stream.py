"""The chunk loop: million-sample plans in bounded memory.

The one-shot batch kernels materialize every intermediate for the whole
ensemble at once -- ``(m, q, q)`` system stacks, ``(m, nt + 1, m_out)``
trajectories, ``(m, n_f, m_out, m_in)`` response grids.  For a
laptop-scale reduced model that caps ``m`` at a few tens of thousands;
the paper's protocol (and the ROADMAP's million-user north star) wants
ensembles far beyond that.

This module is the single loop every chunked route of
:class:`~repro.runtime.engine.Study` runs through.
:func:`_drive_chunks` walks the plan's chunk grid in order; per chunk
it obtains one **payload** -- a dict of arrays computed by a
workload-specific payload function (:func:`_sweep_chunk_payload`,
:func:`_transient_chunk_payload`, or the engine's pole payload) --
folds the ``env_*`` entries into a running envelope and appends every
other column.  Three small builders (:func:`_sweep_result`,
:func:`_transient_result`, and the engine's pole builder) turn the
folded chunks into :class:`StreamedSweepStudy`,
:class:`StreamedTransientStudy`, and
:class:`~repro.runtime.engine.PoleStudy`.

Peak-memory bound
-----------------

Per chunk of ``c`` instances (order ``q``, ``n_f`` frequencies,
``n_t`` timesteps, ``m_out``/``m_in`` ports), the payload functions
hold

- sweep:      ``16 c (2 q^2 + q (q + m_in) + n_f m_out m_in)`` bytes
  (system stacks + eigenfactors + the chunk's response grid),
- transient:  ``8 c (6 q^2 + 2 q (n_b + (s + 1) m_out) + 2 s^2 m_out
  + 4 (n_t + s) m_out)`` bytes, ``s`` timesteps to a block and ``n_b``
  blocks (system stacks + the propagator solve + block-start states +
  the per-block powers and block-Toeplitz map + output products and
  trajectories),

within a small constant factor -- see :func:`sweep_chunk_bytes` and
:func:`transient_chunk_bytes`.  A dense sweep with one chunk of
lookahead (see below) adds ``24 c n_f m_out m_in`` bytes
(:func:`sweep_lookahead_bytes`): the folded chunk's response grid and
magnitudes, still held while the next chunk computes.  Everything
retained across chunks is ``O(m)`` scalars per instance (delays,
poles, steady states) plus the ``O(n_f)`` / ``O(n_t)`` envelope
accumulators, so total memory is flat in the plan size for any fixed
``chunk_size``.  (The accumulator's three running arrays are part of
the working set and are included in the engine's
:class:`~repro.runtime.engine.ExecutionPlan` peak estimate as a fixed
term, as is the lookahead.  A transient run's estimate also counts the
previous chunk's envelope partials, the drive tables, the retained
per-instance metrics and kept outputs with their final concatenation,
and every chunk's array headers -- :func:`_transient_run_bytes`.)

Row blocks and lookahead
------------------------

A dense eig sweep chunk runs as contiguous row blocks, one per usable
CPU, on the process-wide row pool of :mod:`repro.runtime.executor`;
the blocks write into the chunk's own response array, and the
envelope reductions run on the whole chunk afterwards.  On a
multi-CPU pool the loop also queues the next computed chunk's blocks
before it waits for, saves and folds the current one, so the pool
never idles at a chunk boundary.  The chunk grid, the checkpoint unit
and the order of loads, saves, folds and progress are unchanged.

Checkpoint units
----------------

Each chunk is also the **checkpoint unit** of the durable-study layer
(:mod:`repro.runtime.store`).  :func:`_chunk_unit` is the one place a
chunk is loaded from or saved to a
:class:`~repro.runtime.store.StudyCheckpoint`: the loop behind
``Study.run()`` calls it for every chunk, and the work-stealing compute
behind ``Study.work()`` calls it for every chunk it claims, so both
paths persist identical records.  A loaded payload has passed its
recorded SHA-256 before it is folded; because the folded arrays
round-trip ``.npz`` bit-exactly and are folded in the same chunk
order, a resumed or work-stolen study is bit-identical to an
uninterrupted one.

Determinism contract
--------------------

Every per-instance quantity (responses, poles, trajectories, delays,
slews, steady states) and the envelope ``min``/``max`` are
**bit-identical** to one-shot evaluation: the batch kernels process
instances independently, so slicing the sample matrix into chunks
cannot change any row's arithmetic.  Row blocks are slices of a chunk
in the same sense, so chunk payloads are byte-identical whatever the
pool width, and the one choice that depends on a batch's size -- the
response contraction of the eig kernel -- is made once per study from
its total instance count and followed by every chunk and block.  The
envelope ``mean`` is
accumulated as a running chunk sum and may differ from the one-shot
``numpy.mean`` (pairwise summation) in the last bits -- the only
deliberate deviation, and it is documented here.  Progress callbacks
``progress(done, total)`` fire after every chunk.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.batch import _queue_sweep, _sweep_study
from repro.runtime.scenarios import ScenarioPlan
from repro.runtime.transient import BLOCK_STEPS, _transient_study

ProgressCallback = Callable[[int, int], None]

# Per-chunk instruments of the chunk loop.  Counters/histograms are
# always live (a handful of attribute updates per *chunk*); spans
# additionally fire only while a trace sink is installed.
_CHUNKS_COMPLETED = obs_metrics.counter("study.chunks_completed")
_INSTANCES_EVALUATED = obs_metrics.counter("study.instances_evaluated")
_CHUNK_WALL = obs_metrics.histogram("study.chunk_wall_seconds")
_CHUNK_CPU = obs_metrics.histogram("study.chunk_cpu_seconds")


def _chunk_grid(num_items: int, chunk_size: int) -> List[Tuple[int, int]]:
    """``(lo, hi)`` of every chunk, in order -- the plan's chunk grid."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    return [
        (lo, min(lo + chunk_size, num_items))
        for lo in range(0, num_items, chunk_size)
    ]


def sweep_chunk_bytes(
    order: int,
    num_frequencies: int,
    chunk_size: int,
    num_outputs: int = 1,
    num_inputs: int = 1,
) -> int:
    """Estimated peak bytes one sweep chunk holds (constant factor ~2).

    ``16 c (2 q^2 + q (q + m_in) + n_f m_out m_in)``: the complex
    eigenvector stack dominates for big models, the response grid for
    dense frequency axes.  Use it to size ``chunk_size`` against a
    memory budget: ``chunk_size ~= budget_bytes / sweep_chunk_bytes(q,
    n_f, 1, ...)``.
    """
    q = order
    per_instance = 2 * q * q + q * (q + num_inputs) + num_frequencies * num_outputs * num_inputs
    return int(16 * chunk_size * per_instance)


def sweep_lookahead_bytes(
    num_frequencies: int,
    chunk_size: int,
    num_outputs: int = 1,
    num_inputs: int = 1,
) -> int:
    """Extra peak bytes of one chunk of lookahead on a dense sweep.

    ``24 c n_f m_out m_in``: while the row pool computes chunk ``i+1``
    (its working set is :func:`sweep_chunk_bytes`), the loop still
    holds chunk ``i``'s complex response grid and the magnitudes its
    envelope is reduced from.
    """
    return int(24 * chunk_size * num_frequencies * num_outputs * num_inputs)


def transient_chunk_bytes(
    order: int,
    num_steps: int,
    chunk_size: int,
    num_outputs: int = 1,
) -> int:
    """Estimated peak bytes one transient chunk holds (constant factor ~2).

    ``8 c (6 q^2 + 2 q (n_b + (s + 1) m_out) + 2 s^2 m_out
    + 4 (n_t + s) m_out)`` with ``s = min(BLOCK_STEPS, n_t)`` and
    ``n_b = ceil(n_t / s)``: the system stacks and the propagator
    solve's operands, the block-start states and their forced terms,
    the powers ``L^T M^i`` and their free-response map, the
    block-Toeplitz matrix of Markov parameters, and the output products
    and trajectories of the block-stepped kernel
    (:mod:`repro.runtime.transient`).
    """
    q = order
    s = min(BLOCK_STEPS, num_steps)
    blocks = -(-num_steps // s)
    per_instance = (
        6 * q * q
        + 2 * q * (blocks + (s + 1) * num_outputs)
        + 2 * s * s * num_outputs
        + 4 * (num_steps + s) * num_outputs
    )
    return int(8 * chunk_size * per_instance)


# Numpy array headers, beside the data the formulas count (CPython 3.11,
# numpy 2.4).  A chunk's retained metric arrays (delays, slews, steady
# states, kept outputs) and their list slots measured ~570 B per chunk
# until the result concatenates them; the arrays and frames live while
# one chunk computes measured up to 5.6 KB, a third of the peak of a
# q = 9 model.
_CHUNK_RECORD_BYTES = 640
_KERNEL_HEADER_BYTES = 8192


def _transient_run_bytes(
    num_samples: int,
    num_steps: int,
    num_outputs: int,
    num_inputs: int,
    keep_outputs: bool,
) -> int:
    """Bytes a streamed transient run holds beside its chunk working set.

    ``48 (n_t + 1) m_out``: the envelope accumulator and the previous
    chunk's envelope partials, alive while the next chunk computes;
    ``32 (n_t + s) (1 + m_in)``: the time axis and drive tables every
    chunk tabulates; ``16 m (2 + m_out)``: the per-instance delays,
    slews and steady states, retained across chunks and concatenated
    once at the end; with ``keep_outputs``, ``16 m (n_t + 1) m_out``
    more for the trajectories, likewise; plus the computing chunk's
    array headers (``_KERNEL_HEADER_BYTES``).  Each chunk adds
    ``_CHUNK_RECORD_BYTES`` of retained headers on top.
    """
    s = min(BLOCK_STEPS, num_steps)
    retained = 2 + num_outputs + (num_steps + 1) * num_outputs * bool(keep_outputs)
    return int(
        48 * (num_steps + 1) * num_outputs
        + 32 * (num_steps + s) * (1 + num_inputs)
        + 16 * num_samples * retained
        + _KERNEL_HEADER_BYTES
    )


def _chunk_telemetry(wall0: float, cpu0: float, instances: int) -> dict:
    """Per-chunk compute telemetry persisted into the store manifest."""
    return {
        "wall_seconds": time.perf_counter() - wall0,
        "cpu_seconds": time.process_time() - cpu0,
        "instances": int(instances),
    }


def _observe_chunk(wall0: float, cpu0: float, instances: int) -> None:
    """Fold one finished chunk into the global metrics registry."""
    _CHUNKS_COMPLETED.inc()
    _INSTANCES_EVALUATED.inc(instances)
    _CHUNK_WALL.observe(time.perf_counter() - wall0)
    _CHUNK_CPU.observe(time.process_time() - cpu0)


def _sweep_chunk_payload(
    model,
    family,
    freqs: np.ndarray,
    block: np.ndarray,
    num_poles: Optional[int] = None,
    keep_poles: bool = False,
    keep_responses: bool = False,
    grid: Optional[bool] = None,
) -> dict:
    """One sweep chunk's persistable payload (the checkpoint unit).

    The single definition of what a sweep chunk *is*, shared by
    ``Study.run()`` and the work-stealing drain loop
    (:meth:`repro.runtime.engine.Study.work`) -- both paths therefore
    checkpoint byte-identical arrays for the same chunk.  ``family`` is
    the shared sparsity pattern for sparse targets, ``None`` for dense,
    whose row blocks run on the row pool; ``grid`` is the study's
    contraction choice.  Both kernels treat instances
    independently, so chunked payloads are bit-identical to one-shot
    evaluation.
    """
    if family is None:
        responses, poles = _sweep_study(
            model, freqs, block, num_poles=num_poles, want_poles=keep_poles,
            grid=grid,
        )
    else:
        responses = family.frequency_response(freqs, block)
        poles = None
    return _sweep_payload(responses, poles, keep_poles, keep_responses)


def _queue_sweep_chunk(
    model,
    freqs: np.ndarray,
    block: np.ndarray,
    num_poles: Optional[int] = None,
    keep_poles: bool = False,
    keep_responses: bool = False,
    grid: Optional[bool] = None,
):
    """Queue a dense sweep chunk's row blocks on the row pool.

    Returns the queued :class:`~repro.runtime.executor.RowBlocks`;
    its ``result()`` waits for them and returns the payload
    :func:`_sweep_chunk_payload` computes for the same chunk.  The
    envelope reductions run on the whole chunk in the waiting thread,
    so they are the same whatever the split.
    """
    finish = functools.partial(
        _sweep_payload, keep_poles=keep_poles, keep_responses=keep_responses
    )
    return _queue_sweep(
        model, freqs, block, num_poles=num_poles, want_poles=keep_poles,
        grid=grid, finish=finish,
    )


def _sweep_payload(
    responses: np.ndarray, poles, keep_poles: bool, keep_responses: bool
) -> dict:
    """A sweep chunk's payload from its responses (and poles)."""
    magnitudes = np.abs(responses)
    payload = {
        "env_min": magnitudes.min(axis=0),
        "env_max": magnitudes.max(axis=0),
        "env_sum": magnitudes.sum(axis=0),
    }
    if keep_poles:
        payload["poles"] = poles
    if keep_responses:
        payload["responses"] = responses
    return payload


def _transient_chunk_payload(
    model,
    block: np.ndarray,
    waveform,
    t_final: float,
    num_steps: int,
    method: str,
    delay_threshold: float,
    slew_bounds: Tuple[float, float],
    output_index: int,
    reference: str,
    keep_outputs: bool = False,
) -> dict:
    """One transient chunk's persistable payload (the checkpoint unit).

    Counterpart of :func:`_sweep_chunk_payload` for the time-domain
    workload: each chunk is simulated through the batched propagator
    kernel and the delay/slew/steady-state metrics are extracted
    immediately (with the ``delay_threshold`` / ``slew_bounds`` /
    ``reference`` semantics of
    :class:`~repro.runtime.transient.TransientStudy`), so only ``O(m)``
    metrics plus the ``O(n_t)`` envelope survive the chunk.
    """
    study = _transient_study(
        model, block,
        waveform=waveform, t_final=t_final, num_steps=num_steps, method=method,
    )
    outputs = study.result.outputs
    payload = {
        "env_min": outputs.min(axis=0),
        "env_max": outputs.max(axis=0),
        "env_sum": outputs.sum(axis=0),
        "delays": study.delays(
            threshold=delay_threshold,
            output_index=output_index,
            reference=reference,
        ),
        "slews": study.slews(
            low=slew_bounds[0],
            high=slew_bounds[1],
            output_index=output_index,
            reference=reference,
        ),
        "steady_states": study.steady_states,
    }
    if keep_outputs:
        payload["outputs"] = outputs
    return payload


class _EnvelopeAccumulator:
    """Running per-position min / sum / max over the instance axis."""

    def __init__(self):
        self.minimum: Optional[np.ndarray] = None
        self.maximum: Optional[np.ndarray] = None
        self.total: Optional[np.ndarray] = None
        self.count = 0

    def merge(
        self,
        chunk_min: np.ndarray,
        chunk_max: np.ndarray,
        chunk_sum: np.ndarray,
        count: int,
    ) -> None:
        """Fold in one chunk's already-reduced ``(min, max, sum, count)``.

        The chunk payloads persist exactly these three arrays, and a
        loaded chunk folds through the same method in the same order as
        a computed one, so the accumulated state (including the
        chunk-ordered ``total`` behind :attr:`mean`) is bit-identical
        either way.
        """
        if self.minimum is None:
            self.minimum = chunk_min
            self.maximum = chunk_max
            self.total = chunk_sum
        else:
            self.minimum = np.minimum(self.minimum, chunk_min)
            self.maximum = np.maximum(self.maximum, chunk_max)
            self.total = self.total + chunk_sum
        self.count += count

    @property
    def mean(self) -> np.ndarray:
        """Chunk-accumulated mean (see the module determinism contract)."""
        return self.total / self.count


@dataclass
class _Folded:
    """What the chunk loop keeps: the envelope plus every other column."""

    envelope: _EnvelopeAccumulator
    columns: Dict[str, List[np.ndarray]]
    num_chunks: int

    def stacked(self, name: str) -> Optional[np.ndarray]:
        """Column ``name`` concatenated over the chunks (``None`` if absent)."""
        blocks = self.columns.get(name)
        return None if blocks is None else np.concatenate(blocks, axis=0)


def _chunk_unit(
    checkpoint, index: int, lo: int, hi: int, payload_fn, block, queued=None
):
    """``(payload, loaded)`` for chunk ``index`` -- the checkpoint unit.

    Loads the chunk from ``checkpoint`` when it holds a verified copy;
    otherwise computes ``payload_fn(block)`` -- or waits for ``queued``,
    the chunk's kernel already queued on the row pool -- and, with a
    checkpoint attached, saves it with its per-chunk telemetry.  Only
    chunks the checkpoint does not hold are ever queued, so a queued
    chunk skips the load.  This is the runtime's only checkpoint load
    and save site: :func:`_drive_chunks` calls it for every chunk of a
    run, and ``Study.work()`` for every chunk a worker claims.
    """
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    payload = None
    if queued is None and checkpoint is not None:
        payload = checkpoint.load(index)
    loaded = payload is not None
    if not loaded:
        payload = payload_fn(block) if queued is None else queued.result()
        if checkpoint is not None:
            checkpoint.save(
                index, lo, hi, payload,
                telemetry=_chunk_telemetry(wall0, cpu0, hi - lo),
            )
    _observe_chunk(wall0, cpu0, hi - lo)
    return payload, loaded


def _drive_chunks(
    workload: str,
    samples: np.ndarray,
    chunk_size: int,
    payload_fn: Callable[[np.ndarray], dict],
    checkpoint=None,
    progress: Optional[ProgressCallback] = None,
    queue: Optional[Callable] = None,
) -> _Folded:
    """Walk the chunk grid of ``samples`` in order and fold the payloads.

    Each chunk runs under one ``study.chunk`` span: its payload comes
    from :func:`_chunk_unit` (loaded from ``checkpoint`` or computed by
    ``payload_fn`` and saved), ``env_min`` / ``env_max`` / ``env_sum``
    fold into an :class:`_EnvelopeAccumulator`, every other column is
    appended, and ``progress(done, total)`` fires afterwards.
    Computed payloads fold straight from memory; nothing is re-read.

    ``queue(block)`` (dense eig sweeps on a multi-CPU row pool) queues
    a chunk's row blocks and returns the handle :func:`_chunk_unit`
    waits on.  With it the loop keeps one chunk of lookahead: before
    it waits for, saves and folds chunk ``i`` it queues chunk ``i+1``,
    so the pool computes while this thread writes the checkpoint.
    Loaded chunks are never queued, and loads, saves, folds and
    progress stay in index order.  Whatever ends the loop early, no
    queued block is left behind.
    """
    total = samples.shape[0]
    if total == 0:
        raise ValueError("scenario plan produced no samples")
    grid = _chunk_grid(total, chunk_size)
    envelope = _EnvelopeAccumulator()
    columns: Dict[str, List[np.ndarray]] = {}
    # Chunks queued on the row pool and not yet waited for, by index.
    queued: Dict[int, object] = {}
    done = 0
    try:
        for index, (lo, hi) in enumerate(grid):
            with obs_trace.span(
                "study.chunk", workload=workload, index=index, lo=lo, hi=hi,
                instances=hi - lo, row_blocks=0, prefetched=index in queued,
            ) as chunk_span:
                if queue is not None:
                    for ahead in (index, index + 1):
                        if ahead < len(grid) and ahead not in queued and (
                            checkpoint is None
                            or ahead not in checkpoint.completed
                        ):
                            queued[ahead] = queue(samples[slice(*grid[ahead])])
                payload, loaded = _chunk_unit(
                    checkpoint, index, lo, hi, payload_fn, samples[lo:hi],
                    queued.pop(index, None),
                )
                if "env_min" in payload:
                    envelope.merge(
                        payload["env_min"], payload["env_max"],
                        payload["env_sum"], hi - lo,
                    )
                for name, column in payload.items():
                    if not name.startswith("env_"):
                        columns.setdefault(name, []).append(column)
                done += hi - lo
                chunk_span.set(
                    loaded=loaded, done=done, total=total,
                    chunks_done=index + 1, num_chunks=len(grid),
                )
            if progress is not None:
                progress(done, total)
    finally:
        for pending in queued.values():
            pending.cancel()
    return _Folded(envelope, columns, len(grid))


@dataclass
class StreamedSweepStudy:
    """Incremental result of a chunked frequency-domain study.

    ``envelope_*`` hold the per-(frequency, output, input) magnitude
    statistics over all instances; ``poles`` is the stacked
    ``(m, num_poles)`` array (dense-batchable models only);
    ``responses`` is kept only when the study was asked to retain the
    full grid (small studies / regression tests).
    """

    plan: Optional[ScenarioPlan]
    samples: np.ndarray
    frequencies: np.ndarray
    envelope_min: np.ndarray
    envelope_mean: np.ndarray
    envelope_max: np.ndarray
    num_chunks: int
    chunk_size: int
    poles: Optional[np.ndarray] = None
    responses: Optional[np.ndarray] = None

    @property
    def num_samples(self) -> int:
        """Number of evaluated parameter instances."""
        return self.samples.shape[0]

    def magnitude_envelope(
        self, output_index: int = 0, input_index: int = 0
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-frequency ``(min, mean, max)`` of ``|H|`` across instances.

        The scenario envelope is the quantity variability sign-off
        cares about: the spread of the response over process instances.
        """
        index = (slice(None), output_index, input_index)
        return (
            self.envelope_min[index],
            self.envelope_mean[index],
            self.envelope_max[index],
        )


def _sweep_result(
    folded: _Folded, plan, samples: np.ndarray, frequencies, chunk_size: int
) -> StreamedSweepStudy:
    """Build the sweep result from the folded chunks."""
    return StreamedSweepStudy(
        plan=plan,
        samples=samples,
        frequencies=np.asarray(frequencies, dtype=float),
        envelope_min=folded.envelope.minimum,
        envelope_mean=folded.envelope.mean,
        envelope_max=folded.envelope.maximum,
        num_chunks=folded.num_chunks,
        chunk_size=chunk_size,
        poles=folded.stacked("poles"),
        responses=folded.stacked("responses"),
    )


@dataclass
class StreamedTransientStudy:
    """Incremental result of a chunked time-domain study.

    ``envelope_*`` hold per-(timestep, output) statistics across all
    instances; ``delays`` / ``slews`` / ``steady_states`` are the
    per-instance metrics extracted chunk by chunk (bit-identical to the
    one-shot :class:`~repro.runtime.transient.TransientStudy` methods);
    ``outputs`` is kept only on request.
    """

    plan: Optional[ScenarioPlan]
    waveform: object
    samples: np.ndarray
    time: np.ndarray
    method: str
    envelope_min: np.ndarray
    envelope_mean: np.ndarray
    envelope_max: np.ndarray
    delays: np.ndarray
    slews: np.ndarray
    steady_states: np.ndarray
    num_chunks: int
    chunk_size: int
    outputs: Optional[np.ndarray] = None

    @property
    def num_samples(self) -> int:
        """Number of simulated parameter instances."""
        return self.samples.shape[0]

    def output_envelope(
        self, output_index: int = 0
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-timestep ``(min, mean, max)`` across instances."""
        index = (slice(None), output_index)
        return (
            self.envelope_min[index],
            self.envelope_mean[index],
            self.envelope_max[index],
        )


def _transient_result(
    folded: _Folded,
    plan,
    samples: np.ndarray,
    chunk_size: int,
    waveform,
    t_final: float,
    num_steps: int,
    method: str,
) -> StreamedTransientStudy:
    """Build the transient result from the folded chunks.

    The time axis is reconstructed, not captured from a simulated
    chunk: a fully resumed run loads every chunk and simulates none.
    """
    return StreamedTransientStudy(
        plan=plan,
        waveform=waveform,
        samples=samples,
        time=np.linspace(0.0, t_final, num_steps + 1),
        method=method,
        envelope_min=folded.envelope.minimum,
        envelope_mean=folded.envelope.mean,
        envelope_max=folded.envelope.maximum,
        delays=folded.stacked("delays"),
        slews=folded.stacked("slews"),
        steady_states=folded.stacked("steady_states"),
        num_chunks=folded.num_chunks,
        chunk_size=chunk_size,
        outputs=folded.stacked("outputs"),
    )
