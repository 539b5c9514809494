"""The serving layer for reduced macromodels (batch, cache, durability).

Reduction produces a macromodel once; everything downstream -- Monte
Carlo sign-off, corner sweeps, sensitivity studies, timing extraction
-- evaluates it thousands of times.  This package is the seam where
that reuse is made fast and declarative:

- :mod:`repro.runtime.engine` -- **the one front door**: the
  declarative :class:`Study` builder
  (``Study(model).scenarios(plan).sweep(freqs).run()``) over the model
  it is given -- a dense reduced macromodel or a sparse full-order
  system; reduce first, through :class:`ModelCache` -- whose planner
  inspects the target and workload and routes to the optimal kernel
  below -- dense batched, sparse shared-pattern, streamed under a
  memory budget, or per-instance full-order pole solves -- with an
  inspectable :class:`ExecutionPlan`.  ``run()``, resume, and the
  work-stealing ``work()`` all walk the same chunk loop, so a resumed
  or work-stolen study is bit-identical to an uninterrupted one.
- :mod:`repro.runtime.batch` -- vectorized instantiation
  ``G(P) = G0 + P . dG`` over whole sample matrices, with batched
  transfer-function, frequency-response, and sensitivity kernels that
  replace per-sample Python loops.  Dense sweeps diagonalize each
  instance once: Cholesky + ``eigh`` for symmetric-definite pencils
  (congruence-reduced RC nets), general ``eig`` otherwise; the same
  factors give dense pole studies their dominant poles.
- :mod:`repro.runtime.transient` -- batched *time-domain* kernels:
  :func:`batch_simulate_transient` factors each instance's companion
  matrix once (one stacked LAPACK solve yields the closed-form
  discrete propagators) and advances the whole ensemble eight
  timesteps per stacked matvec, every output coming from two stacked
  GEMMs (free and forced response of each block), with vectorized
  delay/slew extraction behind the ``Study`` transient route;
  :func:`batch_step_responses` and :func:`default_horizon` cover the
  step-response staple.
- :mod:`repro.runtime.scenarios` -- declarative
  :class:`MonteCarloPlan` / :class:`CornerPlan` / :class:`GridPlan`
  objects that generate sample matrices, plus the input-waveform plans
  :class:`StepInput` / :class:`RampInput` / :class:`PWLInput` /
  :class:`SineInput` that drive both the batched kernels and the
  scalar reference loop from one object.
- :mod:`repro.runtime.sparse` -- the *full-order* counterpart: every
  matrix of a variational system shares one union sparsity pattern, so
  :class:`SparsePatternFamily` instantiates whole sample batches as
  data-array updates (bit-identical to the scalar path) and factors
  every pencil through a shared symbolic analysis (tridiagonal/banded
  LAPACK kernels in RCM order, a level-scheduled LU that eliminates an
  instance's whole frequency grid at once for wider patterns, SuperLU
  numeric refactorization where a diagonal is structurally missing).
- :mod:`repro.runtime.stream` -- the one chunk loop under every
  ``Study`` route: it walks the chunk grid under a documented
  peak-memory bound (:func:`sweep_chunk_bytes` /
  :func:`transient_chunk_bytes`), loads or computes-and-checkpoints
  each chunk through a single checkpoint unit, and folds the results
  with incremental envelope reducers and progress callbacks.
- :mod:`repro.runtime.cache` -- a content-addressed
  :class:`ModelCache`: hash of (system, reducer config) -> reduced
  model persisted via :mod:`repro.core.io`, so repeated workloads skip
  reduction entirely.
- :mod:`repro.runtime.store` -- the durability layer: a
  :class:`StudyStore` persists every streamed chunk as an ``.npz``
  checkpoint unit plus a record in a JSON manifest (or, until the run
  closes, a synced line of the manifest's journal) keyed by the same
  content fingerprints the cache uses, so a crashed or killed study resumes
  (``Study.store/.resume``) bit-identically to an uninterrupted run --
  with per-chunk checksums so persisted results stay independently
  re-checkable.
- :mod:`repro.runtime.scheduler` -- lease-based work-stealing over a
  shared store directory: atomic claim files, observer-side TTL expiry
  with heartbeats, and a drain loop (``Study.work``) that lets any
  number of heterogeneous workers -- processes or machines sharing the
  directory -- finish one study together, with every chunk's SHA-256
  verified before the fold.
- :mod:`repro.runtime.executor` -- the row pool: one process-wide
  thread pool the dense eig sweep splits each chunk's rows over.

:mod:`repro.analysis.montecarlo`, :mod:`repro.analysis.sensitivity`,
and :mod:`repro.analysis.delay` are wired onto these kernels; the
``repro montecarlo``, ``repro batch``, and ``repro transient`` CLI
commands expose them from the shell.
"""

from repro.runtime.batch import (
    batch_frequency_response,
    batch_instantiate,
    batch_transfer,
    batch_transfer_sensitivities,
    supports_batching,
)
from repro.runtime.cache import (
    ModelCache,
    array_fingerprint,
    reducer_fingerprint,
    system_fingerprint,
)
from repro.runtime.engine import (
    ExecutionPlan,
    PoleStudy,
    Study,
)
from repro.runtime.scheduler import (
    DrainReport,
    Lease,
    LeaseBoard,
    default_worker_id,
    drain_chunks,
    parse_worker_id,
)
from repro.runtime.store import (
    NothingToResumeError,
    StoreError,
    StudyCheckpoint,
    StudyStore,
    study_fingerprint,
)
from repro.runtime.sparse import (
    SparsePatternFamily,
    shared_pattern_family,
    supports_sparse_batching,
)
from repro.runtime.stream import (
    StreamedSweepStudy,
    StreamedTransientStudy,
    sweep_chunk_bytes,
    transient_chunk_bytes,
)
from repro.runtime.scenarios import (
    CornerPlan,
    GridPlan,
    InputWaveform,
    MonteCarloPlan,
    PWLInput,
    RampInput,
    ScenarioPlan,
    SineInput,
    StepInput,
)
from repro.runtime.transient import (
    BatchTransientResult,
    TransientStudy,
    batch_simulate_transient,
    batch_step_responses,
    default_horizon,
)

__all__ = [
    "BatchTransientResult",
    "CornerPlan",
    "DrainReport",
    "ExecutionPlan",
    "GridPlan",
    "InputWaveform",
    "Lease",
    "LeaseBoard",
    "ModelCache",
    "MonteCarloPlan",
    "NothingToResumeError",
    "PWLInput",
    "PoleStudy",
    "RampInput",
    "ScenarioPlan",
    "SineInput",
    "SparsePatternFamily",
    "StepInput",
    "StoreError",
    "StreamedSweepStudy",
    "StreamedTransientStudy",
    "Study",
    "StudyCheckpoint",
    "StudyStore",
    "TransientStudy",
    "array_fingerprint",
    "batch_frequency_response",
    "batch_instantiate",
    "batch_simulate_transient",
    "batch_step_responses",
    "batch_transfer",
    "batch_transfer_sensitivities",
    "default_horizon",
    "default_worker_id",
    "drain_chunks",
    "parse_worker_id",
    "reducer_fingerprint",
    "shared_pattern_family",
    "study_fingerprint",
    "supports_batching",
    "supports_sparse_batching",
    "sweep_chunk_bytes",
    "system_fingerprint",
    "transient_chunk_bytes",
]
