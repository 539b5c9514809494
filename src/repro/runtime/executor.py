"""Execution backends for the per-sample full-order reference solves.

The batched kernels in :mod:`repro.runtime.batch` cover the *reduced*
side of a study; the *full*-model reference solves (one sparse
factorization + eigendecomposition per instance) remain independent
per-sample tasks.  This module puts them behind one ordered-``map``
interface so analysis code can scale out without changing shape:

>>> executor = resolve_executor("thread")
>>> results = executor.map(task, items)        # ordered, like map()

- :class:`SerialExecutor` -- deterministic in-process default;
- :class:`ThreadExecutor` -- a thread pool.  The kernels that dominate
  full-model solves (LAPACK eigendecompositions, SuperLU
  factorizations, batched BLAS) release the GIL, so threads reach real
  parallelism with zero pickling or process-startup cost;
- any object with an ordered ``map`` -- a caller-supplied
  :class:`concurrent.futures.ProcessPoolExecutor`, say -- passes
  through :func:`resolve_executor` unchanged.

Every backend preserves input order and (because each task is a pure
function) produces bit-identical results.  No process pool is built in:
on ``benchmarks/bench_executors.py`` (a 2-CPU machine) process pools
lost to serial on both the 78- and the 333-unknown net, while threads
won only on the larger one.  Tasks handed to a caller's process pool
must be picklable (module-level functions, models built from
numpy/scipy arrays), which every engine task is.

Pool lifecycle
--------------

Every executor is a context manager.  Outside a ``with`` block a
:class:`ThreadExecutor` spins a fresh pool per call and tears it down
before returning -- no workers ever outlive a ``map``.  Inside a
``with`` block (or between explicit ``__enter__``/``close`` calls) one
persistent pool is reused across calls and shut down deterministically
on exit, which is how the :class:`~repro.runtime.engine.Study` engine
runs the executors it constructs:

>>> with ThreadExecutor(max_workers=4) as executor:
...     first = executor.map(task, items)      # same pool ...
...     second = executor.map(task, more)      # ... reused
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, Union

_ACCEPTED_SPECS = (
    "None, 'serial', 'thread', a worker count, or an executor object "
    "with an ordered map (e.g. a concurrent.futures.ProcessPoolExecutor)"
)


class SerialExecutor:
    """In-process, in-order execution (the deterministic default)."""

    def map(self, fn: Callable, items: Iterable) -> List:
        """Apply ``fn`` to every item, in order, in this process."""
        return [fn(item) for item in items]

    def close(self) -> None:
        """No pool to release; kept for interface symmetry."""

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ThreadExecutor:
    """Thread-pool execution for GIL-releasing numeric tasks.

    The full-model reference solves spend their time inside LAPACK /
    SuperLU / BLAS kernels, which drop the GIL -- a thread pool then
    scales across cores with none of the pickling, fork, or import
    overhead of a process pool, and shares every model object by
    reference.

    Outside a context the pool is ephemeral per call; between
    ``__enter__`` and ``close`` one persistent pool is reused and shut
    down deterministically.  Contexts nest: each ``__enter__``
    increments a depth counter and each ``close`` decrements it, so the
    pool (and its warm threads) survives until the *outermost* scope
    exits -- the work-stealing drain loop holds one pool across every
    chunk it claims while the per-chunk compute path enters and exits
    the same executor.

    Parameters
    ----------
    max_workers:
        Thread count (default: ``os.cpu_count()``).
    """

    def __init__(self, max_workers: Optional[int] = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self._pool: Optional[ThreadPoolExecutor] = None
        self._depth = 0

    def map(self, fn: Callable, items: Iterable) -> List:
        """Apply ``fn`` to every item across the thread pool; ordered."""
        items = list(items)
        if not items:
            return []
        if self._pool is not None:
            return list(self._pool.map(fn, items))
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            return list(pool.map(fn, items))

    def close(self) -> None:
        """Leave one pool scope; the outermost exit joins the threads."""
        if self._depth > 1:
            self._depth -= 1
            return
        self._depth = 0
        pool = self._pool
        self._pool = None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ThreadExecutor":
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
            self._depth = 0
        self._depth += 1
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return f"ThreadExecutor(max_workers={self.max_workers})"


ExecutorLike = Union[None, str, int, SerialExecutor, ThreadExecutor]


def resolve_executor(spec: ExecutorLike):
    """Coerce a user-facing spec into an executor object.

    Accepted specs: ``None``/``"serial"`` (serial), ``"thread"`` /
    ``"threads"`` (thread pool), a positive ``int`` (a thread pool with
    that many workers; ``1`` means serial), or an already-constructed
    executor -- ours or any foreign object with an ordered ``map``,
    such as a :class:`concurrent.futures.ProcessPoolExecutor` -- which
    passes through as-is, pool state included.  Anything else raises a
    one-line :class:`ValueError` naming the accepted specs.
    """
    if spec is None:
        return SerialExecutor()
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name == "serial":
            return SerialExecutor()
        if name in ("thread", "threads"):
            return ThreadExecutor()
        raise ValueError(
            f"unknown executor spec {spec!r}: use {_ACCEPTED_SPECS}"
        )
    if isinstance(spec, bool):
        raise ValueError(
            f"executor spec must not be a bool: use {_ACCEPTED_SPECS}"
        )
    if isinstance(spec, int):
        if spec < 1:
            raise ValueError("executor worker count must be >= 1")
        return SerialExecutor() if spec == 1 else ThreadExecutor(max_workers=spec)
    if hasattr(spec, "map"):
        return spec
    raise ValueError(
        f"cannot interpret executor spec {spec!r}: use {_ACCEPTED_SPECS}"
    )


def resolve_owned_executor(spec: ExecutorLike):
    """``(executor, owned)``: resolve a spec and say who shuts it down.

    Executors the caller merely *names* (``None``, ``"thread"``, a
    worker count) are constructed here and are ``owned`` by the
    resolving scope, which must close them deterministically --
    :class:`~repro.runtime.engine.Study` holds its owned executor open
    across every chunk of one run (or one worker's drain) and joins the
    workers when it finishes, so two runs of one study never share
    pool state.  Already-constructed executor instances (anything with
    a ``map``) pass through with ``owned=False`` and stay the caller's
    responsibility, pool lifecycle included.
    """
    owned = not (spec is not None and hasattr(spec, "map"))
    return resolve_executor(spec), owned
