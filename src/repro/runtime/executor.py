"""Execution backends for embarrassingly-parallel model evaluations.

The batched kernels in :mod:`repro.runtime.batch` cover the *reduced*
side of a study; the *full*-model reference solves (one sparse
factorization + eigendecomposition per instance) remain independent
per-sample tasks.  This module puts four backends behind one
ordered-``map`` interface so analysis code can scale out without
changing shape:

>>> executor = resolve_executor("process")
>>> results = executor.map(task, items)        # ordered, like map()

- :class:`SerialExecutor` -- deterministic in-process default;
- :class:`ThreadExecutor` -- a thread pool.  The kernels that dominate
  full-model solves (LAPACK eigendecompositions, SuperLU
  factorizations, batched BLAS) release the GIL, so threads reach real
  parallelism with zero pickling or process-startup cost;
- :class:`ProcessExecutor` -- chunked multiprocessing for pure-Python
  bottlenecks;
- :class:`SharedMemoryExecutor` -- multiprocessing whose
  :meth:`~SharedMemoryExecutor.map_array` ships the sample matrix to
  workers through one :mod:`multiprocessing.shared_memory` block
  instead of pickling per-item copies: workers attach to the block and
  read their chunk as a zero-copy numpy view.

Every backend preserves input order and returns a list, and (because
each task is a pure function) produces bit-identical results -- the
parallel backends are just faster on multicore machines.  All backends
also provide ``map_array(fn, matrix)``, mapping ``fn`` over the rows
of a 2-D array; only the shared-memory backend specializes it, the
rest fall back to ``map``.

Pool lifecycle
--------------

Every executor is a context manager.  Outside a ``with`` block the
pool-backed executors spin a fresh pool per call and tear it down
before returning -- no workers ever outlive a ``map``.  Inside a
``with`` block (or between explicit ``__enter__``/``close`` calls) one
persistent pool is reused across calls and shut down deterministically
on exit, which is how the :class:`~repro.runtime.engine.Study` engine
runs the executors it constructs:

>>> with ProcessExecutor(max_workers=4) as executor:
...     first = executor.map(task, items)      # same pool ...
...     second = executor.map(task, more)      # ... reused
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, Union

import numpy as np


def _chunk_bounds(num_items: int, chunksize: int) -> List[tuple]:
    return [(lo, min(lo + chunksize, num_items)) for lo in range(0, num_items, chunksize)]


class SerialExecutor:
    """In-process, in-order execution (the deterministic default)."""

    def map(self, fn: Callable, items: Iterable) -> List:
        """Apply ``fn`` to every item, in order, in this process."""
        return [fn(item) for item in items]

    def map_array(self, fn: Callable, matrix: np.ndarray) -> List:
        """Apply ``fn`` to every row of a 2-D array, in order."""
        return self.map(fn, list(np.asarray(matrix)))

    def close(self) -> None:
        """No pool to release; kept for interface symmetry."""

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return "SerialExecutor()"


class _PooledExecutor:
    """Shared pool lifecycle for the thread/process backends.

    Subclasses implement :meth:`_make_pool`.  Outside a context the
    pool is ephemeral per call; between ``__enter__`` and ``close``
    one persistent pool is reused and shut down deterministically.
    Contexts nest: each ``__enter__`` increments a depth counter and
    each ``close`` decrements it, so the pool (and its warm workers)
    survives until the *outermost* scope exits -- the work-stealing
    drain loop holds one pool across every chunk it claims while the
    per-chunk compute path enters and exits the same executor.
    """

    _pool = None
    _depth = 0

    def _make_pool(self):
        raise NotImplementedError

    def _run_pooled(self, body: Callable):
        """Run ``body(pool)`` on the persistent pool or an ephemeral one."""
        if self._pool is not None:
            return body(self._pool)
        with self._make_pool() as pool:
            return body(pool)

    def close(self) -> None:
        """Leave one pool scope; the outermost exit joins the workers."""
        if self._depth > 1:
            self._depth -= 1
            return
        self._depth = 0
        pool = self._pool
        self._pool = None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self):
        if self._pool is None:
            self._pool = self._make_pool()
            self._depth = 0
        self._depth += 1
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False


class ThreadExecutor(_PooledExecutor):
    """Thread-pool execution for GIL-releasing numeric tasks.

    The full-model reference solves spend their time inside LAPACK /
    SuperLU / BLAS kernels, which drop the GIL -- a thread pool then
    scales across cores with none of the pickling, fork, or import
    overhead of a process pool, and shares every model object by
    reference.  For pure-Python tasks prefer :class:`ProcessExecutor`.

    Parameters
    ----------
    max_workers:
        Thread count (default: ``os.cpu_count()``).
    """

    def __init__(self, max_workers: Optional[int] = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers

    def _make_pool(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(max_workers=self.max_workers)

    def map(self, fn: Callable, items: Iterable) -> List:
        """Apply ``fn`` to every item across the thread pool; ordered."""
        items = list(items)
        if not items:
            return []
        return self._run_pooled(lambda pool: list(pool.map(fn, items)))

    def map_array(self, fn: Callable, matrix: np.ndarray) -> List:
        """Apply ``fn`` to every row of a 2-D array; ordered."""
        return self.map(fn, list(np.asarray(matrix)))

    def __repr__(self) -> str:
        return f"ThreadExecutor(max_workers={self.max_workers})"


class ProcessExecutor(_PooledExecutor):
    """Chunked multiprocessing execution over a process pool.

    Parameters
    ----------
    max_workers:
        Worker process count (default: ``os.cpu_count()``).
    chunksize:
        Items dispatched per inter-process message.  Defaults to an
        even split of the workload across ``4 x max_workers`` chunks,
        which amortizes pickling without starving the pool.

    Tasks and their arguments must be picklable (module-level
    functions, models built from numpy/scipy arrays).
    """

    def __init__(self, max_workers: Optional[int] = None, chunksize: Optional[int] = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if chunksize is not None and chunksize < 1:
            raise ValueError("chunksize must be >= 1")
        self.max_workers = max_workers
        self.chunksize = chunksize

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.max_workers)

    def _effective_chunksize(self, num_items: int) -> int:
        if self.chunksize is not None:
            return self.chunksize
        workers = self.max_workers or os.cpu_count() or 1
        return max(1, num_items // (4 * workers))

    def map(self, fn: Callable, items: Iterable) -> List:
        """Apply ``fn`` to every item across the pool; ordered results."""
        items = list(items)
        if not items:
            return []
        chunksize = self._effective_chunksize(len(items))
        return self._run_pooled(
            lambda pool: list(pool.map(fn, items, chunksize=chunksize))
        )

    def map_array(self, fn: Callable, matrix: np.ndarray) -> List:
        """Apply ``fn`` to every row of a 2-D array; ordered."""
        return self.map(fn, list(np.asarray(matrix)))

    def __repr__(self) -> str:
        return f"ProcessExecutor(max_workers={self.max_workers}, chunksize={self.chunksize})"


def _shared_memory_channel_safe() -> bool:
    """Whether the zero-copy sample channel is safe on this platform.

    Python 3.13+ attaches with ``track=False``, which is safe under any
    start method.  On older versions every worker attach registers the
    segment with the worker's resource tracker; with ``fork`` the
    workers share the creator's tracker (registration is an idempotent
    set-add, the creator's single unlink retires it), but with
    ``spawn``/``forkserver`` each worker's *own* tracker would unlink
    the still-live segment at worker exit.  In that configuration
    :meth:`SharedMemoryExecutor.map_array` falls back to the pickling
    path.
    """
    if sys.version_info >= (3, 13):
        return True
    import multiprocessing

    return multiprocessing.get_start_method(allow_none=False) == "fork"


def _attach_shared_memory(name: str):
    """Attach to a shared block without taking ownership of its cleanup.

    Python 3.13+ supports ``track=False`` (no resource-tracker
    registration on attach).  Older versions register every attach, but
    with the default fork start method the workers share the creator's
    tracker and registration is a set-add -- idempotent -- so simply
    attaching is safe: the creator's single ``unlink`` retires the one
    tracked entry.  (Do NOT unregister here: that would remove the
    creator's registration out from under it.)
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        return shared_memory.SharedMemory(name=name)


def _shared_chunk_task(fn, name, shape, dtype_str, bounds):
    """Worker-side body: attach, map ``fn`` over the chunk's rows, detach.

    Rows are copied out of the shared view before calling ``fn`` so no
    result can alias the block after it is unlinked.
    """
    lo, hi = bounds
    block = _attach_shared_memory(name)
    try:
        matrix = np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=block.buf)
        return [fn(np.array(row)) for row in matrix[lo:hi]]
    finally:
        block.close()


class SharedMemoryExecutor(ProcessExecutor):
    """Multiprocessing backend with a zero-copy sample-matrix channel.

    :meth:`map` behaves exactly like :class:`ProcessExecutor.map`.
    :meth:`map_array` is the specialty: the 2-D array is written to one
    :class:`multiprocessing.shared_memory.SharedMemory` block, and each
    worker message carries only ``(block name, shape, dtype, row
    range)`` -- a few hundred bytes regardless of how many samples the
    study ships.  Workers attach and read their rows as numpy views, so
    a million-sample matrix crosses the process boundary once, not once
    per chunk.
    """

    def map_array(self, fn: Callable, matrix: np.ndarray) -> List:
        """Apply ``fn`` to every row, shipping rows via shared memory.

        Falls back to the pickling :meth:`ProcessExecutor.map_array`
        where worker attaches cannot be made tracker-safe (spawn-based
        start methods on Python < 3.13) -- same results, just without
        the zero-copy channel.
        """
        from multiprocessing import shared_memory

        matrix = np.ascontiguousarray(matrix)
        if matrix.ndim != 2:
            raise ValueError(f"map_array expects a 2-D array, got shape {matrix.shape}")
        if not _shared_memory_channel_safe():
            return super().map_array(fn, matrix)
        num_items = matrix.shape[0]
        if num_items == 0:
            return []
        block = shared_memory.SharedMemory(create=True, size=max(matrix.nbytes, 1))
        try:
            view = np.ndarray(matrix.shape, dtype=matrix.dtype, buffer=block.buf)
            view[:] = matrix
            bounds = _chunk_bounds(num_items, self._effective_chunksize(num_items))

            def body(pool) -> List:
                futures = [
                    pool.submit(
                        _shared_chunk_task,
                        fn,
                        block.name,
                        matrix.shape,
                        matrix.dtype.str,
                        chunk,
                    )
                    for chunk in bounds
                ]
                collected: List = []
                for future in futures:
                    collected.extend(future.result())
                return collected

            return self._run_pooled(body)
        finally:
            block.close()
            block.unlink()

    def __repr__(self) -> str:
        return (
            f"SharedMemoryExecutor(max_workers={self.max_workers}, "
            f"chunksize={self.chunksize})"
        )


ExecutorLike = Union[
    None, str, int, SerialExecutor, ThreadExecutor, ProcessExecutor, SharedMemoryExecutor
]

def resolve_executor(spec: ExecutorLike):
    """Coerce a user-facing spec into an executor object.

    Accepted specs: ``None``/``"serial"`` (serial), ``"thread"`` /
    ``"threads"`` (thread pool), ``"process"`` / ``"processes"``
    (process pool), ``"shared"`` / ``"sharedmem"`` (process pool with
    the shared-memory sample channel), a positive ``int`` (process pool
    with that many workers; ``1`` means serial), or an
    already-constructed executor instance -- ours or any foreign object
    with an ordered ``map`` method -- which passes through as-is,
    pool state included (the final ``hasattr`` branch).
    """
    if spec is None:
        return SerialExecutor()
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name == "serial":
            return SerialExecutor()
        if name in ("thread", "threads"):
            return ThreadExecutor()
        if name in ("process", "processes"):
            return ProcessExecutor()
        if name in ("shared", "sharedmem", "shared-memory"):
            return SharedMemoryExecutor()
        raise ValueError(
            f"unknown executor spec {spec!r} "
            "(use 'serial', 'thread', 'process', or 'shared')"
        )
    if isinstance(spec, bool):
        raise ValueError("executor spec must not be a bool")
    if isinstance(spec, int):
        if spec < 1:
            raise ValueError("executor worker count must be >= 1")
        return SerialExecutor() if spec == 1 else ProcessExecutor(max_workers=spec)
    if hasattr(spec, "map"):
        return spec
    raise ValueError(f"cannot interpret executor spec {spec!r}")


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


def executor_map_array(executor, fn: Callable, matrix: np.ndarray) -> List:
    """``executor.map_array`` with a ``map`` fallback for foreign objects.

    User-supplied executors only promise an ordered ``map``; this
    adapter lets study drivers use the shared-memory fast path when it
    exists without narrowing what they accept.
    """
    map_array = getattr(executor, "map_array", None)
    if map_array is not None:
        return map_array(fn, matrix)
    return executor.map(fn, list(np.asarray(matrix)))
