"""Execution backends: per-sample executors and the row pool.

The batched kernels in :mod:`repro.runtime.batch` cover the *reduced*
side of a study, and the dense eig sweep among them splits its chunks
over the process-wide row pool described at the end of this
docstring.  The *full*-model reference solves (one sparse
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

The row pool
------------

The dense eig sweep kernel does not go through these executors.  Its
chunks are split into contiguous row blocks (:class:`RowBlocks`), one
per CPU this process may run on (:func:`row_pool_width`), and the
blocks run on one process-wide thread pool built on first use.  Only
that kernel uses it, because only it was measured to scale under
threads (LAPACK ``potrf``/``eigh``/``eig`` release the GIL).  A
transient chunk is a few dozen small numpy calls that hold the GIL
(the block-stepped kernel): split over two threads, a 32-row chunk
got slower, and the sparse family has not been measured end to end on
the pool (the README's Scaling guide has the numbers), so both stay
serial.  Every caller in the process -- the concurrent
jobs of ``repro serve`` included -- shares the one pool, so the
process never runs more kernel threads than CPUs.  With one usable
CPU there is no pool and the single block runs inline.  The pool is
keyed by ``os.getpid()``: a forked child builds its own instead of
waiting on threads it did not inherit.  ``Study.executor(...)`` keeps
its per-sample meaning and is independent of the row pool.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait as wait_futures
from typing import Callable, Iterable, List, Optional, Tuple, Union

from repro.obs import trace as obs_trace

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


def row_pool_width() -> int:
    """CPUs this process may run on: the row pool's thread count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _row_bounds(num_rows: int, width: int) -> List[Tuple[int, int]]:
    """At most ``width`` contiguous ``(lo, hi)`` blocks covering the rows.

    Block sizes differ by at most one row, larger blocks first.
    """
    count = min(width, num_rows)
    bounds, lo = [], 0
    for index in range(count):
        hi = lo + num_rows // count + (index < num_rows % count)
        bounds.append((lo, hi))
        lo = hi
    return bounds


_ROW_POOL_LOCK = threading.Lock()
# (pid, width, pool) of the process-wide row pool; see the module
# docstring for why it is shared rather than owned by a caller.
_row_pool: Tuple[int, int, Optional[ThreadPoolExecutor]] = (0, 0, None)


def _shared_row_pool(width: int) -> ThreadPoolExecutor:
    """The process's row pool of ``width`` threads, built on first use."""
    global _row_pool
    with _ROW_POOL_LOCK:
        pid, built_width, pool = _row_pool
        if pool is None or pid != os.getpid() or built_width != width:
            pool = ThreadPoolExecutor(
                max_workers=width, thread_name_prefix="repro-rows"
            )
            _row_pool = (os.getpid(), width, pool)
        return pool


class RowBlocks:
    """One chunk's rows as contiguous blocks queued on the row pool.

    ``run(lo, hi)`` computes rows ``lo:hi``; the blocks are submitted
    on construction, one per usable CPU (:func:`row_pool_width`).
    :meth:`result` waits for them and returns ``finish(outputs)``, the
    block outputs in row order.  With one usable CPU nothing is
    queued: the single block runs inline inside :meth:`result`.
    """

    def __init__(self, run: Callable[[int, int], object], num_rows: int,
                 finish: Callable[[list], object]):
        width = row_pool_width()
        self.bounds = _row_bounds(num_rows, width)
        self._run = run
        self._finish = finish
        self._futures = None
        if width > 1:
            pool = _shared_row_pool(width)
            self._futures = [pool.submit(run, lo, hi) for lo, hi in self.bounds]

    def result(self):
        """``finish`` of every block's output; a block's error re-raised
        once no block of this chunk is queued or running.

        Stamps ``row_blocks`` onto the caller's active span.
        """
        obs_trace.annotate(row_blocks=len(self.bounds))
        if self._futures is None:
            return self._finish([self._run(lo, hi) for lo, hi in self.bounds])
        try:
            outputs = [future.result() for future in self._futures]
        except BaseException:
            self.cancel()
            raise
        return self._finish(outputs)

    def cancel(self) -> None:
        """Drop the blocks not yet started and wait for the running ones."""
        if self._futures is not None:
            for future in self._futures:
                future.cancel()
            wait_futures(self._futures)
