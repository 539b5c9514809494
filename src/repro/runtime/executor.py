"""The row pool: one process-wide thread pool for the dense eig sweep.

Every study payload runs in its chunk loop's own thread.  The one
exception is the dense eig sweep kernel: its chunks are split into
contiguous row blocks (:class:`RowBlocks`), one per CPU this process
may run on (:func:`row_pool_width`), and the blocks run on one
process-wide thread pool built on first use.  Only that kernel uses
it, because only it was measured to scale under threads (LAPACK
``potrf``/``eigh``/``eig`` release the GIL).  Everything else was
measured on the pool and stays serial (the README's Scaling guide has
the numbers):

- a transient chunk is a few dozen small numpy calls that hold the
  GIL (the block-stepped kernel): split over two threads, a 32-row
  chunk got slower;
- full-order pole studies lost on the 78-unknown net and won 1.08x on
  the 333-unknown one, and the dense poles-only payload lost on both
  BLAS settings -- no benchmark workload runs either, so neither earns
  a per-size fork;
- the sparse family has not been measured end to end on the pool.

Every caller in the process -- the concurrent jobs of ``repro serve``
included -- shares the one pool, so the process never runs more kernel
threads than CPUs.  With one usable CPU there is no pool and the
single block runs inline.  The pool is keyed by ``os.getpid()``: a
forked child builds its own instead of waiting on threads it did not
inherit.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait as wait_futures
from typing import Callable, List, Optional, Tuple

from repro.obs import trace as obs_trace


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
