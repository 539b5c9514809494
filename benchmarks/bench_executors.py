"""Executor choice for the full-order reference solves, measured.

The paper's parametric reduced model replaces thousands of full-order
solves.  The reduced side's dense eig sweeps split their chunks over
the process-wide row pool (:mod:`repro.runtime.executor`) with no
executor to choose; the work a caller's executor still runs is the
full-order reference side of a pole study (the engine's
``executor-full`` route).  This benchmark times
``Study(parametric).scenarios(samples).poles(5).executor(spec).run()``
on two nets with each remaining way to run it:

- ``serial``       -- the default;
- ``thread``       -- the built-in thread pool (``os.cpu_count()`` threads);
- ``process-pool`` -- a caller-supplied
  ``concurrent.futures.ProcessPoolExecutor(2)`` passed straight
  through (spawned workers, started before timing, reused across
  repeats the way a caller would hold one pool).

Workloads: 512 instances of ``rcnet_a`` (78 unknowns, banded pencil
tier) and 48 of ``rcnet_b`` (333 unknowns), Monte Carlo at 3 sigma =
30%.  Pole sets must be bit-identical across the three; no speed floor
is asserted, because which one wins depends on the net size and the
machine.  The record carries the CPU count and is the evidence behind
the backends :mod:`repro.runtime.executor` keeps.

Each configuration runs ``REPEATS`` times with the backend order
rotated per repeat; the record keeps every sample and the median.
Records ``BENCH_executors.json`` via :mod:`benchmarks._record`.  Set
``BENCH_SMOKE=1`` for a few instances and one repeat.
"""

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from benchmarks._record import write_record
from benchmarks.conftest import format_table
from repro.analysis.montecarlo import sample_parameters
from repro.runtime import Study

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
WORKLOADS = (("rcnet_a", 8 if SMOKE else 512), ("rcnet_b", 2 if SMOKE else 48))
REPEATS = 1 if SMOKE else 3
NUM_POLES = 5
SEED = 2005
BACKENDS = ("serial", "thread", "process-pool")


def _square(x):
    """Module-level warm-up task for the process pool."""
    return x * x


def _run(parametric, samples, executor):
    start = time.perf_counter()
    result = (
        Study(parametric)
        .scenarios(samples)
        .poles(NUM_POLES)
        .executor(executor)
        .run()
    )
    return time.perf_counter() - start, result.pole_sets


def test_executor_choice(report, rcneta, rcnetb):
    nets = {"rcnet_a": rcneta, "rcnet_b": rcnetb}
    rows, results = [], {}
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        # Start both workers and import the solver stack in them.
        list(pool.map(_square, range(4)))
        specs = {"serial": None, "thread": "thread", "process-pool": pool}
        for name, num_instances in WORKLOADS:
            parametric = nets[name]
            samples = sample_parameters(
                num_instances, parametric.num_parameters,
                three_sigma=0.3, seed=SEED,
            )
            plan = Study(parametric).scenarios(samples).poles(NUM_POLES).plan()
            assert plan.route == "executor-full"
            # Warm-up (untimed): shared-pattern family, workers' imports.
            for backend in BACKENDS:
                _run(parametric, samples[:2], specs[backend])
            seconds = {backend: [] for backend in BACKENDS}
            pole_sets = {}
            for repeat in range(REPEATS):
                shift = repeat % len(BACKENDS)
                for backend in BACKENDS[shift:] + BACKENDS[:shift]:
                    elapsed, poles = _run(parametric, samples, specs[backend])
                    seconds[backend].append(elapsed)
                    pole_sets.setdefault(backend, poles)
            for backend in BACKENDS[1:]:
                for a, b in zip(pole_sets["serial"], pole_sets[backend]):
                    assert np.array_equal(a, b), f"{name}: {backend} differs"
            medians = {b: float(np.median(seconds[b])) for b in BACKENDS}
            results[name] = {
                "num_instances": num_instances,
                "order": parametric.order,
                "kernel": plan.kernel,
                "seconds": seconds,
                "median_seconds": medians,
                "bit_identical": True,
            }
            rows.append([name, parametric.order, num_instances] + [
                f"{medians[b]:.3f}s" for b in BACKENDS
            ])

    report(
        "=== RUNTIME: full-order pole study by executor "
        f"(median of {REPEATS}, {os.cpu_count()} CPUs) ===",
        *format_table(("net", "n", "instances", *BACKENDS), rows),
    )
    write_record("executors", {
        "num_poles": NUM_POLES,
        "repeats": REPEATS,
        "process_pool_workers": 2,
        "workloads": results,
    })
