"""Engine dispatch overhead: the front door's own share of ``Study.run()``.

The ``Study`` engine is the one front door of the runtime; its value
is routing, not speed.  This benchmark proves the front door is free:
what ``run()`` spends outside its chunk loop -- building the study,
planning it (a fresh ``Study`` per repetition, as a Monte Carlo loop
declares one per batch, so every call plans afresh), dispatching and
building the result -- must cost < 1% of the chunk loop itself, on a
64-instance RCNetA Monte Carlo sweep (the acceptance workload of the
runtime subsystem).

- engine share: per call, the wall time of
  ``Study(model).scenarios(samples).sweep(freqs).poles(k).run()`` minus
  the wall time of that call's own
  :func:`repro.runtime.stream._drive_chunks`, timed by wrapping the
  engine's reference to it; the median over the repetitions;
- chunk loop: the median wall time of the direct call of the same
  chunk loop (``_drive_chunks`` over the sweep payload, then
  ``_sweep_result``) with precomputed samples -- exactly the work
  ``run()`` performs minus the engine.  Its result must be
  bit-identical to the engine's.

Both rivals are called alternately, ``REPEATS`` times each.  The share
is measured inside each call, so it does not ride on the run-to-run
noise of two separate 20-50 ms calls (a best-of comparison of the two
totals swung by +-10% on a 2-vCPU VM, far past the 1% it gates).

Results are recorded to ``BENCH_engine_overhead.json`` via
:mod:`benchmarks._record`.  Set ``BENCH_SMOKE=1`` for a tiny
configuration with the timing assertion disabled.
"""

import functools
import os
import time

import numpy as np

import repro.runtime.engine as engine_module
from benchmarks._record import write_record
from benchmarks.conftest import format_table
from repro.analysis.montecarlo import sample_parameters
from repro.core import LowRankReducer
from repro.runtime import Study
from repro.runtime.stream import _drive_chunks, _sweep_chunk_payload, _sweep_result

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
NUM_INSTANCES = 8 if SMOKE else 64
NUM_POLES = 5
FREQUENCIES = np.logspace(7, 10, 6 if SMOKE else 120)
REPEATS = 3 if SMOKE else 30
SEED = 2005
OVERHEAD_BUDGET = 0.01


def test_engine_dispatch_overhead(report, rcneta, monkeypatch):
    model = LowRankReducer(num_moments=4, rank=1).reduce(rcneta)
    samples = sample_parameters(
        NUM_INSTANCES, rcneta.num_parameters, three_sigma=0.3, seed=SEED
    )

    def direct():
        payload_fn = functools.partial(
            _sweep_chunk_payload, model, None, FREQUENCIES,
            num_poles=NUM_POLES, keep_poles=True, keep_responses=True,
        )
        folded = _drive_chunks("sweep", samples, NUM_INSTANCES, payload_fn)
        return _sweep_result(folded, None, samples, FREQUENCIES, NUM_INSTANCES)

    loop_seconds = []

    def timed_drive(*args, **kwargs):
        start = time.perf_counter()
        try:
            return _drive_chunks(*args, **kwargs)
        finally:
            loop_seconds.append(time.perf_counter() - start)

    monkeypatch.setattr(engine_module, "_drive_chunks", timed_drive)

    def engine():
        return (
            Study(model)
            .scenarios(samples)
            .sweep(FREQUENCIES, keep_responses=True)
            .poles(NUM_POLES)
            .run()
        )

    # Warm both paths (kernel caches, memoized stacks) before timing.
    direct_result = direct()
    engine_result = engine()
    np.testing.assert_array_equal(
        engine_result.responses, direct_result.responses
    )
    np.testing.assert_array_equal(engine_result.poles, direct_result.poles)

    loop_seconds.clear()
    seconds = {direct: [], engine: []}
    for index in range(REPEATS):
        for fn in (direct, engine) if index % 2 == 0 else (engine, direct):
            start = time.perf_counter()
            fn()
            seconds[fn].append(time.perf_counter() - start)
    shares = np.subtract(seconds[engine], loop_seconds)
    share = float(np.median(shares))
    direct_seconds = float(np.median(seconds[direct]))
    overhead = share / direct_seconds

    plan = Study(model).scenarios(samples).sweep(FREQUENCIES).poles(NUM_POLES).plan()
    report(
        "=== RUNTIME: engine share of Study.run() vs the chunk loop "
        f"({NUM_INSTANCES}-instance RCNetA sweep, {FREQUENCIES.size} freqs, "
        f"medians of {REPEATS}) ===",
        *format_table(
            ("route", "chunk loop", "run()", "engine share", "overhead"),
            [(
                plan.route,
                f"{direct_seconds * 1e3:.2f}ms",
                f"{np.median(seconds[engine]) * 1e3:.2f}ms",
                f"{share * 1e3:.3f}ms",
                f"{overhead * 100:+.2f}%",
            )],
        ),
    )
    write_record("engine_overhead", {
        "num_instances": NUM_INSTANCES,
        "num_frequencies": int(FREQUENCIES.size),
        "model_size": model.size,
        "route": plan.route,
        "repeats": REPEATS,
        "direct_seconds": direct_seconds,
        "engine_seconds": float(np.median(seconds[engine])),
        "engine_loop_seconds": float(np.median(loop_seconds)),
        "engine_share_seconds": share,
        "engine_share_quartiles": np.percentile(shares, [25, 75]),
        "overhead_fraction": overhead,
        "budget_fraction": OVERHEAD_BUDGET,
    })

    if not SMOKE:
        # The front door must be free: < 1% of the chunk loop.
        assert overhead < OVERHEAD_BUDGET, (
            f"engine share {share * 1e3:.3f} ms is {overhead * 100:.2f}% of "
            f"the {direct_seconds * 1e3:.2f} ms chunk loop, over "
            f"{OVERHEAD_BUDGET * 100:.0f}%"
        )
