"""Runtime engine: batched vs. looped transient ensemble simulation.

PR 1's benchmark (`bench_runtime_batch.py`) measured the frequency
axis; this one measures the time axis.  Workload: the step response of
every instance of an RC-ladder scenario ensemble -- the waveform
spread behind the delay/slew variability metrics.

- looped:  ``model.instantiate(p)`` +
  :func:`repro.analysis.timedomain.simulate_transient` per instance --
  one dense factorization per instance plus one Python iteration per
  (instance, timestep) pair;
- batched: :func:`repro.runtime.transient.batch_simulate_transient` --
  one stacked LAPACK solve yields every instance's discrete
  propagators, after which the whole ensemble advances eight timesteps
  per stacked matvec and every output comes from two stacked GEMMs
  (the block-stepped kernel).

Asserted: >= 5x speedup for the 128-instance ladder ensemble (the
acceptance bar for the batched time-domain runtime) and agreement of
the two paths to 1e-12 relative.

Set ``BENCH_SMOKE=1`` to run a tiny configuration with the timing
assertions disabled (CI keeps the script from bit-rotting without
paying benchmark wall-clock).
"""

import os
import time

import numpy as np

from benchmarks._record import write_record
from benchmarks.conftest import format_table
from repro.analysis.montecarlo import sample_parameters
from repro.analysis.timedomain import simulate_transient
from repro.circuits import rc_ladder, with_random_variations
from repro.core import LowRankReducer
from repro.runtime import StepInput, batch_simulate_transient, default_horizon

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
NUM_INSTANCES = 8 if SMOKE else 128
NUM_STEPS = 20 if SMOKE else 400
LADDER_SEGMENTS = 10 if SMOKE else 60
NUM_PARAMETERS = 2
SEED = 2005
WAVEFORM = StepInput()


def _looped_ensemble(model, samples, t_final, method):
    outputs = np.empty(
        (samples.shape[0], NUM_STEPS + 1, model.nominal.num_outputs)
    )
    for i, point in enumerate(samples):
        system = model.instantiate(point)
        outputs[i] = simulate_transient(
            system, WAVEFORM, t_final, NUM_STEPS, method=method
        ).outputs
    return outputs


def _time(fn, repeats):
    best = np.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _run_ensemble(parametric, method, loop_repeats=1, batch_repeats=3):
    model = LowRankReducer(num_moments=4, rank=1).reduce(parametric)
    samples = sample_parameters(
        NUM_INSTANCES, parametric.num_parameters, three_sigma=0.3, seed=SEED
    )
    t_final = default_horizon(model)
    loop_seconds, loop_outputs = _time(
        lambda: _looped_ensemble(model, samples, t_final, method), loop_repeats
    )
    batch_seconds, batch_result = _time(
        lambda: batch_simulate_transient(
            model, samples, WAVEFORM, t_final, NUM_STEPS, method=method
        ),
        batch_repeats,
    )
    scale = np.abs(loop_outputs).max()
    return {
        "model_size": model.size,
        "loop_seconds": loop_seconds,
        "batch_seconds": batch_seconds,
        "speedup": loop_seconds / batch_seconds,
        "error": np.abs(batch_result.outputs - loop_outputs).max() / scale,
        "timesteps": NUM_INSTANCES * NUM_STEPS,
    }


def test_runtime_transient_speedup(report):
    parametric = with_random_variations(
        rc_ladder(LADDER_SEGMENTS), NUM_PARAMETERS, seed=3
    )
    results = {
        method: _run_ensemble(parametric, method)
        for method in ("trapezoidal", "backward_euler")
    }

    rows = [
        (
            method,
            NUM_INSTANCES,
            result["model_size"],
            NUM_STEPS,
            f"{result['loop_seconds']:.2f}s",
            f"{result['batch_seconds']:.3f}s",
            f"{result['speedup']:.1f}x",
            f"{result['error']:.1e}",
        )
        for method, result in results.items()
    ]
    report(
        "=== RUNTIME: batched vs. looped transient ensemble "
        f"(RC ladder, {NUM_INSTANCES} instances x {NUM_STEPS} steps"
        f"{', SMOKE' if SMOKE else ''}) ===",
        *format_table(
            ("method", "instances", "q", "steps", "loop", "batch", "speedup",
             "error"),
            rows,
        ),
    )

    write_record("runtime_transient", results)

    # The two paths must agree to 1e-12 relative regardless of mode.
    for result in results.values():
        assert result["error"] <= 1e-12
    if not SMOKE:
        # Acceptance bar: >= 5x speedup on the >= 64-instance ensemble.
        assert NUM_INSTANCES >= 64
        for result in results.values():
            assert result["speedup"] >= 5.0
