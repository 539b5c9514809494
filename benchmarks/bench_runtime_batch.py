"""Runtime engine: batched vs. looped Monte Carlo evaluation.

The value of a reduced macromodel is amortized reuse -- thousands of
cheap evaluations per reduction.  This benchmark measures how much of
that amortization the :mod:`repro.runtime` batch engine recovers over
the historical per-sample Python loop, on the paper's clock-tree nets.

Workload (per circuit): a Monte Carlo study evaluating, for every
parameter instance, (a) the frequency-response sweep over a dense
log-spaced grid and (b) the 5 most dominant poles.

- looped:  ``model.frequency_response(freqs, p)`` +
  ``dominant_poles(model.instantiate(p), 5)`` per instance -- one
  ``O(q^3)`` pencil solve per (instance, frequency) pair plus one
  general eigendecomposition per instance;
- batched: the engine's dense sweep kernel -- one batched
  eigendecomposition per instance serving both the poles and the whole
  frequency axis as rational sums.

Asserted: >= 5x speedup for the 1000-instance RCNetA study (the
acceptance bar for the runtime subsystem) and agreement of the two
paths to 1e-12 relative.

Set ``BENCH_SMOKE=1`` to run a tiny configuration with the timing
assertions disabled (CI keeps the script from bit-rotting without
paying benchmark wall-clock).
"""

import os
import time

import numpy as np

from benchmarks._record import write_record
from benchmarks.conftest import format_table
from repro.analysis.metrics import matched_pole_errors
from repro.analysis.montecarlo import sample_parameters
from repro.analysis.poles import dominant_poles
from repro.core import LowRankReducer
from repro.runtime.batch import _sweep_study

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
NUM_INSTANCES_A = 10 if SMOKE else 1000
NUM_INSTANCES_B = 5 if SMOKE else 200
NUM_POLES = 5
FREQUENCIES = np.logspace(7, 10, 6 if SMOKE else 120)
SEED = 2005


def _looped_study(model, samples):
    responses = np.empty(
        (samples.shape[0], FREQUENCIES.size, model.nominal.num_outputs,
         model.nominal.num_inputs),
        dtype=complex,
    )
    poles = []
    for i, point in enumerate(samples):
        responses[i] = model.frequency_response(FREQUENCIES, point)
        poles.append(dominant_poles(model.instantiate(point), NUM_POLES))
    return responses, poles


def _time(fn, repeats):
    best = np.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _run_study(parametric, num_instances, loop_repeats=1, batch_repeats=3):
    model = LowRankReducer(num_moments=4, rank=1).reduce(parametric)
    samples = sample_parameters(
        num_instances, parametric.num_parameters, three_sigma=0.3, seed=SEED
    )
    loop_seconds, (loop_h, loop_poles) = _time(lambda: _looped_study(model, samples), loop_repeats)
    batch_seconds, (batch_h, batch_poles) = _time(
        lambda: _sweep_study(model, FREQUENCIES, samples, num_poles=NUM_POLES),
        batch_repeats,
    )

    scale = np.abs(loop_h).max()
    response_error = np.abs(batch_h - loop_h).max() / scale
    # The dominant-pole rule on both sides: equal kept counts, and
    # matched values to rounding.
    assert all(
        (~np.isnan(batch_poles[i])).sum() == loop_poles[i].size
        for i in range(samples.shape[0])
    )
    pole_error = max(
        matched_pole_errors(loop_poles[i], batch_poles[i])[0].max()
        for i in range(samples.shape[0])
    )
    return {
        "model_size": model.size,
        "loop_seconds": loop_seconds,
        "batch_seconds": batch_seconds,
        "speedup": loop_seconds / batch_seconds,
        "response_error": response_error,
        "pole_error": pole_error,
        "evaluations": num_instances * FREQUENCIES.size,
    }


def test_runtime_batch_speedup(report, rcneta, rcnetb):
    result_a = _run_study(rcneta, NUM_INSTANCES_A)
    result_b = _run_study(rcnetb, NUM_INSTANCES_B)

    rows = []
    for name, instances, result in (
        ("RCNetA", NUM_INSTANCES_A, result_a),
        ("RCNetB", NUM_INSTANCES_B, result_b),
    ):
        rows.append((
            name,
            instances,
            result["model_size"],
            f"{result['loop_seconds']:.2f}s",
            f"{result['batch_seconds']:.2f}s",
            f"{result['speedup']:.1f}x",
            f"{result['response_error']:.1e}",
            f"{result['pole_error']:.1e}",
        ))

    report(
        "=== RUNTIME: batched vs. looped Monte Carlo evaluation "
        f"({FREQUENCIES.size}-point sweep + {NUM_POLES} poles per instance) ===",
        *format_table(
            ("net", "instances", "q", "loop", "batch", "speedup",
             "response err", "pole err"),
            rows,
        ),
    )

    write_record("runtime_batch", {"rcneta": result_a, "rcnetb": result_b})

    # Both paths must agree to 1e-12 regardless of mode.
    assert result_a["response_error"] <= 1e-12
    assert result_a["pole_error"] <= 1e-12
    assert result_b["response_error"] <= 1e-12
    assert result_b["pole_error"] <= 1e-12
    if not SMOKE:
        # Acceptance bar: the 1000-instance RCNetA study must be >= 5x
        # faster batched; RCNetB rides along at a smaller instance
        # count and must still win clearly.
        assert result_a["speedup"] >= 5.0
        assert result_b["speedup"] >= 2.0
