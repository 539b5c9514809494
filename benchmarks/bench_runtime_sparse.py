"""Runtime engine: sparse shared-pattern full-order sweep vs per-sample loop.

PRs 1-2 gave the *reduced* side of a study its ~10-45x batching; this
benchmark measures the same treatment for the *full-order* side, which
Monte Carlo validation cannot avoid: every instance of a sparse
variational system must be instantiated and solved at full size.

Workload: a full-order Monte Carlo frequency sweep -- ``m`` parameter
instances of a generated RC network (>= 2000 MNA unknowns), each
evaluated on an ``n_f``-point frequency grid.

- looped:  ``parametric.instantiate(p)`` (a chain of scipy sparse
  additions) + ``DescriptorSystem.frequency_response`` (one fresh
  SuperLU symbolic + numeric factorization per frequency) per instance;
- sparse:  :class:`repro.runtime.sparse.SparsePatternFamily` -- the
  union pattern and index maps are built once, instantiation is a
  data-array update, and every pencil runs through the shared-pattern
  kernel (tridiagonal / banded LAPACK in RCM order, the level-scheduled
  LU for wide patterns, or SuperLU numeric refactorization where a
  diagonal is structurally missing).

Asserted: >= 5x speedup for the 2048-unknown ladder study (the
acceptance bar for the sparse runtime), clear wins for the banded mesh
and level-LU tree rows, that a voltage-source-driven tree still routes
to SuperLU, and agreement of both paths to 1e-9 relative.

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
from repro.circuits import power_grid_mesh, rc_ladder, rc_tree, with_random_variations
from repro.circuits.netlist import Netlist
from repro.runtime.sparse import SparsePatternFamily

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
NUM_SAMPLES = 4 if SMOKE else 64
FREQUENCIES = np.logspace(7, 10, 3 if SMOKE else 8)
SEED = 2005

LADDER_SEGMENTS = 127 if SMOKE else 2047       # 2048 MNA unknowns
MESH_SHAPE = (5, 24) if SMOKE else (10, 205)   # 2050 MNA unknowns, bandwidth 11
TREE_NODES = 200 if SMOKE else 600             # wide RCM band: level-scheduled LU


def _voltage_driven_tree() -> Netlist:
    """The tree row's net driven by ``V1 in 0``: a row with no diagonal."""
    net = rc_tree(TREE_NODES, seed=7)
    net.resistor("Rsrc", "in", "n0", 25.0)
    net.voltage_source("V1", "in", "0")
    return net


def _looped_sweep(parametric, samples):
    out = np.empty(
        (samples.shape[0], FREQUENCIES.size, parametric.nominal.num_outputs,
         parametric.nominal.num_inputs),
        dtype=complex,
    )
    for k, point in enumerate(samples):
        out[k] = parametric.instantiate(point).frequency_response(FREQUENCIES)
    return out


def _time(fn, repeats):
    best = np.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _run_workload(parametric, num_samples, fast_repeats=2):
    samples = sample_parameters(
        num_samples, parametric.num_parameters, three_sigma=0.3, seed=SEED
    )
    loop_seconds, loop_h = _time(lambda: _looped_sweep(parametric, samples), 1)

    def sparse_sweep():
        # Family construction included: the one-time pattern analysis is
        # part of the price the sparse path pays.
        family = SparsePatternFamily(parametric)
        return family, family.frequency_response(FREQUENCIES, samples)

    sparse_seconds, (family, sparse_h) = _time(sparse_sweep, fast_repeats)
    scale = np.abs(loop_h).max()
    return {
        "order": parametric.order,
        "num_samples": num_samples,
        "num_frequencies": int(FREQUENCIES.size),
        "solver": family.solver_kind,
        "bandwidth": family.bandwidth,
        "loop_seconds": loop_seconds,
        "sparse_seconds": sparse_seconds,
        "speedup": loop_seconds / sparse_seconds,
        "response_error": float(np.abs(sparse_h - loop_h).max() / scale),
    }


def test_runtime_sparse_speedup(report):
    ladder = with_random_variations(rc_ladder(LADDER_SEGMENTS), 2, seed=3)
    mesh = with_random_variations(power_grid_mesh(*MESH_SHAPE), 2, seed=3)
    tree = with_random_variations(rc_tree(TREE_NODES, seed=7), 2, seed=3)
    source_tree = with_random_variations(_voltage_driven_tree(), 2, seed=3)

    results = {
        "ladder": _run_workload(ladder, NUM_SAMPLES),
        "mesh": _run_workload(mesh, max(NUM_SAMPLES // 4, 2)),
        "tree": _run_workload(tree, max(NUM_SAMPLES // 4, 2)),
        "source_tree": _run_workload(source_tree, max(NUM_SAMPLES // 4, 2)),
    }

    rows = []
    for name, result in results.items():
        rows.append((
            name,
            result["order"],
            result["num_samples"],
            f"{result['solver']}({result['bandwidth']})",
            f"{result['loop_seconds']:.2f}s",
            f"{result['sparse_seconds']:.2f}s",
            f"{result['speedup']:.1f}x",
            f"{result['response_error']:.1e}",
        ))
    report(
        "=== RUNTIME: sparse shared-pattern full-order sweep vs per-sample loop "
        f"({FREQUENCIES.size}-point sweep per instance) ===",
        *format_table(
            ("net", "n", "instances", "solver", "loop", "sparse", "speedup", "err"),
            rows,
        ),
    )
    write_record("runtime_sparse", results)

    # Both paths are exact solvers; they must agree to solver roundoff.
    for result in results.values():
        assert result["response_error"] <= 1e-9
    # The four solver tiers must actually engage.
    assert results["ladder"]["solver"] == "tridiagonal"
    assert results["mesh"]["solver"] == "banded"
    assert results["tree"]["solver"] == "level-lu"
    assert results["source_tree"]["solver"] == "superlu"
    if not SMOKE:
        # Acceptance bar: >= 5x on the >= 2000-unknown, >= 64-instance
        # ladder study; the banded and level-LU tiers ride along and
        # must still beat the per-sample loop clearly.
        assert results["ladder"]["speedup"] >= 5.0
        assert results["mesh"]["speedup"] >= 1.5
        assert results["tree"]["speedup"] >= 1.1
