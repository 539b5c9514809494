"""Property tests for work-stealing: kill anywhere, steal, merge, match.

The scheduler's contract extends the store's durability property to
dynamic workers: run any number of workers against one store, stop each
after an arbitrary number of claimed chunks (the kill point), let a
final worker drain whatever is left -- including a lease abandoned by a
dead process, which it must steal -- and the merged result is
**bit-identical** to a one-shot run without a store.  Hypothesis drives
the ensemble, the chunk size, the worker count, and every worker's kill
point; the property is checked on all the engine's chunkable routes
(dense sweep streaming, dense transient streaming, stacked pole
studies, and the per-instance full-order pole route).
"""

import json
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits.statespace import DescriptorSystem
from repro.circuits.variational import ParametricSystem
from repro.core.model import ParametricReducedModel
from repro.runtime import Study
from repro.runtime.scheduler import CLAIM_FORMAT

RELAXED = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=8
)

FREQUENCIES = np.logspace(7, 10, 5)

_DEAD_PID = None


def _dead_pid():
    """A pid guaranteed dead for the whole session (one spawn, cached)."""
    global _DEAD_PID
    if _DEAD_PID is None:
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        _DEAD_PID = proc.pid
    return _DEAD_PID


@st.composite
def dense_ensembles(draw):
    """A small random dense parametric model plus a sample matrix."""
    q = draw(st.integers(min_value=2, max_value=4))
    num_parameters = draw(st.integers(min_value=1, max_value=2))
    num_samples = draw(st.integers(min_value=2, max_value=7))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((q, q))
    g0 = a @ a.T + q * np.eye(q)
    b = rng.standard_normal((q, q))
    c0 = b @ b.T + q * np.eye(q)
    dG = [0.05 * (m + m.T) for m in rng.standard_normal((num_parameters, q, q))]
    dC = [0.05 * (m + m.T) for m in rng.standard_normal((num_parameters, q, q))]
    nominal = DescriptorSystem(
        g0, c0, rng.standard_normal((q, 1)), rng.standard_normal((q, 2))
    )
    model = ParametricReducedModel(nominal, dG, dC)
    samples = 0.3 * rng.standard_normal((num_samples, num_parameters))
    return model, samples


def _abandon_chunk_zero(store_dir):
    """Plant a dead process's claim, as a SIGKILLed worker leaves behind.

    The final worker must recognize the pid as dead and steal the lease
    immediately -- if chunk 0 is still pending, the study only drains
    through that steal.  (If chunk 0 already landed, the stale claim is
    simply ignored; either way the study must finish.)
    """
    import socket

    for claims_dir in (pathlib.Path(store_dir) / "claims").glob("*"):
        ghost = {
            "format": CLAIM_FORMAT, "index": 0, "worker": "ghost",
            "pid": _dead_pid(), "host": socket.gethostname(),
            "token": "dead", "beats": 0, "wall_time": 0.0,
        }
        (claims_dir / "chunk-00000.claim").write_text(json.dumps(ghost))


def _work_through_killed_workers(build, budgets):
    """``len(budgets)`` workers each die after ``budgets[i]`` chunks.

    Simulated kills use ``max_chunks`` (the worker releases its leases
    like any clean exit) plus one planted dead-pid claim (the unclean
    kind).  A final worker then drains and merges.
    """
    with tempfile.TemporaryDirectory() as store_dir:
        for i, budget in enumerate(budgets):
            build().store(store_dir).work(
                worker=f"w{i}", max_chunks=budget, poll=0.01
            )
        _abandon_chunk_zero(store_dir)
        final = build().store(store_dir)
        merged = final.work(worker="final", poll=0.01)
        assert final.drain_report().drained
        return merged


_WORKERS = st.lists(
    st.integers(min_value=1, max_value=3), min_size=0, max_size=3
)


class TestWorkStealSweep:
    @RELAXED
    @given(dense_ensembles(), st.integers(min_value=1, max_value=3), _WORKERS)
    def test_any_worker_schedule_merges_bit_identical(
        self, ensemble, chunk, budgets
    ):
        model, samples = ensemble

        def build():
            return (
                Study(model)
                .scenarios(samples)
                .sweep(FREQUENCIES, keep_responses=True)
                .poles(3)
                .chunk(chunk)
            )

        reference = build().run()
        merged = _work_through_killed_workers(build, budgets)
        np.testing.assert_array_equal(merged.responses, reference.responses)
        np.testing.assert_array_equal(merged.poles, reference.poles)
        np.testing.assert_array_equal(merged.envelope_min, reference.envelope_min)
        np.testing.assert_array_equal(merged.envelope_mean, reference.envelope_mean)
        np.testing.assert_array_equal(merged.envelope_max, reference.envelope_max)
        np.testing.assert_array_equal(merged.samples, reference.samples)


class TestWorkStealTransient:
    @RELAXED
    @given(dense_ensembles(), st.integers(min_value=1, max_value=3), _WORKERS)
    def test_any_worker_schedule_merges_bit_identical(
        self, ensemble, chunk, budgets
    ):
        model, samples = ensemble

        def build():
            return (
                Study(model)
                .scenarios(samples)
                .transient(num_steps=12, keep_outputs=True)
                .chunk(chunk)
            )

        reference = build().run()
        merged = _work_through_killed_workers(build, budgets)
        np.testing.assert_array_equal(merged.outputs, reference.outputs)
        np.testing.assert_array_equal(merged.delays, reference.delays)
        np.testing.assert_array_equal(merged.slews, reference.slews)
        np.testing.assert_array_equal(merged.envelope_min, reference.envelope_min)
        np.testing.assert_array_equal(merged.envelope_mean, reference.envelope_mean)
        np.testing.assert_array_equal(merged.envelope_max, reference.envelope_max)


class TestWorkStealPoles:
    @RELAXED
    @given(dense_ensembles(), st.integers(min_value=1, max_value=3), _WORKERS)
    def test_stacked_pole_route_merges_bit_identical(
        self, ensemble, chunk, budgets
    ):
        model, samples = ensemble

        def build():
            return Study(model).scenarios(samples).poles(2).chunk(chunk)

        reference = build().run()
        merged = _work_through_killed_workers(build, budgets)
        assert len(merged.pole_sets) == len(reference.pole_sets)
        for merged_set, reference_set in zip(
            merged.pole_sets, reference.pole_sets
        ):
            np.testing.assert_array_equal(merged_set, reference_set)

    @RELAXED
    @given(dense_ensembles(), st.integers(min_value=1, max_value=3), _WORKERS)
    def test_per_instance_route_merges_bit_identical(
        self, ensemble, chunk, budgets
    ):
        dense, samples = ensemble
        # The same ensemble as a sparse full-order system.
        nominal = dense.nominal
        model = ParametricSystem(
            DescriptorSystem(
                sp.csr_matrix(nominal.G), sp.csr_matrix(nominal.C),
                nominal.B, nominal.L,
            ),
            [sp.csr_matrix(m) for m in dense.dG],
            [sp.csr_matrix(m) for m in dense.dC],
        )

        def build():
            return Study(model).scenarios(samples).poles(2).chunk(chunk)

        assert build().plan().route == "per-instance"

        reference = build().run()
        merged = _work_through_killed_workers(build, budgets)
        assert len(merged.pole_sets) == len(reference.pole_sets)
        for merged_set, reference_set in zip(
            merged.pole_sets, reference.pole_sets
        ):
            np.testing.assert_array_equal(merged_set, reference_set)
