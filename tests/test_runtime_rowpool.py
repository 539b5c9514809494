"""The row pool: dense eig sweep chunks split over CPUs, one chunk ahead.

Every pool width must leave the bytes alone: a chunk split into 1, 2,
3 or 5 row blocks (forced by monkeypatching
:func:`repro.runtime.executor.row_pool_width`) checkpoints the same
payload as the unsplit chunk, fallback rows included, and fresh,
resumed and work-drained stores hold the same chunk SHA-256s.  Errors
propagate with nothing left queued, a forked child runs its own pool,
and the plan and the trace say what ran.
"""

import functools
import json
import multiprocessing
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import coupled_rlc_bus, rc_tree, rcnet_a, with_random_variations
from repro.circuits.statespace import DescriptorSystem
from repro.core import LowRankReducer
from repro.core.model import ParametricReducedModel
from repro.obs import MemorySink
from repro.obs import metrics as obs_metrics
from repro.runtime import MonteCarloPlan, Study, StoreError
from repro.runtime import batch as batch_module
from repro.runtime import executor as executor_module
from repro.runtime.batch import _sweep_study
from repro.runtime.store import StudyCheckpoint

RELAXED = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    max_examples=12,
)

WIDTHS = (1, 2, 3, 5)
ROW_COUNTS = st.sampled_from((1, 2, 3, 5, 7, 11, 13, 17))
DENSE_AXIS = np.logspace(7, 10, 40)
FALLBACKS = "runtime.batch.eig_fallbacks"


@pytest.fixture(scope="module")
def rc_model():
    """rcnet_a reduced: symmetric-definite, the Cholesky + eigh kernel."""
    return LowRankReducer(num_moments=3, rank=1).reduce(rcnet_a())


@pytest.fixture(scope="module")
def rlc_model():
    """A coupled RLC bus reduction: the general eig kernel."""
    parametric = with_random_variations(coupled_rlc_bus(num_segments=12), 2, seed=3)
    return LowRankReducer(num_moments=3).reduce(parametric)


@pytest.fixture(scope="module")
def jordan_model():
    """Defective at ``p = 0`` (a Jordan block), diagonalizable elsewhere.

    Rows sampled at zero fail the eig guard and fall back to pencil
    solves; rows at ``p = 0.5`` pass it.
    """
    q = 6
    rng = np.random.default_rng(0)
    nominal = DescriptorSystem(
        np.eye(q),
        1e-9 * (np.eye(q) + np.diag(np.ones(q - 1), k=1)),
        rng.standard_normal((q, 1)),
        rng.standard_normal((q, 1)),
    )
    return ParametricReducedModel(
        nominal, [np.zeros((q, q))], [1e-9 * np.diag(np.arange(q, dtype=float))]
    )


def _force_width(monkeypatch, width):
    monkeypatch.setattr(executor_module, "row_pool_width", lambda: width)


def _samples(model, rows, seed):
    return 0.2 * np.random.default_rng(seed).standard_normal(
        (rows, model.num_parameters)
    )


def _payload_bytes(result):
    return [np.asarray(part).tobytes() for part in result]


class _RecordingPool(ThreadPoolExecutor):
    """A row pool that keeps every future it hands out.

    Blocks from the ``slow_from``-th submission on sleep first, so they
    are still queued or running when an earlier error propagates --
    unless the loop cancelled and waited for them.
    """

    def __init__(self):
        super().__init__(max_workers=2)
        self.futures = []
        self.slow_from = None

    def submit(self, fn, *args):
        if self.slow_from is not None and len(self.futures) >= self.slow_from:
            fn = functools.partial(_after_pause, fn)
        future = super().submit(fn, *args)
        self.futures.append(future)
        return future


def _after_pause(fn, *args):
    time.sleep(0.3)
    return fn(*args)


@pytest.fixture()
def recording_pool(monkeypatch):
    pool = _RecordingPool()
    _force_width(monkeypatch, 2)
    monkeypatch.setattr(executor_module, "_shared_row_pool", lambda width: pool)
    yield pool
    pool.shutdown(wait=True)


class TestRowSplitBytes:
    @RELAXED
    @given(ROW_COUNTS, st.integers(min_value=0, max_value=2 ** 16))
    @pytest.mark.parametrize("name", ["rc_model", "rlc_model"])
    def test_kernel_bytes_equal_width_one(self, name, request, monkeypatch, rows, seed):
        model = request.getfixturevalue(name)
        samples = _samples(model, rows, seed)
        results = {}
        for width in WIDTHS:
            _force_width(monkeypatch, width)
            for grid in (False, True):
                results[width, grid] = _payload_bytes(
                    _sweep_study(model, DENSE_AXIS, samples, num_poles=4, grid=grid)
                )
        for (width, grid), got in results.items():
            assert got == results[1, grid], (width, grid)

    @RELAXED
    @given(ROW_COUNTS, st.integers(min_value=0, max_value=2 ** 16))
    def test_fallback_rows_in_any_block(self, jordan_model, monkeypatch, rows, seed):
        flagged = np.random.default_rng(seed).random(rows) < 0.5
        samples = np.where(flagged, 0.0, 0.5)[:, None]
        counter = obs_metrics.counter(FALLBACKS)
        reference = None
        for width in WIDTHS:
            _force_width(monkeypatch, width)
            before = counter.value
            got = _sweep_study(jordan_model, DENSE_AXIS, samples, num_poles=3)
            assert counter.value - before == int(flagged.sum())
            if reference is None:
                reference = _payload_bytes(got)
            assert _payload_bytes(got) == reference, width


class _Interrupted(Exception):
    """Raised by a progress callback to stop a run after some chunks."""


def _chunk_hashes(store_dir):
    hashes = {}
    for path in store_dir.glob("manifest-*.json"):
        for index, record in json.loads(path.read_text())["chunks"].items():
            hashes.setdefault(int(index), set()).add(record["sha256"])
    return hashes


def _declare(model, samples, chunk):
    return (
        Study(model).scenarios(samples)
        .sweep(DENSE_AXIS, keep_responses=True).poles(3).chunk(chunk)
    )


class TestStoreBytes:
    @RELAXED
    @given(ROW_COUNTS, st.sampled_from((1, 2, 3, 4, 16)),
           st.integers(min_value=0, max_value=2 ** 16))
    def test_fresh_stores_identical_at_every_width(
        self, rc_model, monkeypatch, tmp_path_factory, rows, chunk, seed
    ):
        samples = _samples(rc_model, rows, seed)
        hashes = []
        for width in WIDTHS:
            _force_width(monkeypatch, width)
            store = tmp_path_factory.mktemp("store")
            _declare(rc_model, samples, chunk).store(store).run()
            hashes.append(_chunk_hashes(store))
        assert all(h == hashes[0] for h in hashes)

    def test_fresh_resumed_and_drained_stores_identical(
        self, rc_model, rlc_model, monkeypatch, tmp_path
    ):
        for model in (rc_model, rlc_model):
            samples = _samples(model, 11, 5)
            _force_width(monkeypatch, 1)
            serial = tmp_path / f"serial-{model.size}"
            reference = _declare(model, samples, 3).store(serial).run()
            expected = _chunk_hashes(serial)
            _force_width(monkeypatch, 3)

            fresh = tmp_path / f"fresh-{model.size}"
            _declare(model, samples, 3).store(fresh).run()
            assert _chunk_hashes(fresh) == expected

            # Interrupted after two chunks (a third may be queued), resumed.
            resumed = tmp_path / f"resumed-{model.size}"

            def stop(done, total):
                if done >= 6:
                    raise _Interrupted

            with pytest.raises(_Interrupted):
                _declare(model, samples, 3).store(resumed).progress(stop).run()
            assert sorted(_chunk_hashes(resumed)) == [0, 1]
            result = _declare(model, samples, 3).store(resumed).resume().run()
            assert _chunk_hashes(resumed) == expected
            np.testing.assert_array_equal(result.responses, reference.responses)

            drained = tmp_path / f"drained-{model.size}"
            result = _declare(model, samples, 3).work(drained, worker="w1")
            assert _chunk_hashes(drained) == expected
            np.testing.assert_array_equal(result.poles, reference.poles)


class TestFailuresLeaveNothingQueued:
    def test_store_error_from_save(self, rc_model, recording_pool, monkeypatch, tmp_path):
        original = StudyCheckpoint.save

        def failing(self, index, *args, **kwargs):
            if index == 1:
                raise StoreError("disk full")
            return original(self, index, *args, **kwargs)

        monkeypatch.setattr(StudyCheckpoint, "save", failing)
        recording_pool.slow_from = 4  # chunk 2, queued ahead of the failure
        samples = _samples(rc_model, 12, 1)
        with pytest.raises(StoreError, match="disk full"):
            _declare(rc_model, samples, 3).store(tmp_path).run()
        # Chunk 2 was queued ahead when chunk 1's save failed.
        assert len(recording_pool.futures) == 6
        assert all(future.done() for future in recording_pool.futures)

    def test_kernel_error(self, rc_model, recording_pool, monkeypatch):
        original = batch_module._sweep_rows
        poison = 7.0

        def failing(model, freqs, samples, *args):
            lo, hi = args[-2:]
            if np.any(samples[lo:hi] == poison):
                raise np.linalg.LinAlgError("poisoned block")
            return original(model, freqs, samples, *args)

        monkeypatch.setattr(batch_module, "_sweep_rows", failing)
        samples = _samples(rc_model, 12, 2)
        samples[4, 0] = poison  # chunk 1, first block
        recording_pool.slow_from = 3  # its second block, then chunk 2
        with pytest.raises(np.linalg.LinAlgError, match="poisoned"):
            _declare(rc_model, samples, 3).run()
        assert len(recording_pool.futures) == 6
        assert all(future.done() for future in recording_pool.futures)


class TestConcurrentCallers:
    def test_threads_sharing_the_pool_get_their_own_rows(self, rc_model, monkeypatch):
        """Concurrent studies (serve's jobs) share one pool, results unmixed."""
        inputs = [_samples(rc_model, 7 + k, k) for k in range(6)]
        _force_width(monkeypatch, 1)
        expected = [_sweep_study(rc_model, DENSE_AXIS, x, num_poles=3) for x in inputs]
        _force_width(monkeypatch, 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=6) as callers:
                got = list(callers.map(
                    lambda x: _sweep_study(rc_model, DENSE_AXIS, x, num_poles=3),
                    inputs * 3,
                ))
        finally:
            sys.setswitchinterval(interval)
        for result, reference in zip(got, expected * 3):
            assert _payload_bytes(result) == _payload_bytes(reference)
        assert executor_module._row_pool[1] == 5


def _child_sweep(model, samples, expected, results):
    responses, _ = _sweep_study(model, DENSE_AXIS, samples, num_poles=2)
    results.put(bool(np.array_equal(responses, expected)))


class TestForkedChild:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="no fork start method on this platform",
    )
    def test_child_runs_its_own_pool(self, rc_model, monkeypatch):
        _force_width(monkeypatch, 2)
        samples = _samples(rc_model, 6, 3)
        expected, _ = _sweep_study(rc_model, DENSE_AXIS, samples, num_poles=2)
        context = multiprocessing.get_context("fork")
        results = context.Queue()
        child = context.Process(
            target=_child_sweep, args=(rc_model, samples, expected, results)
        )
        child.start()
        try:
            assert results.get(timeout=30) is True
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
                child.join(timeout=10)
        assert not child.is_alive()
        assert child.exitcode == 0


class TestPlanAndTrace:
    def test_plan_names_pool_width_and_lookahead(self, rc_model, monkeypatch):
        samples = _samples(rc_model, 12, 4)
        for width, lookahead in ((1, 0), (2, 1), (5, 1)):
            _force_width(monkeypatch, width)
            plan = Study(rc_model).scenarios(samples).sweep(DENSE_AXIS).chunk(4).plan()
            assert plan.executor == f"row-pool(width={width})"
            assert plan.lookahead == lookahead
            assert f"row-pool(width={width})" in plan.describe()
        one_chunk = Study(rc_model).scenarios(samples).sweep(DENSE_AXIS).plan()
        assert one_chunk.lookahead == 0

    def test_contraction_chosen_from_study_size(self, rc_model):
        small = Study(rc_model).scenarios(_samples(rc_model, 16, 1)).sweep(DENSE_AXIS)
        wide = Study(rc_model).scenarios(_samples(rc_model, 17, 1)).sweep(DENSE_AXIS)
        assert small.chunk(4).plan().kernel.endswith("/grid]")
        assert wide.chunk(4).plan().kernel.endswith("/per-frequency]")

    def test_lookahead_only_inside_memory_budget(self, rc_model, monkeypatch):
        _force_width(monkeypatch, 2)
        samples = _samples(rc_model, 40, 4)
        declare = lambda: Study(rc_model).scenarios(samples).sweep(DENSE_AXIS)
        chunked = declare().chunk(8).plan()
        assert chunked.lookahead == 1
        budgeted = declare().memory_budget(chunked.estimated_peak_bytes).plan()
        assert budgeted.lookahead == 1
        assert budgeted.chunk_size == 8
        tight = declare().memory_budget(chunked.estimated_peak_bytes - 1).plan()
        assert tight.lookahead == 0
        assert tight.estimated_peak_bytes <= chunked.estimated_peak_bytes - 1

    def test_chunk_spans_report_blocks_and_prefetch(self, rc_model, monkeypatch, tmp_path):
        _force_width(monkeypatch, 2)
        samples = _samples(rc_model, 9, 6)

        def chunk_spans(study):
            sink = MemorySink()
            study.trace(sink).run()
            return [
                record["attrs"] for record in sink.records
                if record.get("type") == "span" and record["name"] == "study.chunk"
            ]

        fresh = chunk_spans(_declare(rc_model, samples, 4).store(tmp_path))
        assert [(a["row_blocks"], a["prefetched"]) for a in fresh] == [
            (2, False), (2, True), (1, True)
        ]
        loaded = chunk_spans(_declare(rc_model, samples, 4).store(tmp_path))
        assert [(a["row_blocks"], a["prefetched"], a["loaded"]) for a in loaded] == [
            (0, False, True)
        ] * 3


class TestTracedPeak:
    """The plan's peak estimate, lookahead included, bounds what is
    allocated -- at the mc-sweep shape (4 x 128 rows, q=53)."""

    @pytest.fixture(scope="class")
    def tree_model(self):
        parametric = with_random_variations(rc_tree(2000, seed=1), 3, seed=3)
        return LowRankReducer(num_moments=4).reduce(parametric)

    @staticmethod
    def _traced_peak(study):
        study.run()  # warm the per-model memos
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            study.run()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("num_frequencies", [100, 2000])
    def test_lookahead_peak_within_estimate(self, tree_model, monkeypatch, num_frequencies):
        _force_width(monkeypatch, 2)
        study = (
            Study(tree_model).scenarios(MonteCarloPlan(num_instances=512, seed=3))
            .sweep(np.logspace(7, 10, num_frequencies)).poles(5).chunk(128)
        )
        plan = study.plan()
        assert plan.lookahead == 1
        assert self._traced_peak(study) <= 1.05 * plan.estimated_peak_bytes

    def test_memory_budget_holds(self, tree_model, monkeypatch):
        _force_width(monkeypatch, 2)
        budget = 8 * 2 ** 20
        study = (
            Study(tree_model).scenarios(MonteCarloPlan(num_instances=256, seed=3))
            .sweep(np.logspace(7, 10, 100)).poles(5).memory_budget(budget)
        )
        assert study.plan().num_chunks > 1
        assert self._traced_peak(study) <= 1.05 * budget
