"""Execution backends: ordering, resolution, and cross-backend parity.

Process execution is not built in: a caller-supplied
``concurrent.futures.ProcessPoolExecutor`` (the ``process_pool``
fixture) passes through ``resolve_executor``, so the process cases
below drive one through the engine's row-mapping helper.
"""

import functools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np
import pytest

from repro.analysis.montecarlo import monte_carlo_pole_study, sample_parameters
from repro.circuits import rcnet_a
from repro.core import LowRankReducer
from repro.runtime.batch import _sweep_study
from repro.runtime.engine import _map_traced
from repro.runtime import (
    SerialExecutor,
    Study,
    ThreadExecutor,
    resolve_executor,
)

FREQUENCIES = np.logspace(7, 10, 5)


def _square(x):
    """Module-level so a process pool can pickle it."""
    return x * x


def _row_norm(row):
    """Module-level row task for the row-mapping tests."""
    return float(np.linalg.norm(row))


def _sweep_task(model, point):
    """A real sweep-study work item (one-sample study)."""
    responses, poles = _sweep_study(model, FREQUENCIES, [point], num_poles=3)
    return responses[0], poles[0]


@pytest.fixture(scope="module")
def reduced_model():
    return LowRankReducer(num_moments=2, rank=1).reduce(rcnet_a())


class TestSerialExecutor:
    def test_ordered_map(self):
        assert SerialExecutor().map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_empty(self):
        assert SerialExecutor().map(_square, []) == []

    def test_map_array_rows(self):
        """The engine maps a task over the rows of a sample matrix."""
        matrix = np.arange(6.0).reshape(3, 2)
        expected = [_row_norm(row) for row in matrix]
        assert _map_traced(SerialExecutor(), _row_norm, matrix) == expected


class TestThreadExecutor:
    def test_matches_serial(self):
        items = list(range(23))
        assert ThreadExecutor(max_workers=4).map(_square, items) == [
            x * x for x in items
        ]

    def test_empty(self):
        assert ThreadExecutor(max_workers=2).map(_square, []) == []

    def test_map_array(self):
        matrix = np.random.default_rng(0).standard_normal((9, 3))
        expected = [_row_norm(row) for row in matrix]
        assert _map_traced(ThreadExecutor(max_workers=3), _row_norm, matrix) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            ThreadExecutor(max_workers=0)


class TestProcessExecutor:
    """A caller-supplied stdlib process pool, passed straight through."""

    def test_matches_serial(self, process_pool):
        items = list(range(17))
        executor = resolve_executor(process_pool)
        assert executor is process_pool
        assert list(executor.map(_square, items)) == SerialExecutor().map(_square, items)

    def test_empty(self, process_pool):
        assert _map_traced(process_pool, _row_norm, np.empty((0, 3))) == []

    def test_ordering_one_worker_vs_many(self, process_pool):
        matrix = np.arange(62.0, 0.0, -1.0).reshape(31, 2)  # order must survive
        expected = [_row_norm(row) for row in matrix]
        assert _map_traced(process_pool, _row_norm, matrix) == expected
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as single:
            assert _map_traced(single, _row_norm, matrix) == expected

    def test_deterministic_on_real_sweep_study_task(self, reduced_model, process_pool):
        """Bit-identical sweep-study results, serial vs a process pool."""
        points = sample_parameters(6, 3, seed=17)
        task = functools.partial(_sweep_task, reduced_model)
        serial = _map_traced(SerialExecutor(), task, points)
        parallel = _map_traced(process_pool, task, points)
        for (h_serial, p_serial), (h_parallel, p_parallel) in zip(serial, parallel):
            np.testing.assert_array_equal(h_serial, h_parallel)
            np.testing.assert_array_equal(p_serial, p_parallel)


class TestContextManagement:
    """Our executors are context managers with deterministic shutdown."""

    def test_serial_context_is_noop(self):
        executor = SerialExecutor()
        with executor as entered:
            assert entered is executor
            assert entered.map(_square, [2]) == [4]

    def test_thread_pool_persists_inside_context(self):
        executor = ThreadExecutor(max_workers=2)
        assert executor._pool is None
        with executor:
            first_pool = executor._pool
            assert first_pool is not None
            executor.map(_square, [1, 2])
            executor.map(_square, [3])
            assert executor._pool is first_pool  # reused, not respawned
        assert executor._pool is None  # deterministically shut down

    def test_process_pool_persists_inside_context(self, process_pool):
        """A caller's process pool serves two runs and stays open."""
        for seed in (5, 6):
            result = (
                Study(rcnet_a())
                .scenarios(sample_parameters(2, 3, seed=seed))
                .poles(2)
                .executor(process_pool)
                .run()
            )
            assert len(result.pole_sets) == 2
        assert process_pool.submit(_square, 3).result() == 9

    def test_nested_contexts_keep_one_pool(self):
        executor = ThreadExecutor(max_workers=2)
        with executor:
            pool = executor._pool
            with executor:
                assert executor._pool is pool
            assert executor._pool is pool  # inner exit keeps the pool
        assert executor._pool is None

    def test_outside_context_no_pool_survives_a_call(self):
        executor = ThreadExecutor(max_workers=2)
        executor.map(_square, [1, 2])
        assert executor._pool is None

    def test_close_is_idempotent(self):
        executor = ThreadExecutor(max_workers=1)
        executor.__enter__()
        executor.close()
        executor.close()
        assert executor._pool is None

    def test_results_identical_inside_and_outside_context(self):
        items = list(range(13))
        executor = ThreadExecutor(max_workers=2)
        outside = executor.map(_square, items)
        with executor:
            inside = executor.map(_square, items)
        assert inside == outside == [x * x for x in items]

    def test_engine_closes_executors_it_builds(self, reduced_model):
        """A Study given a spec string shuts the pool down after run()."""
        study = (
            Study(rcnet_a())
            .scenarios(sample_parameters(3, 3, seed=5))
            .poles(3)
            .executor("thread")
        )
        result = study.run()
        assert len(result.pole_sets) == 3

    def test_engine_leaves_user_instances_open(self):
        """A pass-through executor instance stays owned by the caller."""
        with ThreadExecutor(max_workers=2) as executor:
            study = (
                Study(rcnet_a())
                .scenarios(sample_parameters(2, 3, seed=5))
                .poles(2)
                .executor(executor)
            )
            study.run()
            assert executor._pool is not None  # engine did not close it
        assert executor._pool is None


class TestResolveExecutor:
    def test_default_is_serial(self):
        assert isinstance(resolve_executor(None), SerialExecutor)
        assert isinstance(resolve_executor("serial"), SerialExecutor)

    def test_thread_specs(self):
        assert isinstance(resolve_executor("thread"), ThreadExecutor)
        assert isinstance(resolve_executor("threads"), ThreadExecutor)

    def test_process_specs(self):
        """A worker count is a thread pool; process names are refused."""
        resolved = resolve_executor(3)
        assert isinstance(resolved, ThreadExecutor)
        assert resolved.max_workers == 3
        for spec in ("process", "processes"):
            with pytest.raises(ValueError, match="ProcessPoolExecutor"):
                resolve_executor(spec)

    def test_shared_specs(self):
        for spec in ("shared", "sharedmem", "shared-memory"):
            with pytest.raises(ValueError, match="unknown executor spec"):
                resolve_executor(spec)

    def test_study_plan_refuses_process_and_shared(self, reduced_model):
        """One line naming every accepted spec, on every route."""
        samples = sample_parameters(2, 3, seed=5)
        for target in (rcnet_a(), reduced_model):
            for spec in ("process", "shared"):
                study = Study(target).scenarios(samples).poles(2).executor(spec)
                with pytest.raises(ValueError) as caught:
                    study.plan()
                message = str(caught.value)
                assert "\n" not in message
                for accepted in ("'serial'", "'thread'", "worker count",
                                 "ProcessPoolExecutor"):
                    assert accepted in message

    def test_one_worker_is_serial(self):
        assert isinstance(resolve_executor(1), SerialExecutor)

    def test_passthrough_object(self):
        executor = SerialExecutor()
        assert resolve_executor(executor) is executor

    def test_passthrough_constructed_instances(self, process_pool):
        """Already-built executors pass through with their pool state."""
        with ThreadPoolExecutor(max_workers=2) as stdlib_threads:
            for executor in (
                ThreadExecutor(max_workers=3),
                stdlib_threads,
                process_pool,
            ):
                assert resolve_executor(executor) is executor
        with ThreadExecutor(max_workers=1) as entered:
            assert resolve_executor(entered) is entered
            assert entered._pool is not None

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            resolve_executor("fiber")
        with pytest.raises(ValueError):
            resolve_executor(0)
        with pytest.raises(ValueError):
            resolve_executor(True)
        with pytest.raises(ValueError):
            resolve_executor(3.5)

    def test_map_only_object_maps_rows(self):
        class MapOnly:
            def map(self, fn, items):
                return [fn(item) for item in items]

        matrix = np.arange(8.0).reshape(4, 2)
        expected = [_row_norm(row) for row in matrix]
        assert _map_traced(resolve_executor(MapOnly()), _row_norm, matrix) == expected


class TestStudyParity:
    @pytest.mark.parametrize("spec", [2, "thread", "process-pool"])
    def test_study_bitwise_matches_serial(self, spec, request):
        executor = (
            request.getfixturevalue("process_pool")
            if spec == "process-pool" else spec
        )
        parametric = rcnet_a()
        model = LowRankReducer(num_moments=2, rank=1).reduce(parametric)
        serial = monte_carlo_pole_study(
            parametric, model, 3, num_poles=3, seed=13, executor=None
        )
        parallel = monte_carlo_pole_study(
            parametric, model, 3, num_poles=3, seed=13, executor=executor
        )
        np.testing.assert_array_equal(serial.pole_errors, parallel.pole_errors)
        np.testing.assert_array_equal(serial.full_poles, parallel.full_poles)
