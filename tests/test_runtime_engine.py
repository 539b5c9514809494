"""The ``Study`` engine: builder validation, routing, bit-identity.

The engine's contract is threefold: (1) ``plan()`` picks the right
route for each (target, workload) pair and reports honest accounting;
(2) every route's result is bit-identical to the legacy kernel it
wraps; (3) execution directives (chunking, memory budgets, executors,
caches) compose without changing any numbers.
"""

import tracemalloc

import numpy as np
import pytest

from repro.analysis.montecarlo import sample_parameters
from repro.analysis.poles import dominant_poles
from repro.circuits import (
    coupled_rlc_bus,
    power_grid_mesh,
    rc_ladder,
    rc_network_767,
    rc_tree,
    rcnet_a,
    with_random_variations,
)
from repro.core import LowRankReducer
from repro.runtime import (
    CornerPlan,
    ExecutionPlan,
    ModelCache,
    MonteCarloPlan,
    PoleStudy,
    RampInput,
    StreamedSweepStudy,
    StreamedTransientStudy,
    Study,
    sweep_chunk_bytes,
    transient_chunk_bytes,
)
from repro.runtime import executor as executor_module
from repro.runtime.batch import _sweep_study, batch_instantiate
from repro.runtime.sparse import shared_pattern_family
from repro.runtime.stream import _CHUNK_RECORD_BYTES, _transient_run_bytes

FREQUENCIES = np.logspace(7, 10, 6)


@pytest.fixture(scope="module")
def parametric():
    return rcnet_a()


@pytest.fixture(scope="module")
def model(parametric):
    return LowRankReducer(num_moments=3, rank=1).reduce(parametric)


@pytest.fixture(scope="module")
def plan():
    return MonteCarloPlan(num_instances=13, seed=7)


@pytest.fixture(scope="module")
def samples(parametric, plan):
    return plan.sample_matrix(parametric.num_parameters)


@pytest.fixture(scope="module")
def durable_model():
    """The transient-durable benchmark's model shape (q = 28)."""
    parametric = with_random_variations(rc_tree(1000, seed=9101), 2, seed=9101)
    return LowRankReducer(num_moments=3).reduce(parametric)


class TestBuilderValidation:
    def test_requires_scenarios(self, model):
        with pytest.raises(ValueError, match="no scenarios"):
            Study(model).sweep(FREQUENCIES).plan()

    def test_requires_workload(self, model, plan):
        with pytest.raises(ValueError, match="no workload"):
            Study(model).scenarios(plan).plan()

    def test_rejects_two_workloads(self, model, plan):
        study = Study(model).scenarios(plan).sweep(FREQUENCIES).transient()
        with pytest.raises(ValueError, match="exactly one workload"):
            study.plan()

    def test_poles_combine_only_with_sweep(self, model, plan):
        study = Study(model).scenarios(plan).transient(num_steps=5).poles(3)
        with pytest.raises(ValueError, match="cannot be combined"):
            study.plan()

    def test_chunk_and_budget_mutually_exclusive(self, model):
        with pytest.raises(ValueError, match="mutually exclusive"):
            Study(model).chunk(4).memory_budget(1 << 20)
        with pytest.raises(ValueError, match="mutually exclusive"):
            Study(model).memory_budget(1 << 20).chunk(4)

    @pytest.mark.parametrize(
        "options, field",
        [
            ({"num_steps": 0}, "num_steps"),
            ({"num_steps": -3}, "num_steps"),
            ({"num_steps": 2.5}, "num_steps"),
            ({"num_steps": True}, "num_steps"),
            ({"num_steps": "9"}, "num_steps"),
            ({"t_final": -1e-9}, "t_final"),
            ({"t_final": float("inf")}, "t_final"),
            ({"method": "euler"}, "method"),
            ({"delay_threshold": 2.0}, "delay_threshold"),
            ({"delay_threshold": 0.0}, "delay_threshold"),
            ({"slew_bounds": (0.9, 0.1)}, "slew_bounds"),
            ({"slew_bounds": (0.1, 1.0)}, "slew_bounds"),
            ({"reference": "x"}, "reference"),
        ],
    )
    def test_rejects_malformed_transient(self, model, plan, options, field):
        study = Study(model).scenarios(plan).transient(**options)
        with pytest.raises(ValueError, match=field) as info:
            study.plan()
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("num", [2.5, True, -1, "3", float("inf")])
    def test_poles_rejects_non_integers(self, model, num):
        """``poles(2.5)`` must not run 2 poles, nor ``poles(True)`` one."""
        with pytest.raises(ValueError, match="num must be an integer") as info:
            Study(model).poles(num)
        assert "\n" not in str(info.value)

    def test_fractional_steps_never_reuse_a_cached_plan(self, model, plan):
        """2.5 steps must not alias the cached plan of 2 steps."""
        Study(model).scenarios(plan).transient(num_steps=2).plan()
        with pytest.raises(ValueError, match="num_steps"):
            Study(model).scenarios(plan).transient(num_steps=2.5).plan()

    def test_builder_chains_return_self(self, model, plan):
        study = Study(model)
        assert study.scenarios(plan) is study
        assert study.sweep(FREQUENCIES) is study
        assert study.chunk(3) is study
        assert study.progress(lambda done, total: None) is study
        assert "Study" in repr(study)


class TestRouteSelection:
    """plan() coverage: dense-reduced, sparse-full, streamed, executor."""

    def test_dense_one_shot_routes_dense_batch(self, model, plan):
        execution = Study(model).scenarios(plan).sweep(FREQUENCIES).plan()
        assert isinstance(execution, ExecutionPlan)
        assert execution.route == "dense-batch"
        assert execution.kernel == "eig-rational[sweep-study/symmetric/per-frequency]"
        assert execution.num_chunks == 1
        assert execution.num_samples == 13
        assert "dense-reduced" in execution.target

    def test_dense_chunked_routes_dense_stream(self, model, plan):
        execution = Study(model).scenarios(plan).sweep(FREQUENCIES).chunk(4).plan()
        assert execution.route == "dense-stream"
        assert execution.num_chunks == 4
        assert execution.chunk_size == 4

    def test_sparse_sweep_routes_family_with_solver_tier(self, parametric, samples):
        execution = Study(parametric).scenarios(samples).sweep(FREQUENCIES).plan()
        family = shared_pattern_family(parametric)
        assert execution.route == "sparse-family"
        assert execution.kernel == f"shared-pattern[{family.solver_kind}]"
        assert "sparse-full" in execution.target

    def test_full_order_poles_route_per_instance(self, parametric, samples):
        execution = Study(parametric).scenarios(samples).poles(3).plan()
        assert execution.route == "per-instance"
        assert "shared-pattern" in execution.kernel
        assert execution.executor == "serial"

    def test_dense_pole_study_routes_dense_batch(self, model, samples):
        execution = Study(model).scenarios(samples).poles(3).plan()
        assert execution.route == "dense-batch"
        assert "dominant-poles" in execution.kernel

    def test_transient_routes(self, model, plan):
        one_shot = Study(model).scenarios(plan).transient(num_steps=10).plan()
        assert one_shot.route == "dense-batch"
        assert one_shot.kernel == "transient-propagator[gesv]"
        chunked = Study(model).scenarios(plan).transient(num_steps=10).chunk(5).plan()
        assert chunked.route == "dense-stream"
        assert chunked.num_chunks == 3

    def test_describe_mentions_route_and_peak(self, model, plan):
        text = str(Study(model).scenarios(plan).sweep(FREQUENCIES).plan())
        assert "route:" in text and "dense-batch" in text
        assert "peak:" in text and "MiB" in text

    def test_plan_is_stable_across_calls(self, model, plan):
        study = Study(model).scenarios(plan).sweep(FREQUENCIES).chunk(4)
        assert study.plan() == study.plan()

    def test_approximate_sensitivity_model_runs_the_eig_kernel(
        self, rcneta_approximate_model, parametric
    ):
        """Low-rank sensitivity blocks take the same eig kernel as any
        other dense model, and it matches per-instance solves."""
        model = rcneta_approximate_model
        samples = sample_parameters(64, parametric.num_parameters, seed=3)
        freqs = np.logspace(7, 10, 12)
        study = (
            Study(model).scenarios(samples)
            .sweep(freqs, keep_responses=True).poles(5)
        )
        assert study.plan().kernel.startswith("eig-rational[")
        result = study.run()
        for k, point in enumerate(samples):
            reference = model.frequency_response(freqs, point)
            error = np.abs(result.responses[k] - reference).max()
            assert error <= 1e-12 * np.abs(reference).max()


class TestPlanCache:
    def test_fresh_studies_of_one_declaration_plan_equal(
        self, rcneta_approximate_model, samples
    ):
        declaration = lambda: (
            Study(rcneta_approximate_model).scenarios(samples).sweep(FREQUENCIES)
        )
        assert declaration().plan() == declaration().plan()

    def test_builder_changes_miss(self, rcneta_approximate_model, samples):
        declaration = lambda: (
            Study(rcneta_approximate_model).scenarios(samples).sweep(FREQUENCIES)
        )
        plain = declaration().plan()
        chunked = declaration().chunk(3).plan()
        assert chunked is not plain
        assert chunked.num_chunks > plain.num_chunks


class TestDerivedOnce:
    def test_warehoused_transient_run_derives_each_fact_once(
        self, tmp_path, monkeypatch
    ):
        """One run calls ``default_horizon`` (an eigensolve) once and
        hashes the target once; a reread parses its manifest at most
        twice (the checkpoint, the warehouse registration)."""
        import repro.runtime.cache as cache_module
        import repro.runtime.engine as engine_module
        from repro.runtime.store import StudyStore

        model = LowRankReducer(num_moments=2).reduce(
            with_random_variations(rc_tree(60, seed=11), 2, seed=11)
        )
        calls = dict.fromkeys(("horizon", "hash", "parse"), 0)

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        for owner, name, count in (
            (engine_module, "default_horizon", "horizon"),
            (cache_module, "system_fingerprint", "hash"),
            (StudyStore, "_read_manifest", "parse"),
        ):
            monkeypatch.setattr(owner, name, counting(count, getattr(owner, name)))

        def declaration():
            return (
                Study(model).scenarios(MonteCarloPlan(num_instances=16, seed=3))
                .transient(num_steps=20).chunk(4)
                .store(tmp_path / "store").warehouse(tmp_path / "warehouse")
            )

        first = declaration().run()
        assert (calls["horizon"], calls["hash"]) == (1, 1)
        calls["parse"] = 0
        again = declaration().run()
        assert calls["parse"] <= 2
        np.testing.assert_array_equal(again.delays, first.delays)


class TestPeakByteAccounting:
    def test_dense_sweep_estimate_uses_documented_formula(self, model, plan):
        execution = Study(model).scenarios(plan).sweep(FREQUENCIES).chunk(4).plan()
        q = model.nominal.order
        m_out = model.nominal.L.shape[1]
        m_in = model.nominal.B.shape[1]
        # Chunk arrays plus the envelope reducer's three cross-chunk
        # accumulator arrays (running min / sum / max, float64), plus the
        # folded chunk's response grid and magnitudes while a chunk of
        # lookahead computes.
        accumulator = 24 * FREQUENCIES.size * m_out * m_in
        lookahead = execution.lookahead * 24 * 4 * FREQUENCIES.size * m_out * m_in
        assert execution.estimated_peak_bytes == sweep_chunk_bytes(
            q, FREQUENCIES.size, 4, m_out, m_in
        ) + accumulator + lookahead

    def test_transient_estimate_uses_documented_formula(self, model, plan):
        execution = (
            Study(model).scenarios(plan).transient(num_steps=25).chunk(5).plan()
        )
        q = model.nominal.order
        m_out = model.nominal.L.shape[1]
        m_in = model.nominal.B.shape[1]
        # The chunk's working set, the run's fixed terms (envelope
        # accumulator and partials, drive tables, the 13 instances'
        # retained metrics) and every chunk's retained array headers.
        fixed = _transient_run_bytes(13, 25, m_out, m_in, keep_outputs=False)
        assert fixed >= 24 * (25 + 1) * m_out
        assert execution.num_chunks == 3
        assert execution.estimated_peak_bytes == transient_chunk_bytes(
            q, 25, 5, m_out
        ) + fixed + 3 * _CHUNK_RECORD_BYTES

    def test_keep_responses_adds_retained_grid(self, model, plan):
        base = Study(model).scenarios(plan).sweep(FREQUENCIES).chunk(4).plan()
        kept = (
            Study(model)
            .scenarios(plan)
            .sweep(FREQUENCIES, keep_responses=True)
            .chunk(4)
            .plan()
        )
        m_out = model.nominal.L.shape[1]
        m_in = model.nominal.B.shape[1]
        grid = 16 * 13 * FREQUENCIES.size * m_out * m_in
        assert kept.estimated_peak_bytes == base.estimated_peak_bytes + grid
        assert any("keep_responses" in note for note in kept.notes)

    def test_estimate_covers_measured_allocations(self, model, plan):
        """The estimate bounds the arrays the route actually materializes."""
        study = (
            Study(model)
            .scenarios(plan)
            .sweep(FREQUENCIES, keep_responses=True)
            .poles(4)
        )
        execution = study.plan()
        result = study.run()
        g, c = batch_instantiate(model, result.samples)
        measured = result.responses.nbytes + g.nbytes + c.nbytes
        assert execution.estimated_peak_bytes >= measured
        # ... without being uselessly loose (documented factor ~2 on the
        # eigenvector/workspace terms).
        assert execution.estimated_peak_bytes <= 4 * max(
            measured, 16 * 13 * model.nominal.order ** 2
        )

    def test_cached_reduced_stream_estimate_covers_accumulator(
        self, parametric, plan, tmp_path
    ):
        """A streamed study of a cached reduction must budget the
        reducer's accumulator.

        The streaming envelope reducer keeps three cross-chunk arrays
        (running min / sum / max) alive for the whole run; the estimate
        historically omitted them, which understated the peak most
        visibly here, where the reduced model's chunk arrays are tiny.
        The estimate must cover the *measured* accumulator allocations
        and equal the documented per-chunk formula plus that fixed term.
        """
        reducer = LowRankReducer(num_moments=3, rank=1)
        study = (
            Study(ModelCache(tmp_path).get_or_reduce(parametric, reducer))
            .scenarios(plan)
            .sweep(FREQUENCIES)
            .chunk(2)
        )
        execution = study.plan()
        result = study.run()
        accumulator_measured = (
            result.envelope_min.nbytes
            + result.envelope_mean.nbytes
            + result.envelope_max.nbytes
        )
        reduced = reducer.reduce(parametric)
        q = reduced.nominal.order
        m_out = reduced.nominal.L.shape[1]
        m_in = reduced.nominal.B.shape[1]
        chunk_arrays = sweep_chunk_bytes(q, FREQUENCIES.size, 2, m_out, m_in)
        lookahead = execution.lookahead * 24 * 2 * FREQUENCIES.size * m_out * m_in
        assert accumulator_measured == 24 * FREQUENCIES.size * m_out * m_in
        assert execution.estimated_peak_bytes == (
            chunk_arrays + accumulator_measured + lookahead
        )
        assert execution.estimated_peak_bytes >= accumulator_measured


class TestMemoryBudget:
    def test_budget_derives_chunk_size(self, model, plan):
        q = model.nominal.order
        m_out = model.nominal.L.shape[1]
        m_in = model.nominal.B.shape[1]
        per = sweep_chunk_bytes(q, FREQUENCIES.size, 1, m_out, m_in)
        accumulator = 24 * FREQUENCIES.size * m_out * m_in
        execution = (
            Study(model)
            .scenarios(plan)
            .sweep(FREQUENCIES)
            .memory_budget(3 * per + accumulator)
            .plan()
        )
        assert execution.chunk_size == 3
        assert execution.num_chunks == 5  # ceil(13 / 3)
        assert execution.estimated_peak_bytes <= 3 * per + accumulator

    def test_budget_too_small_raises_with_estimate(self, model, plan):
        study = Study(model).scenarios(plan).sweep(FREQUENCIES).memory_budget(64)
        with pytest.raises(ValueError, match="cannot fit a single instance"):
            study.plan()

    def test_budget_results_bit_identical_to_one_shot(self, model, plan, samples):
        reference, _ = _sweep_study(model, FREQUENCIES, samples, num_poles=1)
        q = model.nominal.order
        m_out = model.nominal.L.shape[1]
        m_in = model.nominal.B.shape[1]
        per = sweep_chunk_bytes(q, FREQUENCIES.size, 1, m_out, m_in)
        accumulator = 24 * FREQUENCIES.size * m_out * m_in
        result = (
            Study(model)
            .scenarios(plan)
            .sweep(FREQUENCIES, keep_responses=True)
            .memory_budget(2 * per + accumulator)
            .run()
        )
        assert result.num_chunks == 7  # ceil(13 / 2)
        np.testing.assert_array_equal(result.responses, reference)

    def test_sparse_budget_accounts_for_pencil_workspace(self, parametric, samples):
        family = shared_pattern_family(parametric)
        m_out = parametric.nominal.L.shape[1]
        m_in = parametric.nominal.B.shape[1]
        per = 16 * (2 * family.nnz + FREQUENCIES.size * m_out * m_in)
        fixed = (
            family.workspace_bytes(FREQUENCIES.size)
            + 24 * FREQUENCIES.size * m_out * m_in
        )
        study = (
            Study(parametric)
            .scenarios(samples)
            .sweep(FREQUENCIES)
            .memory_budget(fixed + 2 * per)
        )
        execution = study.plan()
        assert execution.route == "sparse-family"
        assert execution.chunk_size == 2
        assert execution.estimated_peak_bytes == 2 * per + fixed
        # Too small for the fixed workspace alone -> actionable error.
        tiny = Study(parametric).scenarios(samples).sweep(FREQUENCIES).memory_budget(
            fixed // 2 if fixed >= 2 else 1
        )
        with pytest.raises(ValueError, match="cannot fit a single instance"):
            tiny.plan()

    @pytest.mark.parametrize("net", ["signoff", "mesh"])
    def test_sparse_estimate_bounds_measured_peak(self, net):
        """The plan's peak bytes bound what a 4-instance-chunk run allocates.

        The paper's 767-node net (zero fill) and a 40x40 power mesh,
        whose bandwidth of 40 puts it on the wide tier with a filled
        pattern about 5x its union pattern.
        """
        if net == "signoff":
            parametric = rc_network_767()
        else:
            parametric = with_random_variations(power_grid_mesh(40, 40), 2, seed=3)
        samples = 0.7 * np.random.default_rng(5).uniform(-1, 1, (8, 2))
        study = Study(parametric).scenarios(samples).sweep(
            np.logspace(7, 10, 40)
        ).chunk(4)
        tracemalloc.start()
        try:
            execution = study.plan()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            study.run()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= execution.estimated_peak_bytes
        assert execution.kernel == "shared-pattern[level-lu]"

    def test_transient_budget(self, model, plan):
        q = model.nominal.order
        m_out = model.nominal.L.shape[1]
        per = transient_chunk_bytes(q, 20, 1, m_out)
        fixed = _transient_run_bytes(
            13, 20, m_out, model.nominal.B.shape[1], keep_outputs=False
        )
        records = 4 * _CHUNK_RECORD_BYTES  # ceil(13 / 4) chunks
        execution = (
            Study(model)
            .scenarios(plan)
            .transient(num_steps=20)
            .memory_budget(4 * per + fixed + records)
            .plan()
        )
        assert execution.chunk_size == 4
        assert execution.route == "dense-stream"

    @pytest.mark.parametrize("keep_outputs", [False, True])
    @pytest.mark.parametrize("chunk", [1, 4, 32])
    def test_transient_estimate_bounds_measured_peak(
        self, durable_model, chunk, keep_outputs
    ):
        """The transient plan's peak bytes bound what a run allocates.

        A 1000-node RC tree reduced to q = 28, 200 steps, 64 instances.
        Small chunks are where the per-run terms dominate: the metrics
        retained across chunks and their array headers, the envelope
        partials and the drive tables.  ``keep_outputs`` retains every
        trajectory, then concatenates them.  The first run warms the
        process (lazy imports, per-model memos), which no later run
        pays again.
        """
        study = (
            Study(durable_model)
            .scenarios(MonteCarloPlan(num_instances=64, seed=5))
            .transient(
                RampInput(rise_time=1e-10), num_steps=200, output_index=1,
                keep_outputs=keep_outputs,
            )
            .chunk(chunk)
        )
        execution = study.plan()
        study.run()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            study.run()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= execution.estimated_peak_bytes
        # ... without being uselessly loose.
        assert execution.estimated_peak_bytes <= 2 * peak


def _traced_peak(study):
    """Bytes a second run of ``study`` allocates at its peak (the first
    warms the per-model memos, which no later run pays again)."""
    study.run()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        study.run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestGeneralKernelPeak:
    """Sweeps of a nonsymmetric model run the general eig kernel, which
    holds more per instance than the symmetric one; the plan prices it,
    so an RLC bus (q = 52, 4 ports) sweep stays within its estimate and
    within a memory budget.  One row-pool thread computes, so a chunk's
    rows are the only ones in flight and the peak is deterministic."""

    RLC_FREQUENCIES = np.logspace(8, 10, 4)

    @pytest.fixture(scope="class")
    def rlc_model(self):
        parametric = with_random_variations(
            coupled_rlc_bus(num_segments=20), 2, seed=1)
        return LowRankReducer(num_moments=4).reduce(parametric)

    def _sweep(self, model):
        return (Study(model).scenarios(MonteCarloPlan(num_instances=256, seed=1))
                .sweep(self.RLC_FREQUENCIES))

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_estimate_bounds_measured_peak(self, rlc_model, monkeypatch, chunk):
        monkeypatch.setattr(executor_module, "row_pool_width", lambda: 1)
        study = self._sweep(rlc_model).chunk(chunk)
        execution = study.plan()
        assert execution.kernel.startswith("eig-rational[sweep-study/")
        assert _traced_peak(study) <= execution.estimated_peak_bytes

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_swept_pole_sets_are_priced(self, rlc_model, monkeypatch, chunk):
        """``.sweep(f).poles(k)`` keeps every instance's pole set until
        the result is built; the plan prices them as a pole study's."""
        monkeypatch.setattr(executor_module, "row_pool_width", lambda: 1)
        study = self._sweep(rlc_model).poles(5).chunk(chunk)
        execution = study.plan()
        assert execution.workload == "sweep+poles"
        assert _traced_peak(study) <= execution.estimated_peak_bytes

    def test_memory_budget_holds(self, rlc_model, monkeypatch):
        monkeypatch.setattr(executor_module, "row_pool_width", lambda: 1)
        budget = 1 << 20
        study = self._sweep(rlc_model).memory_budget(budget)
        execution = study.plan()
        assert execution.num_chunks > 1
        assert execution.estimated_peak_bytes <= budget
        assert _traced_peak(study) <= budget

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_two_threads_stay_within_estimate(self, rlc_model, monkeypatch,
                                              chunk):
        """With two threads and a chunk of lookahead, a thread that
        finishes a block of one chunk starts a block of the next: one-row
        chunks compute two at a time, and 7 rows split 4 + 3 can hold
        4 + 4.  The plan prices the rows in flight."""
        monkeypatch.setattr(executor_module, "row_pool_width", lambda: 2)
        study = self._sweep(rlc_model).chunk(chunk)
        execution = study.plan()
        assert execution.lookahead == 1
        assert _traced_peak(study) <= execution.estimated_peak_bytes

    def test_two_thread_memory_budget_holds(self, rlc_model, monkeypatch):
        """The budget's chunks cannot also hold the rows lookahead puts
        in flight, so the plan runs without it, within budget whatever
        the thread timing."""
        monkeypatch.setattr(executor_module, "row_pool_width", lambda: 2)
        budget = 1 << 20
        study = self._sweep(rlc_model).memory_budget(budget)
        execution = study.plan()
        assert execution.num_chunks > 1 and execution.lookahead == 0
        assert execution.estimated_peak_bytes <= budget
        for _ in range(8):
            assert _traced_peak(study) <= budget


class TestPoleMemoryBudget:
    """Pole studies are chunked like every other study: a budget bounds
    the stacked instantiation of a dense model, with or without a
    store."""

    def test_dense_pole_study_stays_within_budget(self, durable_model):
        budget = 1 << 20
        study = (
            Study(durable_model)
            .scenarios(MonteCarloPlan(num_instances=256, seed=5))
            .poles(5)
            .memory_budget(budget)
        )
        execution = study.plan()
        assert execution.num_chunks > 1
        assert execution.estimated_peak_bytes <= budget
        study.run()  # warm the per-model memos
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = study.run()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= budget
        one_shot = Study(durable_model).scenarios(
            MonteCarloPlan(num_instances=256, seed=5)
        ).poles(5).run()
        for a, b in zip(result.pole_sets, one_shot.pole_sets):
            np.testing.assert_array_equal(a, b)

    def test_budget_too_small_for_one_instance(self, durable_model, plan):
        study = Study(durable_model).scenarios(plan).poles(5).memory_budget(1024)
        with pytest.raises(ValueError, match="cannot fit a single instance"):
            study.plan()


def _assert_refused_everywhere(target, samples, tmp_path):
    """``target`` is refused in one line for every workload -- through
    plan(), fingerprint(), run() and work() alike -- and no manifest or
    chunk archive reaches the store."""
    declarations = {
        "sweep": lambda study: study.sweep(FREQUENCIES),
        "sweep+poles": lambda study: study.sweep(FREQUENCIES).poles(2),
        "transient": lambda study: study.transient(num_steps=5),
        "poles": lambda study: study.poles(2),
    }
    store = tmp_path / "store"
    for name, declare in declarations.items():
        for call in ("plan", "fingerprint", "run", "work"):
            study = declare(Study(target).scenarios(samples)).store(store)
            with pytest.raises(ValueError, match="neither dense nor sparse") as info:
                getattr(study, call)()
            assert "\n" not in str(info.value), (name, call)
    assert not list(store.rglob("manifest-*"))
    assert not list(store.rglob("chunk-*"))


class TestRunBitIdentity:
    def test_sweep_result_type_and_identity(self, model, plan, samples):
        reference_h, reference_p = _sweep_study(model, FREQUENCIES, samples, num_poles=5)
        result = (
            Study(model)
            .scenarios(plan)
            .sweep(FREQUENCIES, keep_responses=True)
            .poles(5)
            .run()
        )
        assert isinstance(result, StreamedSweepStudy)
        assert result.plan == plan
        np.testing.assert_array_equal(result.responses, reference_h)
        np.testing.assert_array_equal(result.poles, reference_p)

    def test_transient_result_type_and_identity(self, model, plan, samples):
        from repro.runtime.transient import _transient_study

        reference = _transient_study(model, samples, num_steps=30)
        result = Study(model).scenarios(plan).transient(num_steps=30).run()
        assert isinstance(result, StreamedTransientStudy)
        assert result.plan == plan
        np.testing.assert_array_equal(result.delays, reference.delays())
        np.testing.assert_array_equal(result.steady_states, reference.steady_states)

    def test_dense_pole_study_matches_stacked_protocol(self, model, samples):
        result = Study(model).scenarios(samples).poles(4).run()
        assert isinstance(result, PoleStudy)
        reference = [dominant_poles(model, 4, point) for point in samples]
        assert len(result.pole_sets) == len(reference)
        for got, expected in zip(result.pole_sets, reference):
            np.testing.assert_array_equal(got, expected)
        stacked = result.poles
        assert stacked.shape == (samples.shape[0], 4)

    def test_sparse_pole_study_matches_scalar_protocol(self, parametric, samples):
        result = Study(parametric).scenarios(samples[:4]).poles(3).run()
        for got, point in zip(result.pole_sets, samples[:4]):
            np.testing.assert_array_equal(got, dominant_poles(parametric, 3, point))

    def test_pole_study_chunked_bit_identical(self, parametric, samples):
        one_shot = Study(parametric).scenarios(samples[:4]).poles(3).run()
        chunked = Study(parametric).scenarios(samples[:4]).poles(3).chunk(3).run()
        for a, b in zip(one_shot.pole_sets, chunked.pole_sets):
            np.testing.assert_array_equal(a, b)

    def test_mixed_model_pole_fallback_route(self, samples, tmp_path):
        """Neither dense- nor sparse-batchable: there is no per-sample
        fallback route, so every workload refuses it at plan() in one
        line, before any store file is written."""
        from repro.circuits.statespace import DescriptorSystem
        from repro.circuits.variational import ParametricSystem

        base = with_random_variations(rc_ladder(6), 2, seed=3)
        mixed = ParametricSystem(
            DescriptorSystem(
                base.nominal.G,  # sparse G, dense everything else
                base.nominal.C.toarray(),
                np.asarray(base.nominal.B.toarray()),
                np.asarray(base.nominal.L.toarray()),
            ),
            [m.toarray() for m in base.dG],
            [m.toarray() for m in base.dC],
        )
        _assert_refused_everywhere(mixed, samples[:3, :2], tmp_path)

    def test_duck_typed_model_pole_fallback(self, model, samples, tmp_path):
        """A duck-typed target (only ``instantiate`` / ``num_parameters``)
        has no fallback route either, and no content fingerprint: its
        study key would hash ``repr(target)``, so two different models
        with one ``repr`` would share a store key.  Refused at plan()."""

        class DuckModel:
            num_parameters = model.num_parameters

            def instantiate(self, p):
                return model.instantiate(p)

        _assert_refused_everywhere(DuckModel(), samples[:3], tmp_path)

    def test_progress_fires_on_per_sample_routes(self, parametric, samples):
        seen = []
        (
            Study(parametric)
            .scenarios(samples[:3])
            .poles(2)
            .progress(lambda done, total: seen.append((done, total)))
            .run()
        )
        assert seen == [(3, 3)]


class TestReducedAndCached:
    def test_cached_reduction_hits_on_second_study(self, parametric, plan, tmp_path):
        """Reduce through the ModelCache, then declare the Study: a
        second study of the same (system, reducer) loads the model, and
        lands on the same study key and numbers as the first."""
        cache = ModelCache(tmp_path / "models")

        class CountingReducer(LowRankReducer):
            """Counts reduce() calls in an underscore (non-keyed) attr."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._calls = []

            def reduce(self, system):
                self._calls.append(1)
                return super().reduce(system)

        reducer = CountingReducer(num_moments=3, rank=1)

        def build():
            model = cache.get_or_reduce(parametric, reducer)
            return Study(model).scenarios(plan).sweep(FREQUENCIES)

        first_study = build()
        first = first_study.run()
        assert len(reducer._calls) == 1
        # Second study, same (system, reducer) key: loaded, not re-reduced.
        second_study = build()
        cache_hit = second_study.run()
        assert len(reducer._calls) == 1
        assert (cache.hits, cache.misses) == (1, 1)
        assert second_study.fingerprint() == first_study.fingerprint()
        np.testing.assert_array_equal(cache_hit.envelope_max, first.envelope_max)

    def test_adaptive_reducer_tuple_result_unwrapped(self, plan, tmp_path):
        """An adaptive reducer returns ``(model, report)``; the cache
        stores and returns the model, which a Study then evaluates."""
        from repro.core import AdaptiveLowRankReducer

        parametric = with_random_variations(rc_tree(40, seed=5), 2, seed=7)
        reducer = AdaptiveLowRankReducer(target_error=1e-3, max_order=8)
        cache = ModelCache(tmp_path)
        model = cache.get_or_reduce(parametric, reducer)
        assert cache.get_or_reduce(parametric, reducer).nominal.order == model.nominal.order
        study = (
            Study(model)
            .scenarios(MonteCarloPlan(num_instances=3, seed=1))
            .sweep(FREQUENCIES)
        )
        execution = study.plan()
        assert "dense-reduced" in execution.target
        result = study.run()
        assert result.num_samples == 3
