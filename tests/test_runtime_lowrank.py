"""Low-rank eigensystem updates: detection, exactness, routing, tiers.

The contract of :mod:`repro.runtime.lowrank`: when a model's parameter
sensitivities are genuinely low-rank, the ensemble solver's
Woodbury-corrected responses and updated pole spectra match the dense
per-instance eig kernel to 1e-10 relative; detection refuses models
whose sensitivities are effectively full-rank (so the bit-exact eig
route keeps serving them); and the ``Study`` planner routes between
the kernels on the flop estimates it exposes on the plan.

Also covered here: the ill-conditioned-eigenbasis guard of the eig
kernel (satellite of the same perf pass), the float32 screening tier's
``verified`` provenance column, the ``batch_poles`` truncation
pass-down, and the process-global plan cache.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.montecarlo import sample_parameters
from repro.circuits import rcnet_a
from repro.circuits.statespace import DescriptorSystem
from repro.core import LowRankReducer, sensitivity_rank_factors
from repro.core.model import ParametricReducedModel
from repro.obs import metrics as obs_metrics
from repro.runtime import Study, detect_lowrank_structure, lowrank_solver
from repro.runtime.batch import (
    _solve_responses,
    _sweep_study,
    batch_instantiate,
    batch_poles,
)
from repro.runtime.lowrank import LowRankEnsembleSolver, eig_sweep_flops

RELAXED = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=15
)

FREQUENCIES = np.logspace(7, 10, 12)


@pytest.fixture(scope="module")
def parametric():
    return rcnet_a()


@pytest.fixture(scope="module")
def model(parametric):
    """The low-rank carrier: projected sensitivities keep rank ~6."""
    return LowRankReducer(
        num_moments=4, rank=1, approximate_sensitivities=True
    ).reduce(parametric)


@pytest.fixture(scope="module")
def dense_model(parametric):
    """Exact-sensitivity reduction: effectively full-rank blocks."""
    return LowRankReducer(num_moments=4, rank=1).reduce(parametric)


@pytest.fixture(scope="module")
def samples(parametric):
    return sample_parameters(16, parametric.num_parameters, seed=7)


@st.composite
def lowrank_ensembles(draw):
    """A random dense model with *genuinely* low-rank sensitivities."""
    q = draw(st.integers(min_value=5, max_value=10))
    num_parameters = draw(st.integers(min_value=1, max_value=2))
    num_samples = draw(st.integers(min_value=2, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((q, q))
    g0 = a @ a.T + q * np.eye(q)
    b = rng.standard_normal((q, q))
    c0 = b @ b.T + q * np.eye(q)
    dG = [
        0.05 * np.outer(rng.standard_normal(q), rng.standard_normal(q))
        for _ in range(num_parameters)
    ]
    dC = [
        0.05 * np.outer(rng.standard_normal(q), rng.standard_normal(q))
        for _ in range(num_parameters)
    ]
    nominal = DescriptorSystem(
        g0, c0, rng.standard_normal((q, 1)), rng.standard_normal((q, 2))
    )
    model = ParametricReducedModel(nominal, dG, dC)
    samples = 0.3 * rng.standard_normal((num_samples, num_parameters))
    return model, samples


class TestDetection:
    def test_rank_factors_split_low_rank_matrices(self):
        rng = np.random.default_rng(0)
        m1 = np.outer(rng.standard_normal(6), rng.standard_normal(6))
        m2 = np.zeros((6, 6))
        factors = sensitivity_rank_factors([m1, m2])
        (x1, y1), (x2, y2) = factors
        assert x1.shape == (6, 1) and y1.shape == (6, 1)
        assert x2.shape == (6, 0) and y2.shape == (6, 0)
        np.testing.assert_allclose(x1 @ y1.T, m1, atol=1e-12)

    def test_rank_factors_abort_above_budget(self):
        rng = np.random.default_rng(1)
        full = rng.standard_normal((6, 6))
        assert sensitivity_rank_factors([full], max_total_rank=2) is None

    def test_detects_structure_on_approximate_reduction(self, model):
        detected = detect_lowrank_structure(model)
        assert detected is not None
        g_factors, c_factors = detected
        total = sum(x.shape[1] for x, _ in g_factors)
        total += sum(x.shape[1] for x, _ in c_factors)
        assert 0 < total <= max(1, model.size // 3)

    def test_rejects_full_rank_sensitivities(self, dense_model):
        assert detect_lowrank_structure(dense_model) is None
        assert lowrank_solver(dense_model) is None

    def test_solver_is_memoized_per_model(self, model):
        assert lowrank_solver(model) is lowrank_solver(model)


class TestSolverExactness:
    def test_responses_match_eig_kernel(self, model, samples):
        solver = lowrank_solver(model)
        reference, _ = _sweep_study(
            model, FREQUENCIES, samples, num_poles=None, want_poles=False
        )
        responses = solver.responses(samples, FREQUENCIES)
        assert responses.dtype == np.complex128
        scale = np.abs(reference).max()
        assert np.abs(responses - reference).max() / scale < 1e-10

    def test_sweep_poles_match_eig_kernel(self, model, samples):
        solver = lowrank_solver(model)
        _, reference = _sweep_study(
            model, FREQUENCIES, samples, num_poles=5, want_poles=True
        )
        _, poles = solver.sweep(samples, FREQUENCIES, num_poles=5)
        scale = np.abs(reference).max()
        assert np.abs(poles - reference).max() / scale < 1e-10

    def test_want_poles_false_returns_none(self, model, samples):
        solver = lowrank_solver(model)
        responses, poles = solver.sweep(
            samples, FREQUENCIES, num_poles=None, want_poles=False
        )
        assert poles is None
        np.testing.assert_array_equal(
            responses, solver.responses(samples, FREQUENCIES)
        )

    def test_flop_model_favors_lowrank_at_scale(self, model):
        solver = lowrank_solver(model)
        low = solver.sweep_flops(64, 48)
        full = eig_sweep_flops(
            solver.order, 64, 48, ports=solver.num_ports
        )
        assert low < full

    @RELAXED
    @given(lowrank_ensembles())
    def test_property_matches_eig_kernel(self, case):
        model, samples = case
        solver = lowrank_solver(model)
        if solver is None:  # cond(V0) rejection: eig route serves it
            return
        freqs = np.logspace(7, 10, 7)
        ref_resp, ref_poles = _sweep_study(
            model, freqs, samples, num_poles=3, want_poles=True
        )
        responses, poles = solver.sweep(samples, freqs, num_poles=3)
        scale = np.abs(ref_resp).max()
        assert np.abs(responses - ref_resp).max() / scale < 1e-10
        pole_scale = np.abs(ref_poles).max()
        assert np.abs(poles - ref_poles).max() / pole_scale < 1e-10


class TestEngineRouting:
    def test_planner_routes_lowrank_and_exposes_decision(self, model, samples):
        plan = Study(model).scenarios(samples).sweep(FREQUENCIES).plan()
        assert plan.kernel == "lowrank-woodbury[sweep-study]"
        assert plan.detected_rank == lowrank_solver(model).rank
        assert plan.estimated_flops is not None
        assert "lowrank" in plan.describe()

    def test_planner_keeps_eig_route_for_full_rank(self, dense_model, samples):
        plan = Study(dense_model).scenarios(samples).sweep(FREQUENCIES).plan()
        assert plan.kernel == "eig-rational[sweep-study/symmetric]"
        assert plan.detected_rank is None

    def test_run_matches_eig_kernel(self, model, samples):
        result = (
            Study(model)
            .scenarios(samples)
            .sweep(FREQUENCIES, keep_responses=True)
            .poles(5)
            .run()
        )
        ref_resp, ref_poles = _sweep_study(
            model, FREQUENCIES, samples, num_poles=5, want_poles=True
        )
        assert np.abs(result.responses - ref_resp).max() / np.abs(ref_resp).max() < 1e-10
        assert np.abs(result.poles - ref_poles).max() / np.abs(ref_poles).max() < 1e-10

    def test_chunked_is_bit_identical_to_one_shot(self, model, samples):
        declaration = lambda: (
            Study(model)
            .scenarios(samples)
            .sweep(FREQUENCIES, keep_responses=True)
            .poles(5)
        )
        one_shot = declaration().run()
        chunked = declaration().chunk(5).run()
        np.testing.assert_array_equal(chunked.responses, one_shot.responses)
        np.testing.assert_array_equal(chunked.poles, one_shot.poles)

    def test_lowrank_ensemble_counter_moves(self, model, samples):
        counter = obs_metrics.counter("runtime.lowrank.ensembles")
        before = counter.value
        Study(model).scenarios(samples).sweep(FREQUENCIES).run()
        assert counter.value > before


class TestBatchPolesTruncation:
    def test_truncated_equals_leading_block_eig_route(self, dense_model, samples):
        full = batch_poles(dense_model, samples, num=None)
        truncated = batch_poles(dense_model, samples, num=5)
        np.testing.assert_array_equal(truncated, full[:, :5])

    def test_truncated_equals_leading_block_lowrank_route(self, model, samples):
        full = batch_poles(model, samples, num=None)
        truncated = batch_poles(model, samples, num=5)
        np.testing.assert_array_equal(truncated, full[:, :5])

    def test_lowrank_route_matches_eig_poles(self, model, samples):
        # batch_poles routes through instance_eigenvalues when low-rank
        # structure is present; the pole protocol itself is unchanged.
        g, c = batch_instantiate(model, samples, exact=True)
        reference = np.linalg.eigvals(np.linalg.solve(g, c))
        solver_eigs = lowrank_solver(model).instance_eigenvalues(samples)
        ref_sorted = np.sort_complex(reference)
        low_sorted = np.sort_complex(solver_eigs)
        scale = np.abs(ref_sorted).max()
        assert np.abs(low_sorted - ref_sorted).max() / scale < 1e-10


class TestEigGuard:
    """Satellite: ill-conditioned eigenvector bases must not return
    silently inaccurate responses from the eig kernel."""

    @pytest.fixture()
    def jordan_model(self):
        # A = G^{-1} C is a Jordan-like block: the eigenvector basis is
        # catastrophically ill-conditioned, so rational-sum responses
        # from the eigendecomposition are garbage.
        q = 8
        rng = np.random.default_rng(0)
        nominal = DescriptorSystem(
            np.eye(q),
            1e-9 * (np.eye(q) + np.diag(np.full(q - 1, 1.0), k=1)),
            rng.standard_normal((q, 1)),
            rng.standard_normal((q, 1)),
        )
        return ParametricReducedModel(
            nominal, [1e-3 * np.eye(q)], [np.zeros((q, q))]
        )

    def test_guard_falls_back_to_solve_path(self, jordan_model):
        samples = np.array([[0.3], [-0.2], [0.1]])
        freqs = np.logspace(7, 10, 9)
        counter = obs_metrics.counter("runtime.batch.eig_fallbacks")
        before = counter.value
        responses, _ = _sweep_study(
            jordan_model, freqs, samples, num_poles=None, want_poles=False
        )
        assert counter.value - before == 3
        g, c = batch_instantiate(jordan_model, samples, exact=True)
        reference = _solve_responses(jordan_model, g, c, freqs)
        np.testing.assert_array_equal(responses, reference)

    def test_healthy_model_pays_no_fallbacks(self, model, samples):
        counter = obs_metrics.counter("runtime.batch.eig_fallbacks")
        before = counter.value
        _sweep_study(model, FREQUENCIES, samples, num_poles=None, want_poles=False)
        assert counter.value == before


class TestPlanCache:
    def test_repeat_dispatch_hits_global_cache(self, model, samples):
        hits = obs_metrics.counter("engine.plan_cache.hits")
        misses = obs_metrics.counter("engine.plan_cache.misses")
        freqs = np.logspace(7, 10, 13)  # unique axis => fresh cache key
        declaration = lambda: Study(model).scenarios(samples).sweep(freqs)
        h0, m0 = hits.value, misses.value
        first = declaration().plan()
        assert misses.value == m0 + 1
        second = declaration().plan()
        assert hits.value == h0 + 1
        assert second is first  # frozen plan shared across studies

    def test_builder_changes_miss(self, model, samples):
        declaration = Study(model).scenarios(samples).sweep(FREQUENCIES)
        plain = declaration.plan()
        chunked = Study(model).scenarios(samples).sweep(FREQUENCIES).chunk(3).plan()
        assert chunked is not plain
        assert chunked.num_chunks > plain.num_chunks


class TestScreenTier:
    def test_screen_sweep_sets_verified_column(self, model, samples):
        result = (
            Study(model)
            .scenarios(samples)
            .sweep(FREQUENCIES, keep_responses=True)
            .precision("screen")
            .run()
        )
        assert result.verified is not None
        assert result.verified.shape == (samples.shape[0],)
        assert result.verified.dtype == np.bool_
        assert result.responses.dtype == np.complex128
        reference, _ = _sweep_study(
            model, FREQUENCIES, samples, num_poles=None, want_poles=False
        )
        scale = np.abs(reference).max()
        assert np.abs(result.responses - reference).max() / scale < 1e-4

    def test_full_precision_has_no_verified_column(self, model, samples):
        result = Study(model).scenarios(samples).sweep(FREQUENCIES).run()
        assert result.verified is None

    def test_screen_pole_study_verifies_flagged_rows(self, model, samples):
        screen = (
            Study(model).scenarios(samples).poles(5).precision("screen").run()
        )
        full = Study(model).scenarios(samples).poles(5).run()
        assert full.verified is None
        assert screen.verified is not None
        assert screen.verified.shape == (samples.shape[0],)
        for flag, screened, reference in zip(
            screen.verified, screen.pole_sets, full.pole_sets
        ):
            screened = np.asarray(screened)
            reference = np.asarray(reference)
            if flag:  # re-verified rows ran the float64 kernel
                np.testing.assert_array_equal(screened, reference)
            else:
                scale = np.abs(reference).max()
                assert np.abs(screened - reference).max() / scale < 1e-3

    def test_verified_column_round_trips_through_store(
        self, model, samples, tmp_path
    ):
        declaration = lambda: (
            Study(model)
            .scenarios(samples)
            .sweep(FREQUENCIES, keep_responses=True)
            .precision("screen")
            .store(tmp_path)
            .chunk(6)
        )
        first = declaration().run()
        resumed = declaration().resume().run()
        np.testing.assert_array_equal(resumed.verified, first.verified)
        np.testing.assert_array_equal(resumed.responses, first.responses)

    def test_screen_fingerprint_is_distinct_from_full(
        self, model, samples, tmp_path
    ):
        base = Study(model).scenarios(samples).sweep(FREQUENCIES).store(tmp_path)
        full_run = base.run()
        # A screen run against the same store must not collide with the
        # full-precision manifest (precision enters the fingerprint).
        screened = (
            Study(model)
            .scenarios(samples)
            .sweep(FREQUENCIES)
            .precision("screen")
            .store(tmp_path)
            .run()
        )
        manifests = list(tmp_path.glob("manifest-*.json"))
        assert len(manifests) == 2
        assert full_run.verified is None and screened.verified is not None

    def test_si_unit_time_constants_survive_float32(self):
        # SI-unit RC pencils have |C|/|G| ~ 1e-13, below float32
        # LAPACK's safe-scaling threshold (~9e-13): without time-scale
        # normalization, single-precision geev silently mis-scales the
        # spectrum (~30% pole error, unflagged).  Regression for the
        # power-of-two pencil normalization in the screen paths.
        from repro.circuits import rc_ladder, with_random_variations

        parametric = with_random_variations(rc_ladder(6), 2, seed=0)
        model = LowRankReducer(num_moments=3, rank=1).reduce(parametric)
        samples = sample_parameters(8, parametric.num_parameters, seed=0)
        full = Study(model).scenarios(samples).poles(4).run()
        screen = (
            Study(model).scenarios(samples).poles(4).precision("screen").run()
        )
        for flag, screened, reference in zip(
            screen.verified, screen.pole_sets, full.pole_sets
        ):
            if flag:
                continue
            screened, reference = np.asarray(screened), np.asarray(reference)
            scale = np.abs(reference).max()
            assert np.abs(screened - reference).max() / scale < 1e-4

    def test_precision_validation(self, model, samples):
        with pytest.raises(ValueError, match="unknown precision tier"):
            Study(model).scenarios(samples).precision("half")
        with pytest.raises(ValueError, match="float64-only"):
            (
                Study(model)
                .scenarios(samples)
                .transient(num_steps=8)
                .precision("screen")
                .plan()
            )
        with pytest.raises(ValueError, match="drop executor"):
            (
                Study(model)
                .scenarios(samples)
                .poles(5)
                .executor("thread")
                .precision("screen")
                .plan()
            )
