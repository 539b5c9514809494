"""Tests for the sparse shared-pattern runtime (full-order batching)."""

import pickle

import numpy as np
import pytest
import scipy.sparse as sp

from repro.circuits import (
    Netlist,
    coupled_rlc_bus,
    power_grid_mesh,
    rc_ladder,
    rc_network_767,
    rc_tree,
    with_random_variations,
)
from repro.circuits.statespace import DescriptorSystem
from repro.circuits.variational import ParametricSystem
from repro.core import LowRankReducer
from repro.linalg import refactorization_count
from repro.obs import MemorySink, summarize_trace
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime import (
    SparsePatternFamily,
    Study,
    shared_pattern_family,
    supports_sparse_batching,
)
from repro.runtime.sparse import _forest_sizes

FREQUENCIES = np.logspace(7, 10, 4)
PIVOT_FALLBACKS = obs_metrics.counter("runtime.sparse.pivot_fallbacks")


def ladder_parametric(num_segments=40, num_parameters=2):
    return with_random_variations(rc_ladder(num_segments), num_parameters, seed=3)


def mesh_parametric():
    return with_random_variations(power_grid_mesh(5, 24), 2, seed=3)


def tree_parametric():
    return with_random_variations(rc_tree(220, seed=7), 2, seed=3)


def voltage_driven_tree(num_nodes=200, seed=3):
    """An RC tree driven by ``V1 in 0`` through a source resistor.

    The source's branch-current row has no diagonal entry in any
    matrix, so no pivot order can eliminate on the diagonal: the
    family must route it to SuperLU.
    """
    net = rc_tree(num_nodes, seed=seed)
    net.resistor("Rsrc", "in", "n0", 25.0)
    net.voltage_source("V1", "in", "0")
    return with_random_variations(net, 2, seed=5)


def samples_for(model, num=5, seed=11):
    rng = np.random.default_rng(seed)
    matrix = 0.25 * rng.standard_normal((num, model.num_parameters))
    matrix[0] = 0.0  # include the nominal point (zero coefficients)
    return matrix


class TestSupportsSparseBatching:
    def test_sparse_parametric_system(self):
        assert supports_sparse_batching(ladder_parametric())

    def test_dense_reduced_model_is_not_sparse(self):
        model = LowRankReducer(num_moments=2, rank=1).reduce(ladder_parametric())
        assert not supports_sparse_batching(model)

    def test_non_parametric_object(self):
        assert not supports_sparse_batching(object())

    def test_mixed_sparse_dense_model_rejected(self):
        """Sparse G but dense C/dG/dC must not pass the gate.

        Such a model previously slipped through (only ``nominal.G`` was
        checked) and crashed inside the family; it belongs on the
        per-sample fallback path instead.
        """
        base = ladder_parametric(num_segments=6)
        mixed = ParametricSystem(
            DescriptorSystem(
                base.nominal.G,
                base.nominal.C.toarray(),
                np.asarray(base.nominal.B.toarray()),
                np.asarray(base.nominal.L.toarray()),
            ),
            [m.toarray() for m in base.dG],
            [m.toarray() for m in base.dC],
        )
        assert not supports_sparse_batching(mixed)
        with pytest.raises(ValueError, match="sparse parametric"):
            SparsePatternFamily(mixed)


class TestSolverSelection:
    def test_ladder_is_tridiagonal(self):
        family = SparsePatternFamily(ladder_parametric())
        assert family.solver_kind == "tridiagonal"
        assert family.bandwidth == 1

    def test_mesh_is_banded(self):
        family = SparsePatternFamily(mesh_parametric())
        assert family.solver_kind == "banded"
        assert 1 < family.bandwidth <= 32

    def test_wide_pattern_runs_level_lu(self):
        family = SparsePatternFamily(tree_parametric())
        assert family.solver_kind == "level-lu"
        assert family.bandwidth > 32
        forced = SparsePatternFamily(ladder_parametric(), max_bandwidth=0)
        assert forced.solver_kind == "level-lu"

    def test_wide_pattern_falls_back_to_superlu(self):
        """A structurally missing diagonal (a voltage source) needs SuperLU."""
        family = SparsePatternFamily(voltage_driven_tree())
        assert family.bandwidth > 32
        assert family.solver_kind == "superlu"
        forced = SparsePatternFamily(voltage_driven_tree(12, seed=1), max_bandwidth=0)
        assert forced.solver_kind == "superlu"

    def test_voltage_driven_tree_plans_superlu(self):
        model = voltage_driven_tree()
        plan = Study(model).scenarios(samples_for(model)).sweep(FREQUENCIES).plan()
        assert plan.route == "sparse-family"
        assert plan.kernel == "shared-pattern[superlu]"

    def test_signoff_tree_plans_level_lu(self):
        model = rc_network_767()
        plan = Study(model).scenarios(samples_for(model)).sweep(FREQUENCIES).plan()
        assert plan.kernel == "shared-pattern[level-lu]"

    def test_rejects_dense_models(self):
        model = LowRankReducer(num_moments=2, rank=1).reduce(ladder_parametric())
        with pytest.raises(ValueError, match="sparse parametric"):
            SparsePatternFamily(model)


class TestInstantiateBitIdentity:
    @pytest.mark.parametrize(
        "make_model", [ladder_parametric, mesh_parametric, tree_parametric]
    )
    def test_matches_scalar_path_bitwise(self, make_model):
        model = make_model()
        family = SparsePatternFamily(model)
        for point in samples_for(model):
            reference = model.instantiate(point)
            fast = family.instantiate(point)
            np.testing.assert_array_equal(fast.G.toarray(), reference.G.toarray())
            np.testing.assert_array_equal(fast.C.toarray(), reference.C.toarray())

    def test_batch_data_exact_matches_scalar_path(self):
        model = ladder_parametric()
        family = SparsePatternFamily(model)
        samples = samples_for(model)
        g_data, c_data = family.batch_data(samples, exact=True)
        for k, point in enumerate(samples):
            reference = model.instantiate(point)
            np.testing.assert_array_equal(
                family.matrix_from_data(g_data[k]).toarray(), reference.G.toarray()
            )
            np.testing.assert_array_equal(
                family.matrix_from_data(c_data[k]).toarray(), reference.C.toarray()
            )

    def test_einsum_batch_data_matches_exact(self):
        model = mesh_parametric()
        family = SparsePatternFamily(model)
        samples = samples_for(model)
        g_exact, c_exact = family.batch_data(samples, exact=True)
        g_fast, c_fast = family.batch_data(samples, exact=False)
        scale = max(np.abs(g_exact).max(), np.abs(c_exact).max())
        assert np.abs(g_fast - g_exact).max() <= 1e-12 * scale
        assert np.abs(c_fast - c_exact).max() <= 1e-12 * scale

    def test_rejects_bad_point_shape(self):
        family = SparsePatternFamily(ladder_parametric())
        with pytest.raises(ValueError, match="parameter point"):
            family.instantiate([0.1, 0.2, 0.3])


class TestPencilSolvers:
    @pytest.mark.parametrize(
        "make_model,expected_kind",
        [
            (ladder_parametric, "tridiagonal"),
            (mesh_parametric, "banded"),
            (tree_parametric, None),
        ],
    )
    def test_frequency_response_matches_loop(self, make_model, expected_kind):
        model = make_model()
        family = SparsePatternFamily(model)
        if expected_kind is not None:
            assert family.solver_kind == expected_kind
        samples = samples_for(model)
        batched = family.frequency_response(FREQUENCIES, samples)
        for k, point in enumerate(samples):
            reference = model.instantiate(point).frequency_response(FREQUENCIES)
            scale = np.abs(reference).max()
            assert np.abs(batched[k] - reference).max() <= 1e-10 * scale

    @pytest.mark.parametrize(
        "make_model,expected_kind",
        [(ladder_parametric, "level-lu"), (mesh_parametric, "level-lu")],
    )
    def test_forced_level_lu_matches_loop(self, make_model, expected_kind):
        model = make_model()
        family = SparsePatternFamily(model, max_bandwidth=0)
        assert family.solver_kind == expected_kind
        samples = samples_for(model, num=3)
        batched = family.frequency_response(FREQUENCIES, samples)
        for k, point in enumerate(samples):
            reference = model.instantiate(point).frequency_response(FREQUENCIES)
            scale = np.abs(reference).max()
            assert np.abs(batched[k] - reference).max() <= 1e-10 * scale

    def test_forced_superlu_matches_loop(self):
        model = voltage_driven_tree(12, seed=1)
        family = SparsePatternFamily(model, max_bandwidth=0)
        assert family.solver_kind == "superlu"
        samples = samples_for(model, num=3)
        batched = family.frequency_response(FREQUENCIES, samples)
        for k, point in enumerate(samples):
            reference = model.instantiate(point).frequency_response(FREQUENCIES)
            scale = np.abs(reference).max()
            assert np.abs(batched[k] - reference).max() <= 1e-10 * scale

    def test_transfer_matches_loop(self):
        model = ladder_parametric()
        samples = samples_for(model)
        s = 2j * np.pi * 1e9
        batched = shared_pattern_family(model).transfer(s, samples)
        for k, point in enumerate(samples):
            reference = model.transfer(s, point)
            scale = np.abs(reference).max()
            assert np.abs(batched[k] - reference).max() <= 1e-10 * scale

    def test_module_level_frequency_response(self):
        model = mesh_parametric()
        samples = samples_for(model, num=2)
        batched = shared_pattern_family(model).frequency_response(FREQUENCIES, samples)
        assert batched.shape == (
            2,
            FREQUENCIES.size,
            model.nominal.num_outputs,
            model.nominal.num_inputs,
        )

    def test_singular_pencil_raises(self):
        zero_g = sp.csr_matrix((2, 2))
        c0 = sp.identity(2, format="csr")
        b = np.array([[1.0], [0.0]])
        nominal = DescriptorSystem(zero_g, c0, b, b, title="singular")
        model = ParametricSystem(
            nominal, [sp.csr_matrix((2, 2))], [sp.csr_matrix((2, 2))]
        )
        family = SparsePatternFamily(model)
        with pytest.raises(RuntimeError, match="singular"):
            # At f = 0 the pencil degenerates to the all-zero G.
            family.frequency_response([0.0], [[0.0]])

    @pytest.mark.parametrize("max_bandwidth,expected_kind", [
        (32, "banded"), (0, "level-lu"), (None, "superlu"),
    ])
    def test_singular_pencil_raises_one_line(self, max_bandwidth, expected_kind):
        """Every tier reports a singular pencil the same way.

        Node ``d`` hangs off the star through capacitors only, so at
        f = 0 its row of the pencil is exactly zero.  The SuperLU case
        drives the star through a voltage source.
        """
        net = Netlist("star")
        net.resistor("Rdrv", "hub", "0", 1.0)
        for leaf in ("a", "b", "c"):
            net.resistor(f"R{leaf}", "hub", leaf, 1.0)
            net.capacitor(f"C{leaf}", leaf, "0", 1e-14)
        net.capacitor("Cd", "hub", "d", 1e-14)
        net.capacitor("Cg", "d", "0", 1e-14)
        if max_bandwidth is None:
            net.resistor("Rs", "in", "hub", 1.0)
            net.voltage_source("V1", "in", "0")
        else:
            net.current_port("in", "hub")
        net.observe("far", "c")
        model = with_random_variations(net, 1, seed=1)
        family = SparsePatternFamily(model, max_bandwidth=max_bandwidth or 0)
        assert family.solver_kind == expected_kind
        with pytest.raises(RuntimeError, match="singular") as raised:
            family.frequency_response([0.0, 1e9], [[0.0]])
        assert "\n" not in str(raised.value)


class TestLevelSchedule:
    @pytest.mark.parametrize("make_model", [
        tree_parametric, mesh_parametric, rc_network_767,
        lambda: with_random_variations(coupled_rlc_bus(), 2),
    ])
    def test_forest_sizes_match_the_analysis(self, make_model):
        """A forest's closed-form sizes price what its analysis builds."""
        family = SparsePatternFamily(make_model(), max_bandwidth=0)
        forest = _forest_sizes(family.indices, family.indptr, family._b_dense.shape[1])
        schedule = family._level_schedule()
        num_rows, num_items, max_step = schedule.sizes
        if forest is not None:  # exact counts, a bound on the largest step
            assert forest[:2] == (num_rows, num_items)
            assert forest[2] >= max_step

    def test_only_forests_skip_the_ordering(self):
        for model, is_forest in (
            (tree_parametric(), True), (rc_network_767(), True),
            (mesh_parametric(), False),
            (with_random_variations(coupled_rlc_bus(), 2), False),
        ):
            family = SparsePatternFamily(model, max_bandwidth=0)
            family.workspace_bytes(FREQUENCIES.size)
            assert (family._schedule is None) == is_forest

    def test_signoff_tree_is_shallow_with_zero_fill(self):
        schedule = SparsePatternFamily(rc_network_767())._level_schedule()
        n = schedule.order
        assert schedule.num_rows == n + 2 * (n - 1) + n  # L has n - 1 entries
        assert schedule.num_levels <= 20


class TestPivotFallbacks:
    def test_zero_pivots_fall_back_and_match(self):
        """Inductor rows have a zero pivot at DC; those pencils re-solve."""
        model = with_random_variations(coupled_rlc_bus(), 2)
        family = SparsePatternFamily(model, max_bandwidth=0)
        assert family.solver_kind == "level-lu"
        freqs = np.concatenate(([0.0], FREQUENCIES))
        samples = samples_for(model, num=2)
        before = PIVOT_FALLBACKS.value
        batched = family.frequency_response(freqs, samples)
        assert PIVOT_FALLBACKS.value - before >= len(samples)
        for k, point in enumerate(samples):
            reference = model.instantiate(point).frequency_response(freqs)
            scale = np.abs(reference).max()
            assert np.abs(batched[k] - reference).max() <= 1e-10 * scale

    def test_signoff_tree_takes_no_fallbacks(self):
        """The paper's 767-node net at the +-70% corners: no SuperLU at all."""
        model = rc_network_767()
        corners = 0.7 * np.array([[-1, -1], [-1, 1], [1, -1], [1, 1], [0, 0]])
        freqs = np.logspace(7, 10, 40)
        family = SparsePatternFamily(model)
        before = PIVOT_FALLBACKS.value, refactorization_count()
        batched = family.frequency_response(freqs, corners)
        assert (PIVOT_FALLBACKS.value, refactorization_count()) == before
        for k, point in enumerate(corners):
            reference = model.instantiate(point).frequency_response(freqs)
            scale = np.abs(reference).max()
            assert np.abs(batched[k] - reference).max() <= 1e-10 * scale

    def test_span_and_summary_report_fallbacks(self):
        model = with_random_variations(coupled_rlc_bus(), 2)
        family = SparsePatternFamily(model, max_bandwidth=0)
        sink = MemorySink()
        obs_trace.add_sink(sink)
        try:
            family.frequency_response(np.concatenate(([0.0], FREQUENCIES)), [[0.1, 0.0]])
        finally:
            obs_trace.remove_sink(sink)
        spans = [r for r in sink.records if r.get("name") == "sparse.refactor"]
        assert [s["attrs"] for s in spans] == [
            {"solver": "level-lu", "pencils": 5, "fallbacks": 1}
        ]
        assert "level-lu: 1 solve(s)" in summarize_trace(sink.records)
        assert "1 fallback(s)" in summarize_trace(sink.records)


class TestFamilyLifecycle:
    def test_shared_pattern_family_is_memoized(self):
        model = ladder_parametric()
        first = shared_pattern_family(model)
        assert shared_pattern_family(model) is first

    def test_memoized_family_does_not_keep_its_model_alive(self):
        """The family is memoized on the model; a back-reference made a
        cycle that kept the full-order system (and the family) alive
        until the cyclic GC ran, which held signoff's peak memory up."""
        import gc
        import weakref

        model = ladder_parametric()
        shared_pattern_family(model).frequency_response(
            FREQUENCIES, samples_for(model, num=2)
        )
        alive = weakref.ref(model)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del model
            assert alive() is None
        finally:
            if enabled:
                gc.enable()

    def test_pickle_roundtrip_superlu(self):
        model = voltage_driven_tree()
        family = SparsePatternFamily(model, max_bandwidth=0)
        assert family.solver_kind == "superlu"
        samples = samples_for(model, num=2)
        reference = family.frequency_response(FREQUENCIES, samples)
        clone = pickle.loads(pickle.dumps(family))
        restored = clone.frequency_response(FREQUENCIES, samples)
        scale = np.abs(reference).max()
        assert np.abs(restored - reference).max() <= 1e-12 * scale

    def test_pickle_roundtrip_level_lu(self):
        model = tree_parametric()
        family = SparsePatternFamily(model)
        assert family.solver_kind == "level-lu"
        samples = samples_for(model, num=2)
        reference = family.frequency_response(FREQUENCIES, samples)
        clone = pickle.loads(pickle.dumps(family))
        np.testing.assert_array_equal(
            clone.frequency_response(FREQUENCIES, samples), reference
        )

    def test_pickle_roundtrip_tridiagonal(self):
        model = ladder_parametric()
        family = SparsePatternFamily(model)
        samples = samples_for(model, num=2)
        reference = family.frequency_response(FREQUENCIES, samples)
        clone = pickle.loads(pickle.dumps(family))
        restored = clone.frequency_response(FREQUENCIES, samples)
        np.testing.assert_array_equal(restored, reference)

    def test_repr_mentions_solver(self):
        family = SparsePatternFamily(ladder_parametric())
        text = repr(family)
        assert "tridiagonal" in text and "nnz" in text
