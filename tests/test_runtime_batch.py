"""Batch kernels must agree with the per-sample evaluation path.

The contract of :mod:`repro.runtime.batch`: ``exact=True``
instantiation is *bit-identical* to
:meth:`ParametricReducedModel.instantiate`, and every derived batched
quantity (transfer, frequency response, poles, sensitivities) matches
the per-sample path to 1e-12 relative.
"""

import numpy as np
import pytest

from repro.analysis.metrics import matched_pole_errors
from repro.analysis.montecarlo import sample_parameters
from repro.analysis.poles import dominant_poles
from repro.analysis.sensitivity import transfer_sensitivities
from repro.circuits import coupled_rlc_bus, rc_tree, rcnet_a, with_random_variations
from repro.circuits.statespace import DescriptorSystem
from repro.core import LowRankReducer
from repro.core.model import ParametricReducedModel
from repro.obs import metrics as obs_metrics
from repro.runtime.batch import (
    _cholesky_inverses,
    _eig_response_factors,
    _eig_responses,
    _general_eig_factors,
    _solve_responses,
    _sweep_study,
    dominant_pole_rows,
    symmetric_definite,
)
from repro.runtime import (
    Study,
    batch_frequency_response,
    batch_instantiate,
    batch_transfer,
    batch_transfer_sensitivities,
    supports_batching,
)

S_POINT = 2j * np.pi * 1.3e9


@pytest.fixture(scope="module")
def parametric():
    return rcnet_a()


@pytest.fixture(scope="module")
def model(parametric):
    return LowRankReducer(num_moments=3, rank=1).reduce(parametric)


@pytest.fixture(scope="module")
def samples():
    return sample_parameters(9, 3, seed=11)


@pytest.fixture(scope="module")
def tree_model():
    """A 2000-node RC tree reduction (q=53): the symmetric kernel at scale."""
    parametric = with_random_variations(rc_tree(2000, seed=1), 3, seed=3)
    return LowRankReducer(num_moments=4).reduce(parametric)


@pytest.fixture(scope="module")
def rlc_model():
    """A coupled RLC bus reduction: skew inductor stamps, nonsymmetric G."""
    parametric = with_random_variations(coupled_rlc_bus(num_segments=20), 2, seed=1)
    return LowRankReducer(num_moments=3).reduce(parametric)


@pytest.fixture(scope="module")
def dense_model(parametric):
    """Exact-sensitivity reduction: effectively full-rank sensitivity blocks."""
    return LowRankReducer(num_moments=4, rank=1).reduce(parametric)


@pytest.fixture(scope="module")
def ensemble(parametric):
    return sample_parameters(16, parametric.num_parameters, seed=7)


class TestBatchInstantiate:
    def test_exact_is_bit_identical_to_scalar_path(self, model, samples):
        g, c = batch_instantiate(model, samples, exact=True)
        assert g.shape == (9, model.size, model.size)
        for k, point in enumerate(samples):
            system = model.instantiate(point)
            np.testing.assert_array_equal(g[k], system.G)
            np.testing.assert_array_equal(c[k], system.C)

    def test_exact_skips_zero_coefficients(self, model):
        # A zero coefficient must leave the nominal entry untouched
        # (same rule as the scalar path), not add +0.0.
        samples = np.array([[0.0, 0.2, 0.0], [0.0, 0.0, 0.0]])
        g, c = batch_instantiate(model, samples, exact=True)
        g0, c0 = model.dense_nominal()
        np.testing.assert_array_equal(g[1], g0)
        np.testing.assert_array_equal(c[1], c0)

    def test_einsum_matches_exact_to_rounding(self, model, samples):
        g, c = batch_instantiate(model, samples, exact=True)
        ge, ce = batch_instantiate(model, samples, exact=False)
        scale = max(np.abs(g).max(), np.abs(c).max())
        assert np.abs(ge - g).max() <= 1e-12 * scale
        assert np.abs(ce - c).max() <= 1e-12 * scale

    def test_single_point_promoted_to_batch_of_one(self, model):
        g, c = batch_instantiate(model, [0.1, -0.2, 0.3])
        assert g.shape == (1, model.size, model.size)
        assert c.shape == (1, model.size, model.size)

    def test_rejects_wrong_parameter_count(self, model):
        with pytest.raises(ValueError):
            batch_instantiate(model, np.zeros((4, 2)))

    def test_supports_batching(self, model, parametric):
        assert supports_batching(model)
        assert not supports_batching(parametric)  # sparse full system


class TestBatchTransfer:
    def test_matches_loop(self, model, samples):
        batched = batch_transfer(model, S_POINT, samples)
        looped = np.stack([model.transfer(S_POINT, p) for p in samples])
        scale = np.abs(looped).max()
        assert np.abs(batched - looped).max() <= 1e-12 * scale

    def test_shapes(self, model, samples):
        batched = batch_transfer(model, S_POINT, samples)
        assert batched.shape == (
            samples.shape[0],
            model.nominal.num_outputs,
            model.nominal.num_inputs,
        )


class TestBatchFrequencyResponse:
    def test_matches_loop(self, model, samples):
        frequencies = np.logspace(7, 10, 4)
        batched = batch_frequency_response(model, frequencies, samples)
        assert batched.shape[:2] == (samples.shape[0], 4)
        for k, point in enumerate(samples):
            looped = model.frequency_response(frequencies, point)
            scale = np.abs(looped).max()
            assert np.abs(batched[k] - looped).max() <= 1e-12 * scale

    def test_eig_method_matches_solve_method(self, model, samples):
        frequencies = np.logspace(7, 10, 6)
        direct = batch_frequency_response(model, frequencies, samples, method="solve")
        rational = batch_frequency_response(model, frequencies, samples, method="eig")
        scale = np.abs(direct).max()
        assert np.abs(rational - direct).max() <= 1e-12 * scale

    def test_unknown_method_rejected(self, model, samples):
        with pytest.raises(ValueError):
            batch_frequency_response(model, [1e9], samples, method="cholesky")


class TestBatchSweepStudy:
    def test_matches_separate_kernels(self, model, samples):
        frequencies = np.logspace(7, 10, 5)
        responses, poles = _sweep_study(model, frequencies, samples, num_poles=4)
        direct = batch_frequency_response(model, frequencies, samples)
        scale = np.abs(direct).max()
        assert np.abs(responses - direct).max() <= 1e-12 * scale
        for k, point in enumerate(samples):
            separate = dominant_poles(model, 4, point)
            np.testing.assert_array_equal(poles[k, : separate.size], separate)
            assert np.isnan(poles[k, separate.size:]).all()


class TestEigGuard:
    """Ill-conditioned eigenvector bases must not return silently
    inaccurate responses from the eig kernel."""

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

    def test_public_eig_method_is_guarded(self, jordan_model):
        """``batch_frequency_response(method="eig")`` runs the guarded kernel."""
        samples = np.array([[0.3], [-0.2], [0.1]])
        freqs = np.logspace(7, 10, 9)
        counter = obs_metrics.counter("runtime.batch.eig_fallbacks")
        before = counter.value
        responses = batch_frequency_response(jordan_model, freqs, samples, method="eig")
        assert counter.value - before == 3
        g, c = batch_instantiate(jordan_model, samples, exact=True)
        np.testing.assert_array_equal(
            responses, _solve_responses(jordan_model, g, c, freqs)
        )

    def test_healthy_model_pays_no_fallbacks(self, rcneta_approximate_model, ensemble):
        counter = obs_metrics.counter("runtime.batch.eig_fallbacks")
        before = counter.value
        _sweep_study(
            rcneta_approximate_model, np.logspace(7, 10, 12), ensemble,
            num_poles=None, want_poles=False,
        )
        assert counter.value == before


def _factor_results(factors, freqs):
    eigenvalues, lt_v, w = factors
    return _eig_responses(eigenvalues, lt_v, w, freqs), dominant_pole_rows(
        eigenvalues, lt_v[:, 0, :] * w[:, :, 0], 5
    )


class TestSymmetricKernel:
    """Cholesky + eigh factors vs the general eig kernel they replace."""

    FREQS = np.logspace(7, 10, 40)

    @pytest.mark.parametrize("name", ["model", "tree_model"])
    def test_matches_general_kernel(self, name, request):
        model = request.getfixturevalue(name)
        assert symmetric_definite(model)
        points = sample_parameters(24, model.num_parameters, seed=7)
        g, c = batch_instantiate(model, points, exact=False)
        assert _cholesky_inverses(g)[1].all()
        responses, poles = _factor_results(
            _eig_response_factors(model, g, c), self.FREQS
        )
        ref_responses, ref_poles = _factor_results(
            _general_eig_factors(model, g, c), self.FREQS
        )
        scale = np.abs(ref_responses).max()
        assert np.abs(responses - ref_responses).max() <= 1e-10 * scale
        kept = ~np.isnan(ref_poles)
        np.testing.assert_array_equal(~np.isnan(poles), kept)
        assert np.abs(poles - ref_poles)[kept].max() <= (
            1e-10 * np.abs(ref_poles[kept]).max()
        )
        # Symmetric-definite pencils have real spectra.
        assert np.all(poles[kept].imag == 0.0)

    def test_nonsymmetric_model_is_general_bit_for_bit(self, rlc_model):
        assert not symmetric_definite(rlc_model)
        points = sample_parameters(12, rlc_model.num_parameters, seed=7)
        g, c = batch_instantiate(rlc_model, points, exact=False)
        for ours, reference in zip(
            _eig_response_factors(rlc_model, g, c),
            _general_eig_factors(rlc_model, g, c),
        ):
            np.testing.assert_array_equal(ours, reference)
        plan = Study(rlc_model).scenarios(points).sweep(self.FREQS).plan()
        assert plan.kernel == "eig-rational[sweep-study/grid]"

    def test_indefinite_instances_take_general_path(self, model):
        # p_i <= -1 removes a whole width's conductance: G_k turns
        # indefinite for exactly the rows that hold such a value.
        points = sample_parameters(12, model.num_parameters, seed=5)
        points[[2, 7], 0] = -2.0
        points[9, 1] = -3.0
        g, c = batch_instantiate(model, points, exact=False)
        definite = _cholesky_inverses(g)[1]
        np.testing.assert_array_equal(np.flatnonzero(~definite), [2, 7, 9])
        mixed = _eig_response_factors(model, g, c)
        general = _general_eig_factors(model, g[~definite], c[~definite])
        symmetric = _eig_response_factors(model, g[definite], c[definite])
        for ours, fallback, fast in zip(mixed, general, symmetric):
            np.testing.assert_array_equal(ours[~definite], fallback)
            np.testing.assert_array_equal(ours[definite], fast)

        one_shot = Study(model).scenarios(points).sweep(
            self.FREQS, keep_responses=True
        ).poles(5).run()
        for chunk in (1, 5):
            chunked = Study(model).scenarios(points).sweep(
                self.FREQS, keep_responses=True
            ).poles(5).chunk(chunk).run()
            np.testing.assert_array_equal(chunked.responses, one_shot.responses)
            np.testing.assert_array_equal(chunked.poles, one_shot.poles)


def _pole_rows(model, samples, num):
    """Dominant poles of every sample, from the sweep kernel's factors."""
    g, c = batch_instantiate(model, samples, exact=False)
    eigenvalues, lt_v, w = _eig_response_factors(model, g, c)
    rows = dominant_pole_rows(eigenvalues, lt_v[:, 0, :] * w[:, :, 0], num)
    # The sweep kernel's own extraction agrees.
    np.testing.assert_array_equal(
        _sweep_study(model, (), samples, num_poles=num)[1], rows)
    return rows


class TestBatchPoles:
    """The one dominant-pole definition over stacked eigen-factors."""

    def test_matches_loop_to_1e12(self, model, samples):
        batched = _pole_rows(model, samples, 5)
        assert batched.shape == (samples.shape[0], 5)
        for k, point in enumerate(samples):
            # The bare-system route: general eigensolver, same ranking.
            looped = dominant_poles(model.instantiate(point), 5)
            assert (~np.isnan(batched[k])).sum() == looped.size
            errors, _ = matched_pole_errors(looped, batched[k])
            assert errors.max() <= 1e-12

    def test_all_poles_when_num_omitted(self, model, samples):
        # A budget of q poles keeps every pole the rule keeps (poles at
        # infinity and poles with no residue at the port are dropped).
        batched = _pole_rows(model, samples, model.size)
        kept_counts = (~np.isnan(batched.real)).sum(axis=1)
        assert 0 < kept_counts.max() < model.size
        for k, point in enumerate(samples):
            # Equal to the bare-system route's count.
            assert kept_counts[k] == dominant_poles(
                model.instantiate(point), model.size).size

    def test_dominance_ordering(self, model, samples):
        batched = _pole_rows(model, samples, model.size)
        magnitudes = np.abs(batched)
        kept = ~np.isnan(magnitudes)
        # Kept poles lead each row, in |s| order.
        assert (np.diff(kept.astype(int), axis=1) <= 0).all()
        assert (np.diff(magnitudes, axis=1)[kept[:, 1:]] >= 0).all()

    def test_truncated_equals_leading_block(self, dense_model, ensemble):
        full = _pole_rows(dense_model, ensemble, dense_model.size)
        truncated = _pole_rows(dense_model, ensemble, 5)
        np.testing.assert_array_equal(truncated, full[:, :5])


class TestDominantPoleRows:
    """The rule itself, on hand-built eigen-factors."""

    def test_residue_floor_drops_unobservable_poles(self):
        # Eigenvalues lambda = -1/s for poles s = -1, -2, -3, -4; the
        # pole at -2 has no residue at the port.
        eigenvalues = np.array([[1.0, 0.5, 1 / 3, 0.25]], dtype=complex)
        residues = np.array([[1.0, 1e-12, 0.5, 0.25]], dtype=complex)
        np.testing.assert_array_equal(
            dominant_pole_rows(eigenvalues, residues, 2)[0], [-1.0, -1 / (1 / 3)]
        )

    def test_coincident_poles_merge_their_residues(self):
        # Two poles 1e-9 apart (relative) merge into the first; either
        # residue alone is below the floor of the row, their sum is not
        # (the infinite pole of lambda = 0 and its residue do not count).
        lam = 0.5
        eigenvalues = np.array([[1.0, lam, lam * (1 + 1e-9), 0.0]], dtype=complex)
        residues = np.array([[1.0, 6e-10, 6e-10, 7.0]], dtype=complex)
        row = dominant_pole_rows(eigenvalues, residues, 3)[0]
        # The group keeps its first pole by |s|: the larger eigenvalue's.
        np.testing.assert_array_equal(row[:2], [-1.0, -1.0 / eigenvalues[0, 2]])
        assert np.isnan(row[2])
        # The merge is per row: a stack gives every row its own answer.
        stacked = dominant_pole_rows(
            np.repeat(eigenvalues, 3, axis=0), np.repeat(residues, 3, axis=0), 3
        )
        for k in range(3):
            np.testing.assert_array_equal(stacked[k], row)

    def test_row_without_finite_poles_is_all_padding(self):
        out = dominant_pole_rows(np.zeros((2, 3)), np.ones((2, 3)), 2)
        assert out.shape == (2, 2) and np.isnan(out).all()


class TestBatchSensitivities:
    def test_matches_scalar_kernel(self, model, samples):
        batched = batch_transfer_sensitivities(model, S_POINT, samples)
        assert batched.shape[:2] == (samples.shape[0], model.num_parameters)
        for k, point in enumerate(samples):
            scalar = transfer_sensitivities(model, S_POINT, point)
            scale = np.abs(scalar).max()
            assert np.abs(batched[k] - scalar).max() <= 1e-12 * scale

    def test_full_sparse_model_still_works(self, parametric):
        # The sparse path in analysis.sensitivity must be unaffected.
        point = [0.1, 0.0, -0.1]
        result = transfer_sensitivities(parametric, S_POINT, point)
        assert result.shape == (
            3, parametric.nominal.num_outputs, parametric.nominal.num_inputs
        )


def _reference_eig_responses(eigenvalues, lt_v, w, freqs):
    """The historical per-frequency loop, kept verbatim as the oracle."""
    out = np.empty(
        (eigenvalues.shape[0], freqs.size, lt_v.shape[1], w.shape[2]), dtype=complex
    )
    for j, f in enumerate(freqs):
        s = 2j * np.pi * f
        out[:, j] = lt_v @ (w / (1.0 + s * eigenvalues)[:, :, None])
    return out


class TestEigResponsesGrid:
    """The collapsed (m, n_freq, q) contraction vs the historical loop."""

    def _factors(self, model, num_samples):
        from repro.runtime.batch import _eig_response_factors

        points = sample_parameters(num_samples, 3, seed=23)
        g, c = batch_instantiate(model, points, exact=False)
        return _eig_response_factors(model, g, c)

    def test_grid_contraction_bit_close_to_loop(self, model):
        """Small ensemble, dense axis: the one-GEMM-per-instance path."""
        from repro.runtime.batch import _eig_responses

        eigenvalues, lt_v, w = self._factors(model, num_samples=5)
        freqs = np.logspace(7, 10, 64)
        collapsed = _eig_responses(eigenvalues, lt_v, w, freqs)
        reference = _reference_eig_responses(eigenvalues, lt_v, w, freqs)
        scale = np.abs(reference).max()
        assert np.abs(collapsed - reference).max() <= 1e-13 * scale

    def test_wide_ensemble_bit_identical_to_loop(self, model):
        """Monte Carlo shape: the batched kernel must stay bit-exact."""
        from repro.runtime.batch import _eig_responses

        eigenvalues, lt_v, w = self._factors(model, num_samples=40)
        freqs = np.logspace(7, 10, 12)
        batched = _eig_responses(eigenvalues, lt_v, w, freqs)
        reference = _reference_eig_responses(eigenvalues, lt_v, w, freqs)
        np.testing.assert_array_equal(batched, reference)

    def test_public_kernel_unchanged_across_regimes(self, model):
        """batch_frequency_response(method='eig') agrees with 'solve' in both."""
        freqs = np.logspace(7, 10, 40)
        for num_samples in (3, 25):
            points = sample_parameters(num_samples, 3, seed=29)
            eig = batch_frequency_response(model, freqs, points, method="eig")
            solve = batch_frequency_response(model, freqs, points, method="solve")
            scale = np.abs(solve).max()
            assert np.abs(eig - solve).max() <= 1e-9 * scale


class TestDensificationMemo:
    """Models without their own cache densify once, not per kernel call."""

    def _bare_model(self):
        """A shape-contract model with no dense_nominal/sensitivity_stacks."""
        import scipy.sparse as sp

        from repro.circuits.statespace import DescriptorSystem

        class BareModel:
            def __init__(self):
                rng = np.random.default_rng(5)
                g0 = rng.standard_normal((4, 4)) + 4 * np.eye(4)
                c0 = rng.standard_normal((4, 4)) + 4 * np.eye(4)
                self.nominal = DescriptorSystem(
                    sp.csr_matrix(g0), sp.csr_matrix(c0), np.eye(4, 1), np.eye(4, 1)
                )
                self.dG = [sp.csr_matrix(0.1 * rng.standard_normal((4, 4)))]
                self.dC = [sp.csr_matrix(0.1 * rng.standard_normal((4, 4)))]
                self.num_parameters = 1

        return BareModel()

    def test_densification_happens_once(self):
        from repro.runtime.batch import densification_count, reset_densification_count

        model = self._bare_model()
        points = np.array([[0.1], [-0.2], [0.0]])
        reset_densification_count()
        batch_instantiate(model, points, exact=True)
        after_first = densification_count()
        assert after_first == 2  # one nominal pass + one stack pass
        batch_instantiate(model, points, exact=True)
        batch_instantiate(model, points, exact=False)
        batch_transfer(model, S_POINT, points)
        assert densification_count() == after_first

    def test_memoized_results_match_scalar_instantiation(self):
        model = self._bare_model()
        points = np.array([[0.3], [0.0]])
        g, c = batch_instantiate(model, points, exact=True)
        g0 = model.nominal.G.toarray()
        c0 = model.nominal.C.toarray()
        expected_g = g0 + 0.3 * model.dG[0].toarray()
        expected_c = c0 + 0.3 * model.dC[0].toarray()
        np.testing.assert_array_equal(g[0], expected_g)
        np.testing.assert_array_equal(c[0], expected_c)
        np.testing.assert_array_equal(g[1], g0)
        np.testing.assert_array_equal(c[1], c0)
