"""Tests for exact transfer-function parameter sensitivities."""

import numpy as np
import pytest

from repro.analysis import sensitivity_error, transfer_sensitivities
from repro.analysis.sensitivity import _scalar_sensitivities
from repro.circuits import rcnet_a
from repro.core import GeneralizedParameterization, LowRankReducer, output_moments
from repro.runtime import MonteCarloPlan, batch_transfer_sensitivities


@pytest.fixture(scope="module")
def rcnet():
    return rcnet_a()


@pytest.fixture(scope="module")
def rcnet_samples(rcnet):
    return MonteCarloPlan(num_instances=5, seed=7).sample_matrix(rcnet.num_parameters)


class TestKernelDispatch:
    """``transfer_sensitivities`` runs the batched kernel on a dense
    model and the factored scalar solve on a sparse one, bit for bit."""

    def test_dense_sensitivities_match_batch_kernel(self, rcnet, rcnet_samples):
        model = LowRankReducer(num_moments=3, rank=1).reduce(rcnet)
        s = 2j * np.pi * 1e9
        for point in rcnet_samples:
            np.testing.assert_array_equal(
                transfer_sensitivities(model, s, point),
                batch_transfer_sensitivities(model, s, point[None, :])[0],
            )

    def test_sparse_sensitivities_match_scalar_path(self, rcnet, rcnet_samples):
        s = 2j * np.pi * 1e9
        for point in rcnet_samples[:3]:
            np.testing.assert_array_equal(
                transfer_sensitivities(rcnet, s, point),
                _scalar_sensitivities(rcnet, s, point),
            )


class TestExactness:
    def test_matches_finite_differences(self, small_parametric):
        s = 2j * np.pi * 5e8
        point = [0.2, -0.1]
        exact = transfer_sensitivities(small_parametric, s, point)
        h = 1e-6
        for i in range(small_parametric.num_parameters):
            forward = list(point)
            backward = list(point)
            forward[i] += h
            backward[i] -= h
            fd = (
                small_parametric.transfer(s, forward)
                - small_parametric.transfer(s, backward)
            ) / (2 * h)
            np.testing.assert_allclose(exact[i], fd, rtol=1e-5)

    def test_matches_first_order_moments_at_origin(self, small_parametric):
        """dH/dp_i(0, 0) == the (0, e_i, 0) multi-parameter moment."""
        exact = transfer_sensitivities(small_parametric, 0.0)
        parameterization = GeneralizedParameterization(small_parametric)
        table = output_moments(parameterization, 1)
        mu = parameterization.num_variables
        for i in range(small_parametric.num_parameters):
            alpha = [0] * mu
            alpha[1 + i] = 1
            np.testing.assert_allclose(
                exact[i].real, table[tuple(alpha)], rtol=1e-9, atol=1e-30
            )

    def test_shape(self, small_parametric):
        result = transfer_sensitivities(small_parametric, 1e9)
        assert result.shape == (
            small_parametric.num_parameters,
            small_parametric.nominal.num_outputs,
            small_parametric.nominal.num_inputs,
        )

    def test_dense_reduced_model_supported(self, tree_parametric):
        model = LowRankReducer(num_moments=3).reduce(tree_parametric)
        result = transfer_sensitivities(model, 2j * np.pi * 1e9, [0.1, 0.1])
        assert result.shape[0] == 2
        assert np.all(np.isfinite(result))


class TestReducedModelSlopeFidelity:
    def test_lowrank_preserves_slopes(self, tree_parametric):
        """Algorithm 1 models track not just H but dH/dp."""
        model = LowRankReducer(num_moments=4, rank=1).reduce(tree_parametric)
        for f in (1e8, 1e9):
            error = sensitivity_error(
                tree_parametric, model, 2j * np.pi * f, [0.2, 0.2]
            )
            assert error < 5e-2

    def test_nominal_projection_worse_slopes(self, tree_parametric):
        """The nominal-projection model has poorer parameter slopes --
        the mechanism behind its Fig. 3/4 failures."""
        from repro.core import NominalReducer

        low_rank = LowRankReducer(num_moments=4, rank=1).reduce(tree_parametric)
        nominal = NominalReducer(num_moments=4).reduce(tree_parametric)
        s = 2j * np.pi * 1e9
        err_lr = sensitivity_error(tree_parametric, low_rank, s, [0.2, 0.2])
        err_nom = sensitivity_error(tree_parametric, nominal, s, [0.2, 0.2])
        assert err_lr <= err_nom

    def test_mismatched_models_rejected(self, tree_parametric):
        from repro.circuits import rc_ladder, with_random_variations

        one_param = with_random_variations(rc_ladder(5), 1, seed=1)
        model = LowRankReducer(num_moments=2).reduce(one_param)
        with pytest.raises(ValueError):
            # 2-parameter full vs 1-parameter reduced: shapes differ
            # (the instantiate() point check fires first).
            sensitivity_error(tree_parametric, model, 1e9, [0.0, 0.0])
