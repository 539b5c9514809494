"""Tests for Monte Carlo variational studies."""

import numpy as np
import pytest

from repro.analysis import monte_carlo_pole_study, sample_parameters
from repro.core import LowRankReducer


class TestSampling:
    def test_shape(self):
        samples = sample_parameters(50, 3)
        assert samples.shape == (50, 3)

    def test_three_sigma_truncation(self):
        samples = sample_parameters(2000, 2, three_sigma=0.3, seed=1)
        assert np.abs(samples).max() <= 0.3

    def test_untruncated_tails(self):
        samples = sample_parameters(5000, 1, three_sigma=0.3, seed=2, truncate=False)
        assert np.abs(samples).max() > 0.3  # some 3+ sigma draws exist

    def test_std_matches_sigma(self):
        samples = sample_parameters(20000, 1, three_sigma=0.3, seed=3, truncate=False)
        np.testing.assert_allclose(samples.std(), 0.1, rtol=0.05)

    def test_deterministic(self):
        a = sample_parameters(10, 2, seed=7)
        b = sample_parameters(10, 2, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_parameters(0, 1)
        with pytest.raises(ValueError):
            sample_parameters(1, 0)

    def test_single_instance(self):
        samples = sample_parameters(1, 4, seed=5)
        assert samples.shape == (1, 4)
        np.testing.assert_array_equal(samples, sample_parameters(1, 4, seed=5))

    def test_truncation_bounds_are_inclusive(self):
        # With a tiny three_sigma nearly every draw clips: the clipped
        # values must equal the bound exactly, never exceed it.
        bound = 1e-6
        samples = sample_parameters(500, 2, three_sigma=bound, seed=8)
        assert np.abs(samples).max() <= bound
        assert (np.abs(samples) == bound).any()

    def test_truncate_only_affects_tails(self):
        raw = sample_parameters(300, 2, three_sigma=0.3, seed=9, truncate=False)
        clipped = sample_parameters(300, 2, three_sigma=0.3, seed=9, truncate=True)
        np.testing.assert_array_equal(clipped, np.clip(raw, -0.3, 0.3))

    def test_seed_changes_draws(self):
        a = sample_parameters(10, 2, seed=1)
        b = sample_parameters(10, 2, seed=2)
        assert not np.array_equal(a, b)


class TestPoleStudy:
    @pytest.fixture(scope="class")
    def study(self):
        from repro.circuits import rcnet_a

        parametric = rcnet_a()
        model = LowRankReducer(num_moments=4, rank=1).reduce(parametric)
        return monte_carlo_pole_study(
            parametric, model, num_instances=15, num_poles=5, seed=4
        )

    def test_shapes(self, study):
        assert study.pole_errors.shape == (15, 5)
        assert study.full_poles.shape == (15, 5)
        assert study.num_instances == 15
        assert study.total_poles == 75

    def test_errors_small(self, study):
        # Paper reports < 0.12% over 1000 poles for RCNetB; our
        # generator should land in the same regime.
        assert study.max_error < 1e-2

    def test_histogram(self, study):
        counts, edges = study.histogram(bins=10)
        assert counts.sum() == study.total_poles
        assert edges[0] >= 0.0

    @pytest.mark.parametrize("num_poles", [0, -2])
    def test_pole_count_below_one_refused(self, num_poles):
        """``num_poles=0`` used to run and then fail in ``max_error``
        on a zero-size reduction."""
        from repro.circuits import rcnet_a

        parametric = rcnet_a()
        model = LowRankReducer(num_moments=3).reduce(parametric)
        with pytest.raises(ValueError, match="num_poles must be >= 1") as caught:
            monte_carlo_pole_study(parametric, model, num_instances=2,
                                   num_poles=num_poles)
        assert "\n" not in str(caught.value)

    def test_explicit_samples(self):
        from repro.circuits import rcnet_a

        parametric = rcnet_a()
        model = LowRankReducer(num_moments=3).reduce(parametric)
        explicit = [[0.1, 0.1, 0.1], [-0.2, 0.0, 0.2]]
        study = monte_carlo_pole_study(
            parametric, model, num_instances=999, num_poles=2, samples=explicit
        )
        assert study.num_instances == 2
        np.testing.assert_allclose(study.samples, explicit)


class TestBatchedRewiring:
    """The runtime-backed study must be bit-compatible with the old loop."""

    def test_bitwise_matches_per_sample_loop(self):
        from repro.analysis.poles import match_poles
        from repro.circuits import rcnet_a

        parametric = rcnet_a()
        model = LowRankReducer(num_moments=3, rank=1).reduce(parametric)
        samples = sample_parameters(8, 3, seed=4)

        # The pre-runtime reference implementation: one match_poles
        # call per instance, in sample order.
        pole_errors = np.empty((8, 5))
        full_poles = np.empty((8, 5), dtype=complex)
        reduced_poles = np.empty((8, 5), dtype=complex)
        for i, point in enumerate(samples):
            errors, full_p, matched = match_poles(parametric, model, point, 5)
            pole_errors[i] = errors
            full_poles[i] = full_p
            reduced_poles[i] = matched

        study = monte_carlo_pole_study(
            parametric, model, num_instances=8, num_poles=5, seed=4
        )
        np.testing.assert_array_equal(study.samples, samples)
        np.testing.assert_array_equal(study.pole_errors, pole_errors)
        np.testing.assert_array_equal(study.full_poles, full_poles)
        np.testing.assert_array_equal(study.reduced_poles, reduced_poles)

    def test_non_batchable_reduced_model_falls_back(self):
        # A full parametric system (sparse matrices) on the "reduced"
        # side exercises the per-sample fallback path.
        from repro.circuits import rcnet_a

        parametric = rcnet_a()
        study = monte_carlo_pole_study(
            parametric, parametric, num_instances=2, num_poles=2, seed=4
        )
        assert study.max_error == 0.0  # model compared against itself
