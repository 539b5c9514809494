"""Tests for the reduced parametric model object and the nominal reducer."""

import threading

import numpy as np
import pytest

from repro.core import LowRankReducer, NominalReducer, ParametricReducedModel


@pytest.fixture(scope="module")
def model():
    from repro.circuits import rc_tree, with_random_variations

    parametric = with_random_variations(rc_tree(30, seed=5), 2, seed=7)
    return LowRankReducer(num_moments=3, rank=1).reduce(parametric)


class TestParametricReducedModel:
    def test_instantiate_at_zero_matches_nominal(self, model):
        system = model.instantiate([0.0, 0.0])
        s = 2j * np.pi * 1e9
        np.testing.assert_allclose(
            system.transfer(s), model.nominal.transfer(s), rtol=1e-12
        )

    def test_transfer_linearity_in_matrices(self, model):
        # G(p) assembled by the model equals manual assembly.
        point = [0.4, -0.2]
        system = model.instantiate(point)
        g_manual = (
            np.asarray(model.nominal.G)
            + point[0] * model.dG[0]
            + point[1] * model.dG[1]
        )
        np.testing.assert_allclose(np.asarray(system.G), g_manual, rtol=1e-14)

    def test_poles_callable(self, model):
        poles = model.poles([0.1, 0.1], num=3)
        assert poles.shape == (3,)
        assert np.all(poles.real < 0)

    def test_state_reconstruction_shape(self, model):
        z = np.zeros(model.size)
        x = model.reconstruct_state(z)
        assert x.shape == (model.projection.shape[0],)

    def test_reconstruction_without_projection_raises(self, model):
        bare = ParametricReducedModel(model.nominal, model.dG, model.dC)
        with pytest.raises(ValueError, match="projection"):
            bare.reconstruct_state(np.zeros(bare.size))

    def test_wrong_point_shape_rejected(self, model):
        with pytest.raises(ValueError, match="parameter point"):
            model.instantiate([0.1, 0.2, 0.3])

    def test_mismatched_sensitivities_rejected(self, model):
        with pytest.raises(ValueError, match="matching"):
            ParametricReducedModel(model.nominal, model.dG, model.dC[:1])

    def test_wrong_sensitivity_shape_rejected(self, model):
        bad = [np.zeros((2, 2))] * 2
        with pytest.raises(ValueError, match="shape"):
            ParametricReducedModel(model.nominal, bad, bad)

    def test_repr(self, model):
        assert f"size={model.size}" in repr(model)

    def test_concurrent_first_sensitivity_stacks_are_whole(self, model):
        """A caller arriving while another builds the stacks never sees
        half of them (serve pool threads plan one model concurrently)."""
        fresh = ParametricReducedModel(model.nominal, model.dG, model.dC)
        entered, release = threading.Event(), threading.Event()

        class StalledOnce(list):
            def __iter__(self):
                if not entered.is_set():
                    entered.set()
                    release.wait(10)
                return super().__iter__()

        fresh.dC = StalledOnce(fresh.dC)
        builder = threading.Thread(target=fresh.sensitivity_stacks)
        builder.start()
        try:
            assert entered.wait(10)
            dg, dc = fresh.sensitivity_stacks()  # the builder is mid-build
        finally:
            release.set()
            builder.join(10)
        assert not builder.is_alive()
        assert dg is not None and dc is not None
        np.testing.assert_array_equal(dc, np.stack(model.dC))


class TestNominalReducer:
    def test_nominal_point_is_accurate(self, frequencies):
        from repro.circuits import rc_tree, with_random_variations

        parametric = with_random_variations(rc_tree(30, seed=5), 2, seed=7)
        model = NominalReducer(num_moments=8).reduce(parametric)
        full = parametric.nominal.frequency_response(frequencies)[:, 0, 0]
        red = model.frequency_response(frequencies, [0.0, 0.0])[:, 0, 0]
        assert np.abs(full - red).max() / np.abs(full).max() < 1e-5

    def test_sensitivities_carried_but_projection_nominal(self):
        from repro.circuits import rc_tree, with_random_variations

        parametric = with_random_variations(rc_tree(30, seed=5), 2, seed=7)
        model = NominalReducer(num_moments=4).reduce(parametric)
        # The reduced sensitivities exist (first-order tracking)...
        assert any(abs(gi).max() > 0 for gi in model.dG)
        # ...but the projection ignores them: size = nominal PRIMA size.
        assert model.size <= 4 * parametric.nominal.num_inputs

    def test_validation(self):
        with pytest.raises(ValueError):
            NominalReducer(num_moments=0)
