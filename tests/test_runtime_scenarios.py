"""Scenario plans: sample-matrix generation, waveforms, composition."""

import numpy as np
import pytest

from repro.analysis.montecarlo import monte_carlo_pole_study, sample_parameters
from repro.circuits import rcnet_a
from repro.core import LowRankReducer
from repro.runtime import (
    CornerPlan,
    GridPlan,
    MonteCarloPlan,
    PWLInput,
    RampInput,
    SineInput,
    StepInput,
    batch_frequency_response,
)
from repro.runtime.scenarios import MAX_PLAN_SAMPLES


@pytest.fixture(scope="module")
def parametric():
    return rcnet_a()


@pytest.fixture(scope="module")
def model(parametric):
    return LowRankReducer(num_moments=3, rank=1).reduce(parametric)


class TestMonteCarloPlan:
    def test_realizes_sample_parameters(self):
        plan = MonteCarloPlan(num_instances=40, three_sigma=0.2, seed=9)
        expected = sample_parameters(40, 3, three_sigma=0.2, seed=9)
        np.testing.assert_array_equal(plan.sample_matrix(3), expected)

    def test_num_samples_without_materializing(self):
        assert MonteCarloPlan(num_instances=12).num_samples(5) == 12

    def test_hashable_and_comparable(self):
        assert MonteCarloPlan(10) == MonteCarloPlan(10)
        assert hash(MonteCarloPlan(10, seed=1)) != hash(MonteCarloPlan(10, seed=2))


class TestCornerPlan:
    def test_all_corners_plus_nominal(self):
        plan = CornerPlan(magnitude=0.3)
        matrix = plan.sample_matrix(2)
        assert matrix.shape == (5, 2)
        np.testing.assert_array_equal(matrix[0], [0.0, 0.0])
        corners = {tuple(row) for row in matrix[1:]}
        assert corners == {(-0.3, -0.3), (-0.3, 0.3), (0.3, -0.3), (0.3, 0.3)}

    def test_without_nominal(self):
        plan = CornerPlan(magnitude=0.1, include_nominal=False)
        assert plan.sample_matrix(3).shape == (8, 3)
        assert plan.num_samples(3) == 8

    def test_size_guard(self):
        with pytest.raises(ValueError):
            CornerPlan().sample_matrix(64)
        assert CornerPlan().num_samples(64) > MAX_PLAN_SAMPLES

    def test_rejects_bad_parameter_count(self):
        with pytest.raises(ValueError):
            CornerPlan().sample_matrix(0)


class TestGridPlan:
    def test_factorial_combinations(self):
        plan = GridPlan(axis_values=(-0.3, 0.3))
        matrix = plan.sample_matrix(2)
        assert matrix.shape == (4, 2)
        assert {tuple(row) for row in matrix} == {
            (-0.3, -0.3), (-0.3, 0.3), (0.3, -0.3), (0.3, 0.3)
        }

    def test_axis_values_normalized_to_tuple(self):
        plan = GridPlan(axis_values=[-0.1, 0.0, 0.1])
        assert plan.axis_values == (-0.1, 0.0, 0.1)
        assert plan.num_samples(3) == 27

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            GridPlan(axis_values=())

    def test_size_guard(self):
        with pytest.raises(ValueError):
            GridPlan(axis_values=tuple(np.linspace(-0.3, 0.3, 101))).sample_matrix(4)


class TestInputWaveforms:
    def test_step_values(self):
        times = np.array([-1.0, 0.0, 0.5, 2.0])
        np.testing.assert_array_equal(
            StepInput(amplitude=2.0).values(times), [0.0, 2.0, 2.0, 2.0]
        )
        np.testing.assert_array_equal(
            StepInput(amplitude=2.0, delay=1.0).values(times), [0.0, 0.0, 0.0, 2.0]
        )

    def test_ramp_values(self):
        waveform = RampInput(rise_time=2.0, amplitude=4.0, delay=1.0)
        times = np.array([0.0, 1.0, 2.0, 3.0, 10.0])
        np.testing.assert_allclose(waveform.values(times), [0.0, 0.0, 2.0, 4.0, 4.0])

    def test_ramp_rejects_nonpositive_rise(self):
        with pytest.raises(ValueError, match="rise_time"):
            RampInput(rise_time=0.0)

    def test_pwl_interpolates_and_holds_ends(self):
        waveform = PWLInput(points=((1.0, 0.0), (2.0, 2.0), (4.0, 1.0)))
        times = np.array([0.0, 1.5, 3.0, 9.0])
        np.testing.assert_allclose(waveform.values(times), [0.0, 1.0, 1.5, 1.0])

    def test_pwl_rejects_bad_breakpoints(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            PWLInput(points=((1.0, 0.0), (0.5, 1.0)))
        with pytest.raises(ValueError, match="at least one"):
            PWLInput(points=())

    def test_sine_values(self):
        waveform = SineInput(frequency=1.0, amplitude=3.0, offset=1.0)
        times = np.array([0.0, 0.25, 0.5])
        np.testing.assert_allclose(waveform.values(times), [1.0, 4.0, 1.0], atol=1e-12)

    def test_sine_gated_before_delay(self):
        waveform = SineInput(frequency=1.0, offset=0.5, delay=1.0)
        np.testing.assert_allclose(waveform.values(np.array([0.0, 0.5])), [0.5, 0.5])

    def test_sine_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError, match="frequency"):
            SineInput(frequency=0.0)

    def test_sample_places_channel(self):
        waveform = StepInput(input_index=1)
        table = waveform.sample(np.array([0.0, 1.0]), num_inputs=3)
        np.testing.assert_array_equal(table, [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])

    def test_sample_rejects_bad_input_index(self):
        with pytest.raises(ValueError, match="input_index"):
            StepInput(input_index=2).sample(np.array([0.0]), num_inputs=1)
        with pytest.raises(ValueError, match="input_index"):
            StepInput(input_index=2).as_function(1)

    def test_as_function_matches_sample(self):
        """One object, two realizations: the scalar adapter agrees with
        the vectorized table at every time point."""
        waveform = RampInput(rise_time=3.0, amplitude=2.0, input_index=1)
        times = np.linspace(0.0, 5.0, 11)
        table = waveform.sample(times, num_inputs=2)
        u = waveform.as_function(2)
        stacked = np.stack([u(t) for t in times])
        np.testing.assert_array_equal(stacked, table)

    def test_waveforms_hashable_and_comparable(self):
        assert StepInput() == StepInput()
        assert hash(RampInput(rise_time=1.0)) == hash(RampInput(rise_time=1.0))
        assert PWLInput(points=((0, 0), (1, 1))) == PWLInput(points=((0.0, 0.0), (1.0, 1.0)))
        assert SineInput(frequency=2.0) != SineInput(frequency=3.0)


class TestComposition:
    def test__frequency_scenarios(self, model):
        """A plan's sample matrix composes with the batched kernel."""
        plan = CornerPlan(magnitude=0.2)
        frequencies = np.logspace(7, 10, 6)
        responses = batch_frequency_response(
            model, frequencies, plan.sample_matrix(model.num_parameters)
        )
        assert responses.shape == (
            plan.num_samples(model.num_parameters),
            6,
            model.nominal.num_outputs,
            model.nominal.num_inputs,
        )
        magnitude = np.abs(responses[:, :, 0, 0])
        low, mean, high = magnitude.min(0), magnitude.mean(0), magnitude.max(0)
        assert (low <= mean + 1e-15).all() and (mean <= high + 1e-15).all()
        # Row 0 is the nominal instance: its response must sit inside
        # the envelope.
        nominal = magnitude[0]
        assert (low <= nominal + 1e-15).all() and (nominal <= high + 1e-15).all()

    def test_plan_study_equals_direct_call(self, parametric, model):
        plan = MonteCarloPlan(num_instances=5, seed=21)
        via_plan = plan.study(parametric, model, num_poles=3)
        direct = monte_carlo_pole_study(
            parametric, model, 5, num_poles=3, seed=21
        )
        np.testing.assert_array_equal(via_plan.samples, direct.samples)
        np.testing.assert_array_equal(via_plan.pole_errors, direct.pole_errors)
