"""Streaming studies: bit-identity to the one-shot path, bounded state.

Streaming is now driven through the ``Study`` engine (``.chunk(n)`` /
``.memory_budget(bytes)``); these tests pin the chunked results to the
one-shot internal kernels bit for bit.
"""

import numpy as np
import pytest

from repro.analysis.montecarlo import sample_parameters
from repro.circuits import rc_ladder, rcnet_a, with_random_variations
from repro.core import LowRankReducer
from repro.runtime import (
    MonteCarloPlan,
    RampInput,
    Study,
    sweep_chunk_bytes,
    transient_chunk_bytes,
)
from repro.runtime.batch import _sweep_study
from repro.runtime.transient import _transient_study

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


class TestStreamSweepStudy:
    def test_bit_identical_to_one_shot_batched_path(self, model, plan):
        """Acceptance: chunked results == one-shot results, bit for bit."""
        samples = plan.sample_matrix(model.num_parameters)
        one_shot_responses, one_shot_poles = _sweep_study(
            model, FREQUENCIES, samples, num_poles=4
        )
        streamed = (
            Study(model)
            .scenarios(plan)
            .sweep(FREQUENCIES, keep_responses=True)
            .poles(4)
            .chunk(4)
            .run()
        )
        assert streamed.num_chunks == 4  # 13 instances in chunks of 4
        np.testing.assert_array_equal(streamed.responses, one_shot_responses)
        np.testing.assert_array_equal(streamed.poles, one_shot_poles)
        magnitude = np.abs(one_shot_responses)
        np.testing.assert_array_equal(streamed.envelope_min, magnitude.min(axis=0))
        np.testing.assert_array_equal(streamed.envelope_max, magnitude.max(axis=0))
        # The mean is chunk-accumulated (documented): equal to rounding.
        np.testing.assert_allclose(
            streamed.envelope_mean, magnitude.mean(axis=0), rtol=1e-13
        )

    def test_matches_solve_kernel_envelope(self, model, plan):
        from repro.runtime import batch_frequency_response

        magnitude = np.abs(batch_frequency_response(
            model, FREQUENCIES, plan.sample_matrix(model.num_parameters)
        )[:, :, 0, 0])
        streamed = Study(model).scenarios(plan).sweep(FREQUENCIES).chunk(5).run()
        low, high = magnitude.min(axis=0), magnitude.max(axis=0)
        s_low, _, s_high = streamed.magnitude_envelope()
        np.testing.assert_allclose(s_low, low, rtol=1e-12)
        np.testing.assert_allclose(s_high, high, rtol=1e-12)

    def test_single_chunk_default(self, model, plan):
        streamed = Study(model).scenarios(plan).sweep(FREQUENCIES).run()
        assert streamed.num_chunks == 1
        assert streamed.num_samples == 13

    def test_zero_poles_matches_one_shot_shape(self, model, plan):
        """num_poles=0 must not be coerced to 1 (bit-identity contract)."""
        samples = plan.sample_matrix(model.num_parameters)
        _, one_shot_poles = _sweep_study(model, FREQUENCIES, samples, num_poles=0)
        streamed = (
            Study(model).scenarios(plan).sweep(FREQUENCIES).poles(0).chunk(4).run()
        )
        assert one_shot_poles.shape == (13, 0)
        assert streamed.poles.shape == (13, 0)

    def test_progress_callback_sequence(self, model, plan):
        seen = []
        (
            Study(model)
            .scenarios(plan)
            .sweep(FREQUENCIES)
            .chunk(5)
            .progress(lambda done, total: seen.append((done, total)))
            .run()
        )
        assert seen == [(5, 13), (10, 13), (13, 13)]

    def test_raw_sample_matrix_accepted(self, model):
        samples = sample_parameters(6, 3, seed=3)
        streamed = Study(model).scenarios(samples).sweep(FREQUENCIES).chunk(2).run()
        assert streamed.plan is None
        assert streamed.num_samples == 6

    def test_sparse_full_order_model_streams_responses(self):
        full = with_random_variations(rc_ladder(40), 2, seed=3)
        samples = sample_parameters(5, 2, seed=9)
        streamed = (
            Study(full)
            .scenarios(samples)
            .sweep(FREQUENCIES, keep_responses=True)
            .chunk(2)
            .run()
        )
        assert streamed.poles is None
        for k, point in enumerate(samples):
            reference = full.instantiate(point).frequency_response(FREQUENCIES)
            scale = np.abs(reference).max()
            assert np.abs(streamed.responses[k] - reference).max() <= 1e-10 * scale

    def test_sparse_model_rejects_pole_request(self):
        full = with_random_variations(rc_ladder(20), 2, seed=3)
        study = (
            Study(full)
            .scenarios(sample_parameters(2, 2))
            .sweep(FREQUENCIES)
            .poles(3)
        )
        with pytest.raises(ValueError, match="responses only"):
            study.plan()

    def test_rejects_unbatchable_model(self):
        study = Study(object()).scenarios(np.zeros((2, 1))).sweep(FREQUENCIES)
        with pytest.raises(ValueError, match="neither dense nor sparse"):
            study.run()

    def test_rejects_bad_chunk_size(self, model, plan):
        with pytest.raises(ValueError, match="chunk_size"):
            Study(model).scenarios(plan).sweep(FREQUENCIES).chunk(0)


class TestStreamTransientStudy:
    def test_bit_identical_to_one_shot_batched_path(self, model, plan):
        """Acceptance: chunked transient study == one-shot, bit for bit."""
        samples = plan.sample_matrix(model.num_parameters)
        waveform = RampInput(rise_time=2e-10)
        one_shot = _transient_study(
            model, samples, waveform=waveform, num_steps=40
        )
        streamed = (
            Study(model)
            .scenarios(plan)
            .transient(waveform, num_steps=40, keep_outputs=True)
            .chunk(4)
            .run()
        )
        np.testing.assert_array_equal(streamed.time, one_shot.time)
        np.testing.assert_array_equal(streamed.outputs, one_shot.result.outputs)
        np.testing.assert_array_equal(streamed.delays, one_shot.delays())
        np.testing.assert_array_equal(streamed.slews, one_shot.slews())
        np.testing.assert_array_equal(streamed.steady_states, one_shot.steady_states)
        outputs = one_shot.result.outputs
        np.testing.assert_array_equal(streamed.envelope_min, outputs.min(axis=0))
        np.testing.assert_array_equal(streamed.envelope_max, outputs.max(axis=0))
        np.testing.assert_allclose(
            streamed.envelope_mean, outputs.mean(axis=0), rtol=1e-12, atol=1e-300
        )

    def test_output_envelope_slicing(self, model, plan):
        streamed = Study(model).scenarios(plan).transient(num_steps=25).chunk(6).run()
        low, mean, high = streamed.output_envelope(output_index=0)
        assert low.shape == mean.shape == high.shape == (26,)
        assert (low <= high).all()

    def test_progress_and_chunk_count(self, model, plan):
        seen = []
        streamed = (
            Study(model)
            .scenarios(plan)
            .transient(num_steps=10)
            .chunk(6)
            .progress(lambda done, total: seen.append((done, total)))
            .run()
        )
        assert streamed.num_chunks == 3
        assert seen == [(6, 13), (12, 13), (13, 13)]

    def test_rejects_sparse_model(self):
        full = with_random_variations(rc_ladder(20), 2, seed=3)
        study = Study(full).scenarios(sample_parameters(2, 2)).transient(num_steps=5)
        with pytest.raises(ValueError, match="dense-batchable"):
            study.run()


class TestChunkBytesEstimates:
    def test_linear_in_chunk_size(self):
        assert sweep_chunk_bytes(20, 50, 8) == 8 * sweep_chunk_bytes(20, 50, 1)
        assert transient_chunk_bytes(20, 100, 8) == 8 * transient_chunk_bytes(20, 100, 1)

    def test_sweep_estimate_tracks_actual_grid(self):
        # The response-grid term alone is 16 c n_f o i bytes.
        q, nf, c = 10, 40, 4
        estimate = sweep_chunk_bytes(q, nf, c)
        grid_bytes = 16 * c * nf
        assert estimate >= grid_bytes
        assert estimate <= 64 * c * (q * q + nf)

    def test_transient_estimate_dominated_by_stacks(self):
        q, nt, c = 12, 200, 3
        estimate = transient_chunk_bytes(q, nt, c)
        assert estimate >= 8 * c * 4 * q * q
