"""Property tests for store round-trips: interrupt anywhere, lose nothing.

The durability contract of :mod:`repro.runtime.store`: kill a
store-backed study after *any* number of completed chunk checkpoints
``k in [0, n_chunks]``, resume it, and every result field is
**bit-identical** to an uninterrupted run without a store.  Hypothesis
drives the ensemble, the chunk size, and the interruption point; the
same property is checked for sweep, transient, and pole studies, and
for stores written by the static shard runs of older releases merged
back into one result set.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits.statespace import DescriptorSystem
from repro.core.model import ParametricReducedModel
from repro.runtime import Study

RELAXED = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=15
)

# Axes on both sides of the eig kernel's response-contraction switch
# (32 frequencies); with more than 16 instances a dense axis is where a
# chunk choosing its own contraction would differ from one-shot.
FREQUENCY_AXES = st.sampled_from((5, 32, 40)).map(lambda n: np.logspace(7, 10, n))


@st.composite
def dense_ensembles(draw, max_samples=9):
    """A random dense parametric model plus a sample matrix."""
    q = draw(st.integers(min_value=2, max_value=5))
    num_parameters = draw(st.integers(min_value=1, max_value=3))
    num_samples = draw(st.integers(min_value=2, max_value=max_samples))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((q, q))
    g0 = a @ a.T + q * np.eye(q)
    b = rng.standard_normal((q, q))
    c0 = b @ b.T + q * np.eye(q)
    dG = [0.05 * (m + m.T) for m in rng.standard_normal((num_parameters, q, q))]
    dC = [0.05 * (m + m.T) for m in rng.standard_normal((num_parameters, q, q))]
    nominal = DescriptorSystem(
        g0, c0, rng.standard_normal((q, 1)), rng.standard_normal((q, 2))
    )
    model = ParametricReducedModel(nominal, dG, dC)
    samples = 0.3 * rng.standard_normal((num_samples, num_parameters))
    return model, samples


class _InterruptAfter(Exception):
    """Raised by the progress callback to simulate a mid-study kill."""


def _interrupter(num_chunks_to_complete, chunk):
    """A progress callback that kills the run after ``k`` full chunks.

    Progress fires right after a chunk's checkpoint is persisted, so
    raising at ``done >= k * chunk`` leaves exactly ``k`` recorded
    chunks behind (chunks before the last are always full-size).
    """
    budget = num_chunks_to_complete * chunk

    def callback(done, _total):
        if done >= budget:
            raise _InterruptAfter

    return callback


def _run_interrupted_then_resumed(build, k, chunk, num_samples):
    """Interrupt a store-backed run after ``k`` chunks, then resume it.

    ``build()`` returns a fresh study declaration; the store lives in a
    temporary directory per example (hypothesis reuses the test's
    ``tmp_path``, so the isolation has to be per-call).
    """
    with tempfile.TemporaryDirectory() as store_dir:
        num_chunks = -(-num_samples // chunk)
        if k == 0:
            # Killed before the first checkpoint: nothing persisted, the
            # "resumed" run is simply a fresh store-backed run.
            return build().store(store_dir).run()
        if k < num_chunks:
            interrupted = build().store(store_dir).progress(_interrupter(k, chunk))
            with pytest.raises(_InterruptAfter):
                interrupted.run()
            return build().store(store_dir).resume().run()
        # k == n_chunks: the "interrupted" run completed; resume anyway.
        build().store(store_dir).run()
        return build().store(store_dir).resume().run()


class TestInterruptResumeSweep:
    @RELAXED
    @given(
        dense_ensembles(max_samples=24),
        FREQUENCY_AXES,
        st.sampled_from((1, 2, 3, 4, 16)),
        st.integers(min_value=0, max_value=100),
    )
    def test_resume_bit_identical_for_any_interruption_point(
        self, ensemble, freqs, chunk, k_raw
    ):
        model, samples = ensemble
        num_samples = samples.shape[0]
        num_chunks = -(-num_samples // chunk)
        k = k_raw % (num_chunks + 1)  # arbitrary point in [0, n_chunks]

        def build():
            return (
                Study(model)
                .scenarios(samples)
                .sweep(freqs, keep_responses=True)
                .poles(3)
                .chunk(chunk)
            )

        reference = build().run()
        resumed = _run_interrupted_then_resumed(build, k, chunk, num_samples)
        np.testing.assert_array_equal(resumed.responses, reference.responses)
        np.testing.assert_array_equal(resumed.poles, reference.poles)
        np.testing.assert_array_equal(resumed.envelope_min, reference.envelope_min)
        np.testing.assert_array_equal(resumed.envelope_mean, reference.envelope_mean)
        np.testing.assert_array_equal(resumed.envelope_max, reference.envelope_max)
        np.testing.assert_array_equal(resumed.samples, reference.samples)
        # Per-instance values and the envelope extremes also equal the
        # unchunked study (the chunk-summed mean may differ in the last
        # bits; see the stream module's determinism contract).
        one_shot = (
            Study(model).scenarios(samples)
            .sweep(freqs, keep_responses=True).poles(3).run()
        )
        np.testing.assert_array_equal(resumed.responses, one_shot.responses)
        np.testing.assert_array_equal(resumed.poles, one_shot.poles)
        np.testing.assert_array_equal(resumed.envelope_min, one_shot.envelope_min)
        np.testing.assert_array_equal(resumed.envelope_max, one_shot.envelope_max)


class TestInterruptResumeTransient:
    @RELAXED
    @given(
        dense_ensembles(),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=100),
    )
    def test_resume_bit_identical_for_any_interruption_point(
        self, ensemble, chunk, k_raw
    ):
        model, samples = ensemble
        num_samples = samples.shape[0]
        num_chunks = -(-num_samples // chunk)
        k = k_raw % (num_chunks + 1)

        def build():
            return (
                Study(model)
                .scenarios(samples)
                .transient(num_steps=12, keep_outputs=True)
                .chunk(chunk)
            )

        reference = build().run()
        resumed = _run_interrupted_then_resumed(build, k, chunk, num_samples)
        np.testing.assert_array_equal(resumed.outputs, reference.outputs)
        np.testing.assert_array_equal(resumed.delays, reference.delays)
        np.testing.assert_array_equal(resumed.slews, reference.slews)
        np.testing.assert_array_equal(
            resumed.steady_states, reference.steady_states
        )
        np.testing.assert_array_equal(resumed.envelope_min, reference.envelope_min)
        np.testing.assert_array_equal(resumed.envelope_mean, reference.envelope_mean)
        np.testing.assert_array_equal(resumed.envelope_max, reference.envelope_max)
        np.testing.assert_array_equal(resumed.time, reference.time)


class TestInterruptResumePoles:
    @RELAXED
    @given(
        dense_ensembles(),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=100),
    )
    def test_resume_bit_identical_for_any_interruption_point(
        self, ensemble, chunk, k_raw
    ):
        model, samples = ensemble
        num_samples = samples.shape[0]
        num_chunks = -(-num_samples // chunk)
        k = k_raw % (num_chunks + 1)

        def build():
            # The stacked dense route; a store makes chunk(...) the
            # checkpoint unit, the store-free reference is one chunk.
            return (
                Study(model)
                .scenarios(samples)
                .poles(3)
                .chunk(chunk)
            )

        reference = build().run()
        assert build().plan().route == "dense-batch"
        resumed = _run_interrupted_then_resumed(build, k, chunk, num_samples)
        assert len(resumed.pole_sets) == len(reference.pole_sets)
        for got, expected in zip(resumed.pole_sets, reference.pole_sets):
            np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(resumed.samples, reference.samples)


class TestLegacyShardMerge:
    @RELAXED
    @given(
        dense_ensembles(),
        FREQUENCY_AXES,
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=2, max_value=3),
    )
    def test_shard_named_manifests_merge_bit_identical(
        self, legacy_shard_split, ensemble, freqs, chunk, of
    ):
        model, samples = ensemble

        def build():
            return (
                Study(model)
                .scenarios(samples)
                .sweep(freqs, keep_responses=True)
                .poles(2)
                .chunk(chunk)
            )

        reference = build().run()
        with tempfile.TemporaryDirectory() as store_dir:
            build().store(store_dir).run()
            legacy_shard_split(store_dir, of)
            study = build().store(store_dir).resume()
            merged = study.run()
        assert study.metrics()["counters"].get("store.chunks_saved", 0) == 0
        np.testing.assert_array_equal(merged.responses, reference.responses)
        np.testing.assert_array_equal(merged.poles, reference.poles)
        np.testing.assert_array_equal(merged.envelope_min, reference.envelope_min)
        np.testing.assert_array_equal(merged.envelope_mean, reference.envelope_mean)
        np.testing.assert_array_equal(merged.envelope_max, reference.envelope_max)
