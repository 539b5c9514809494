"""Property-based route-equivalence tests for the ``Study`` engine.

The engine's core promise: routing is an *optimization detail*.  For
any study, every applicable route -- one-shot dense batch, streaming
with any chunk size, the sparse shared-pattern family, per-instance
full-order solves -- must produce bit-identical results, and the
:class:`~repro.runtime.engine.ExecutionPlan` peak-byte accounting must
track the allocations the route actually materializes.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.circuits import coupled_rlc_bus, rc_ladder, rcnet_a, with_random_variations
from repro.circuits.statespace import DescriptorSystem
from repro.circuits.variational import ParametricSystem
from repro.core import LowRankReducer
from repro.core.model import ParametricReducedModel
from repro.obs import metrics as obs_metrics
from repro.runtime import SparsePatternFamily, Study, sweep_chunk_bytes
from repro.runtime.batch import batch_instantiate
from repro.runtime.sparse import _FAMILY_ATTR, shared_pattern_family


def _assert_pole_chunks_identical(target, samples, num_poles):
    """Pole sets are bit-identical for chunks of 1, 2, 3 and every row."""
    chunked = {
        chunk: Study(target).scenarios(samples).poles(num_poles).chunk(chunk)
        .run().pole_sets
        for chunk in (1, 2, 3, len(samples))
    }
    reference = chunked[len(samples)]
    assert len(reference) == len(samples)
    for chunk, pole_sets in chunked.items():
        for a, b in zip(reference, pole_sets):
            np.testing.assert_array_equal(a, b, err_msg=f"chunk {chunk}")


RELAXED = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=20
)

FREQUENCIES = np.logspace(7, 10, 5)
CHUNK_SIZES = st.sampled_from((1, 2, 3, 5))


@st.composite
def dense_ensembles(draw):
    """A random dense parametric model plus a sample matrix."""
    q = draw(st.integers(min_value=2, max_value=6))
    num_parameters = draw(st.integers(min_value=1, max_value=3))
    num_samples = draw(st.integers(min_value=2, max_value=7))
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


@st.composite
def sparse_ensembles(draw):
    """A random sparse full-order parametric system plus sample points."""
    n = draw(st.integers(min_value=3, max_value=9))
    num_parameters = draw(st.integers(min_value=1, max_value=2))
    num_samples = draw(st.integers(min_value=2, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    rng = np.random.default_rng(seed)

    def random_sparse(density):
        mask = rng.random((n, n)) < density
        values = np.where(mask, rng.standard_normal((n, n)), 0.0)
        return sp.csr_matrix(values + values.T)

    g0 = sp.csr_matrix(random_sparse(0.3) + n * sp.identity(n))
    c0 = sp.csr_matrix(random_sparse(0.2) + sp.identity(n))
    dG = [0.1 * random_sparse(0.4) for _ in range(num_parameters)]
    dC = [0.1 * random_sparse(0.4) for _ in range(num_parameters)]
    nominal = DescriptorSystem(g0, c0, np.eye(n, 1), np.eye(n, 1), title="hyp-engine")
    model = ParametricSystem(nominal, dG, dC)
    samples = 0.3 * rng.standard_normal((num_samples, num_parameters))
    samples[rng.random(samples.shape) < 0.25] = 0.0
    return model, samples


@st.composite
def wide_sparse_ensembles(draw):
    """A sparse ensemble memoized onto the wide tier, maybe with branches.

    With ``branches``, inductor-like rows join the system: each couples
    to one node through +-1 entries of ``G`` and has only a ``C``
    diagonal, so at f = 0 (added to the grid) its pivot is zero when it
    is eliminated first and the pencil falls back to SuperLU.  ``G``
    stays nonsingular at DC (a saddle-point block with an SPD corner).
    """
    model, samples = draw(sparse_ensembles())
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    num_branches = draw(st.integers(min_value=0, max_value=2))
    freqs = FREQUENCIES
    if num_branches:
        rng = np.random.default_rng(seed)
        n = model.nominal.order
        size = n + num_branches
        nodes = rng.choice(n, num_branches, replace=False)
        branch = sp.csr_matrix(
            (
                np.concatenate((np.ones(num_branches), -np.ones(num_branches))),
                (
                    np.concatenate((nodes, n + np.arange(num_branches))),
                    np.concatenate((n + np.arange(num_branches), nodes)),
                ),
            ),
            shape=(size, size),
        )
        inductance = sp.diags(
            np.concatenate((np.zeros(n), rng.uniform(0.5, 2.0, num_branches)))
        )

        def grow(matrix):
            return sp.csr_matrix(sp.block_diag((matrix, sp.csr_matrix((num_branches,) * 2))))

        nominal = DescriptorSystem(
            sp.csr_matrix(grow(model.nominal.G) + branch),
            sp.csr_matrix(grow(model.nominal.C) + inductance),
            np.eye(size, 1), np.eye(size, 1), title="hyp-wide",
        )
        model = ParametricSystem(
            nominal, [grow(m) for m in model.dG], [grow(m) for m in model.dC]
        )
        freqs = np.concatenate(([0.0], FREQUENCIES))
    family = SparsePatternFamily(model, max_bandwidth=0)
    assume(family.solver_kind == "level-lu")  # not a diagonal-only draw
    # Studies reach the family through this memo, so they run the wide tier.
    setattr(model, _FAMILY_ATTR, family)
    return model, samples, freqs


class TestDenseRouteEquivalence:
    @RELAXED
    @given(dense_ensembles(), CHUNK_SIZES)
    def test_streamed_chunks_bit_identical_to_one_shot(self, ensemble, chunk):
        """dense-batch vs dense-stream at arbitrary chunk sizes."""
        model, samples = ensemble

        def run(study):
            return study.sweep(FREQUENCIES, keep_responses=True).poles(3).run()

        one_shot = run(Study(model).scenarios(samples))
        streamed = run(Study(model).scenarios(samples).chunk(chunk))
        np.testing.assert_array_equal(streamed.responses, one_shot.responses)
        np.testing.assert_array_equal(streamed.poles, one_shot.poles)
        np.testing.assert_array_equal(streamed.envelope_min, one_shot.envelope_min)
        np.testing.assert_array_equal(streamed.envelope_max, one_shot.envelope_max)

    @RELAXED
    @given(dense_ensembles(), CHUNK_SIZES)
    def test_plan_peak_bytes_track_measured_allocations(self, ensemble, chunk):
        """ExecutionPlan accounting vs the arrays the route materializes."""
        model, samples = ensemble
        study = Study(model).scenarios(samples).sweep(FREQUENCIES).chunk(chunk)
        plan = study.plan()
        q = model.nominal.order
        m_out = model.nominal.L.shape[1]
        m_in = model.nominal.B.shape[1]
        effective = min(chunk, samples.shape[0])
        # Exactly the documented estimator: the chunk arrays plus the
        # streaming reducer's three cross-chunk accumulator arrays, plus
        # the folded chunk's grid and magnitudes under lookahead.
        accumulator = 24 * FREQUENCIES.size * m_out * m_in
        lookahead = plan.lookahead * 24 * effective * FREQUENCIES.size * m_out * m_in
        assert plan.estimated_peak_bytes == sweep_chunk_bytes(
            q, FREQUENCIES.size, effective, m_out, m_in
        ) + accumulator + lookahead
        # ... which bounds the measured per-chunk allocation shapes: the
        # instantiated (c, q, q) system stacks and the chunk's complex
        # (c, n_f, m_out, m_in) response grid.
        g, c = batch_instantiate(model, samples[:effective])
        grid_bytes = 16 * effective * FREQUENCIES.size * m_out * m_in
        assert plan.estimated_peak_bytes >= g.nbytes + c.nbytes + grid_bytes

    @RELAXED
    @given(dense_ensembles())
    def test_pole_routes_identical_serial_vs_thread(self, ensemble):
        """Chunk-invariant pole sets: chunks of 1, 2, 3 and all rows,
        no store (the name predates the chunked pole payload)."""
        model, samples = ensemble
        _assert_pole_chunks_identical(model, samples, 3)


class TestSparseRouteEquivalence:
    @RELAXED
    @given(sparse_ensembles(), CHUNK_SIZES)
    def test_family_chunks_bit_identical(self, ensemble, chunk):
        """sparse-family streaming must be chunk-size invariant."""
        model, samples = ensemble
        one_shot = (
            Study(model)
            .scenarios(samples)
            .sweep(FREQUENCIES, keep_responses=True)
            .run()
        )
        streamed = (
            Study(model)
            .scenarios(samples)
            .sweep(FREQUENCIES, keep_responses=True)
            .chunk(chunk)
            .run()
        )
        np.testing.assert_array_equal(streamed.responses, one_shot.responses)
        np.testing.assert_array_equal(streamed.envelope_max, one_shot.envelope_max)

    @RELAXED
    @given(wide_sparse_ensembles(), CHUNK_SIZES)
    def test_wide_tier_chunks_bit_identical(self, ensemble, chunk):
        """The level-LU tier (and its fallbacks) is chunk-size invariant."""
        model, samples, freqs = ensemble
        assert shared_pattern_family(model).solver_kind == "level-lu"
        one_shot = (
            Study(model).scenarios(samples).sweep(freqs, keep_responses=True).run()
        )
        streamed = (
            Study(model).scenarios(samples).sweep(freqs, keep_responses=True)
            .chunk(chunk).run()
        )
        np.testing.assert_array_equal(streamed.responses, one_shot.responses)
        np.testing.assert_array_equal(streamed.envelope_max, one_shot.envelope_max)

    @pytest.mark.parametrize("chunk", [1, 2])
    def test_wide_tier_fallback_chunks_bit_identical(self, chunk):
        """Chunking leaves the fallback pencils' answers bit-identical too.

        The RLC bus's inductor rows have zero pivots at DC, so every
        instance re-solves its f = 0 pencil through SuperLU.
        """
        model = with_random_variations(coupled_rlc_bus(), 2)
        setattr(model, _FAMILY_ATTR, SparsePatternFamily(model, max_bandwidth=0))
        samples = 0.2 * np.random.default_rng(3).standard_normal((3, 2))
        freqs = np.concatenate(([0.0], FREQUENCIES))
        fallbacks = obs_metrics.counter("runtime.sparse.pivot_fallbacks")
        before = fallbacks.value
        one_shot = (
            Study(model).scenarios(samples).sweep(freqs, keep_responses=True).run()
        )
        assert fallbacks.value - before >= len(samples)
        streamed = (
            Study(model).scenarios(samples).sweep(freqs, keep_responses=True)
            .chunk(chunk).run()
        )
        np.testing.assert_array_equal(streamed.responses, one_shot.responses)

    @RELAXED
    @given(sparse_ensembles())
    def test_executor_pole_route_matches_serial(self, ensemble):
        """The per-instance pole route is chunk-invariant (the name
        predates the chunked pole payload)."""
        model, samples = ensemble
        _assert_pole_chunks_identical(model, samples, 2)


class TestEveryRouteOneStudy:
    """One fixed study forced through every applicable route."""

    @pytest.fixture(scope="class")
    def circuit(self):
        parametric = rcnet_a()
        model = LowRankReducer(num_moments=3, rank=1).reduce(parametric)
        rng = np.random.default_rng(23)
        samples = 0.25 * rng.standard_normal((9, 3))
        return parametric, model, samples

    def test_sweep_every_chunking_identical(self, circuit):
        """Every chunking, on both response contractions.

        The 40-point axis with more than 16 instances is the case where
        a chunk of 16 or fewer rows would take the other contraction
        than the whole study if each chunk chose its own.
        """
        _, model, samples = circuit
        wide = 0.25 * np.random.default_rng(29).standard_normal((33, 3))
        for plan_samples in (samples, wide):
            for freqs in (FREQUENCIES, np.logspace(7, 10, 40)):
                results = {}
                for label, directive in (
                    ("dense-batch", lambda s: s),
                    ("stream-1", lambda s: s.chunk(1)),
                    ("stream-2", lambda s: s.chunk(2)),
                    ("stream-4", lambda s: s.chunk(4)),
                    ("stream-16", lambda s: s.chunk(16)),
                ):
                    study = directive(
                        Study(model).scenarios(plan_samples)
                        .sweep(freqs, keep_responses=True)
                    )
                    results[label] = (study.plan().route, study.run())
                assert results["dense-batch"][0] == "dense-batch"
                assert results["stream-2"][0] == "dense-stream"
                reference = results["dense-batch"][1]
                for label, (_, result) in results.items():
                    label = f"{label}, m={len(plan_samples)}, n_f={freqs.size}"
                    np.testing.assert_array_equal(
                        result.responses, reference.responses, err_msg=label
                    )
                    np.testing.assert_array_equal(
                        result.envelope_min, reference.envelope_min, err_msg=label
                    )
                    np.testing.assert_array_equal(
                        result.envelope_max, reference.envelope_max, err_msg=label
                    )

    def test_pole_study_every_executor_identical(self, circuit):
        """The full-order pole study is chunk-invariant on RCNetA (the
        name predates the chunked pole payload)."""
        parametric, _, samples = circuit
        assert Study(parametric).scenarios(samples).poles(3).plan().route == (
            "per-instance"
        )
        _assert_pole_chunks_identical(parametric, samples, 3)

    def test_rlc_transient_chunkings_identical(self):
        """Step counts on both sides of the transient kernel's block
        length (8): shorter, equal, one past, and not a multiple."""
        parametric = with_random_variations(coupled_rlc_bus(num_segments=12), 2, seed=3)
        model = LowRankReducer(num_moments=4, rank=1).reduce(parametric)
        samples = 0.2 * np.random.default_rng(7).standard_normal((6, 2))
        for num_steps in (1, 7, 8, 9, 20):
            reference = (
                Study(model)
                .scenarios(samples)
                .transient(num_steps=num_steps, keep_outputs=True)
                .run()
            )
            for chunk in (1, 2, 5):
                streamed = (
                    Study(model)
                    .scenarios(samples)
                    .transient(num_steps=num_steps, keep_outputs=True)
                    .chunk(chunk)
                    .run()
                )
                np.testing.assert_array_equal(streamed.outputs, reference.outputs)
                np.testing.assert_array_equal(streamed.delays, reference.delays)
                np.testing.assert_array_equal(streamed.slews, reference.slews)

    def test_sparse_full_ladder_routes(self):
        full = with_random_variations(rc_ladder(30), 2, seed=11)
        samples = 0.2 * np.random.default_rng(5).standard_normal((5, 2))
        study = Study(full).scenarios(samples).sweep(FREQUENCIES, keep_responses=True)
        plan = study.plan()
        assert plan.route == "sparse-family"
        assert "shared-pattern" in plan.kernel
        reference = study.run()
        chunked = (
            Study(full)
            .scenarios(samples)
            .sweep(FREQUENCIES, keep_responses=True)
            .chunk(2)
            .run()
        )
        np.testing.assert_array_equal(chunked.responses, reference.responses)
        # And the streamed responses agree with per-sample scalar solves.
        for k, point in enumerate(samples):
            scalar = full.instantiate(point).frequency_response(FREQUENCIES)
            scale = np.abs(scalar).max()
            assert np.abs(reference.responses[k] - scalar).max() <= 1e-10 * scale
