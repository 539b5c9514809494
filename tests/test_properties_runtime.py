"""Property-based tests (hypothesis) for the runtime batch kernels.

Random dense parametric ensembles -- RC-like SPD pencils and reduced
circuit macromodels, sample counts {1, 2, 7}, single-input and
multi-output shapes -- must evaluate identically through the batched
kernels and the per-sample reference loop: bit-identical for
``exact`` instantiation, 1e-12 relative for everything derived
(transfer, frequency response, transient trajectories).
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.timedomain import simulate_transient
from repro.circuits import coupled_rlc_bus, rc_ladder, with_random_variations
from repro.circuits.statespace import DescriptorSystem
from repro.circuits.variational import ParametricSystem
from repro.core import LowRankReducer
from repro.core.model import ParametricReducedModel
from repro.runtime import (
    SparsePatternFamily,
    StepInput,
    batch_frequency_response,
    batch_instantiate,
    batch_simulate_transient,
    batch_transfer,
)

# Dense linear algebra over many random ensembles; relax the deadline.
RELAXED = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=25
)

SAMPLE_COUNTS = st.sampled_from((1, 2, 7))


@st.composite
def random_ensembles(draw):
    """A random (model, sample-matrix) pair with an RC-like SPD pencil.

    ``G`` and ``C`` are SPD with O(1) time constants (what an RC net
    reduces to), sensitivities are small and symmetric, and port/sample
    shapes span single-input/multi-output combinations.
    """
    q = draw(st.integers(min_value=2, max_value=7))
    num_parameters = draw(st.integers(min_value=0, max_value=3))
    num_inputs = draw(st.integers(min_value=1, max_value=2))
    num_outputs = draw(st.integers(min_value=1, max_value=3))
    num_samples = draw(SAMPLE_COUNTS)
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((q, q))
    g0 = a @ a.T + q * np.eye(q)
    b = rng.standard_normal((q, q))
    c0 = b @ b.T + q * np.eye(q)
    dG = [0.05 * (m + m.T) for m in rng.standard_normal((num_parameters, q, q))]
    dC = [0.05 * (m + m.T) for m in rng.standard_normal((num_parameters, q, q))]
    nominal = DescriptorSystem(
        g0,
        c0,
        rng.standard_normal((q, num_inputs)),
        rng.standard_normal((q, num_outputs)),
    )
    model = ParametricReducedModel(nominal, dG, dC)
    samples = 0.3 * rng.standard_normal((num_samples, num_parameters))
    return model, samples


@st.composite
def reduced_circuit_ensembles(draw):
    """Reduced RC-ladder / RLC-bus macromodels with random draw matrices.

    The circuit-shaped counterpart of :func:`random_ensembles`: real
    reducer output (near-singular ``C`` blocks and all) over random
    Monte Carlo sample matrices.
    """
    kind = draw(st.sampled_from(("rc", "rlc")))
    num_samples = draw(SAMPLE_COUNTS)
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    model = _reduced_circuit_model(kind)
    rng = np.random.default_rng(seed)
    samples = 0.3 * rng.standard_normal((num_samples, model.num_parameters))
    return model, samples


_CIRCUIT_MODELS = {}


def _reduced_circuit_model(kind):
    if kind not in _CIRCUIT_MODELS:
        if kind == "rc":
            parametric = with_random_variations(rc_ladder(12), 2, seed=3)
        else:
            parametric = with_random_variations(coupled_rlc_bus(), 2, seed=42)
        _CIRCUIT_MODELS[kind] = LowRankReducer(num_moments=3, rank=1).reduce(parametric)
    return _CIRCUIT_MODELS[kind]


@st.composite
def sparse_parametric_systems(draw):
    """A random sparse full-order parametric system plus sample points.

    Random CSR patterns (including entries unique to single sensitivity
    matrices, empty sensitivities, and repeated structural overlap),
    signed values, and parameter points that include exact zeros -- the
    territory where a shared-pattern data accumulation could diverge
    from scipy's per-sample sparse additions.
    """
    n = draw(st.integers(min_value=2, max_value=9))
    num_parameters = draw(st.integers(min_value=1, max_value=3))
    num_samples = draw(SAMPLE_COUNTS)
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    rng = np.random.default_rng(seed)

    def random_sparse(density, symmetric=False):
        mask = rng.random((n, n)) < density
        values = np.where(mask, rng.standard_normal((n, n)), 0.0)
        if symmetric:
            values = values + values.T
        return sp.csr_matrix(values)

    g0 = sp.csr_matrix(random_sparse(0.4, symmetric=True) + n * sp.identity(n))
    c0 = sp.csr_matrix(random_sparse(0.3, symmetric=True) + sp.identity(n))
    dG = [random_sparse(rng.uniform(0.0, 0.5)) for _ in range(num_parameters)]
    dC = [random_sparse(rng.uniform(0.0, 0.5)) for _ in range(num_parameters)]
    nominal = DescriptorSystem(g0, c0, np.eye(n, 1), np.eye(n, 1), title="hyp-sparse")
    model = ParametricSystem(nominal, dG, dC)
    samples = 0.4 * rng.standard_normal((num_samples, num_parameters))
    # Zero out random coefficients: the scalar path *skips* them.
    samples[rng.random(samples.shape) < 0.3] = 0.0
    return model, samples


class TestSparsePatternFamilyProperties:
    @RELAXED
    @given(sparse_parametric_systems())
    def test_instantiate_bit_identical_to_scalar_path(self, ensemble):
        model, samples = ensemble
        family = SparsePatternFamily(model)
        for point in samples:
            reference = model.instantiate(point)
            fast = family.instantiate(point)
            np.testing.assert_array_equal(fast.G.toarray(), reference.G.toarray())
            np.testing.assert_array_equal(fast.C.toarray(), reference.C.toarray())

    @RELAXED
    @given(sparse_parametric_systems())
    def test_batch_data_bit_identical_to_scalar_path(self, ensemble):
        model, samples = ensemble
        family = SparsePatternFamily(model)
        g_data, c_data = family.batch_data(samples)
        for k, point in enumerate(samples):
            reference = model.instantiate(point)
            np.testing.assert_array_equal(
                family.matrix_from_data(g_data[k]).toarray(), reference.G.toarray()
            )
            np.testing.assert_array_equal(
                family.matrix_from_data(c_data[k]).toarray(), reference.C.toarray()
            )


class TestBatchKernelProperties:
    @RELAXED
    @given(random_ensembles())
    def test_exact_instantiation_bit_identical(self, ensemble):
        model, samples = ensemble
        g, c = batch_instantiate(model, samples, exact=True)
        for k, point in enumerate(samples):
            system = model.instantiate(point)
            np.testing.assert_array_equal(g[k], system.G)
            np.testing.assert_array_equal(c[k], system.C)

    @RELAXED
    @given(random_ensembles())
    def test_einsum_instantiation_matches_exact(self, ensemble):
        model, samples = ensemble
        g, c = batch_instantiate(model, samples, exact=True)
        ge, ce = batch_instantiate(model, samples, exact=False)
        scale = max(np.abs(g).max(), np.abs(c).max())
        assert np.abs(ge - g).max() <= 1e-12 * scale
        assert np.abs(ce - c).max() <= 1e-12 * scale

    @RELAXED
    @given(random_ensembles(), st.floats(min_value=6.0, max_value=10.0))
    def test_transfer_matches_loop(self, ensemble, log_frequency):
        model, samples = ensemble
        s = 2j * np.pi * 10.0 ** log_frequency
        batched = batch_transfer(model, s, samples)
        looped = np.stack([model.transfer(s, p) for p in samples])
        scale = max(np.abs(looped).max(), 1e-300)
        assert np.abs(batched - looped).max() <= 1e-12 * scale

    @RELAXED
    @given(random_ensembles())
    def test_frequency_response_matches_loop(self, ensemble):
        model, samples = ensemble
        frequencies = np.logspace(-2, 1, 4) / (2 * np.pi)
        batched = batch_frequency_response(model, frequencies, samples)
        for k, point in enumerate(samples):
            looped = model.frequency_response(frequencies, point)
            scale = max(np.abs(looped).max(), 1e-300)
            assert np.abs(batched[k] - looped).max() <= 1e-12 * scale


class TestBatchTransientProperties:
    @RELAXED
    @given(
        random_ensembles(),
        st.sampled_from(("trapezoidal", "backward_euler")),
        st.integers(min_value=1, max_value=40),
    )
    def test_transient_matches_loop(self, ensemble, method, num_steps):
        model, samples = ensemble
        waveform = StepInput()
        result = batch_simulate_transient(
            model, samples, waveform, 2.0, num_steps, method=method, keep_states=True
        )
        for k, point in enumerate(samples):
            reference = simulate_transient(
                model.instantiate(point),
                waveform,
                2.0,
                num_steps,
                method=method,
                keep_states=True,
            )
            scale = max(np.abs(reference.outputs).max(), 1e-300)
            assert np.abs(result.outputs[k] - reference.outputs).max() <= 1e-12 * scale
            state_scale = max(np.abs(reference.states).max(), 1e-300)
            assert (
                np.abs(result.states[k] - reference.states).max() <= 1e-12 * state_scale
            )

    @RELAXED
    @given(reduced_circuit_ensembles(), st.sampled_from(("trapezoidal", "backward_euler")))
    def test_reduced_circuit_transient_matches_loop(self, ensemble, method):
        model, samples = ensemble
        dominant = model.nominal.poles(num=1)[0]
        t_final = 8.0 / abs(dominant.real)
        waveform = StepInput()
        result = batch_simulate_transient(
            model, samples, waveform, t_final, 25, method=method
        )
        for k, point in enumerate(samples):
            reference = simulate_transient(
                model.instantiate(point), waveform, t_final, 25, method=method
            )
            scale = max(np.abs(reference.outputs).max(), 1e-300)
            assert np.abs(result.outputs[k] - reference.outputs).max() <= 1e-12 * scale

    @RELAXED
    @given(reduced_circuit_ensembles())
    def test_reduced_circuit_transfer_matches_loop(self, ensemble):
        model, samples = ensemble
        s = 2j * np.pi * 1e9
        batched = batch_transfer(model, s, samples)
        looped = np.stack([model.transfer(s, p) for p in samples])
        scale = max(np.abs(looped).max(), 1e-300)
        assert np.abs(batched - looped).max() <= 1e-12 * scale
