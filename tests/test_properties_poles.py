"""Property-based tests (hypothesis): one dominant-pole definition.

A dominant pole (paper Figs. 5-6) is one with a non-negligible residue
in the port response, ranked by ``|s|`` -- the rule of
:func:`repro.runtime.batch.dominant_pole_rows`.  Every route must
answer with it:

- on a dense (reduced) model, ``.sweep(f).poles(k)``, ``.poles(k)`` and
  :func:`~repro.analysis.poles.dominant_poles` at each sample return
  bit-identical pole sets, whatever the chunking and row-pool width;
- the bare-system route (general eigensolver on the instantiated
  system) agrees with them to rounding, with equal set lengths;
- a full-order ``.poles(k)`` stays bitwise equal to
  ``dominant_poles(parametric, k, p)``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.montecarlo import sample_parameters
from repro.analysis.poles import dominant_poles
from repro.circuits import rc_tree, rcnet_a, rcnet_b, with_random_variations
from repro.core import LowRankReducer
from repro.runtime import Study
from repro.runtime import executor as executor_module

FREQUENCIES = np.logspace(7, 10, 5)
PARAMETRIC = {
    "rcnet_a": rcnet_a(),
    "rcnet_b": rcnet_b(),
    "tree_60": with_random_variations(rc_tree(60, seed=4), 2, seed=4),
    "tree_300": with_random_variations(rc_tree(300, seed=8), 3, seed=8),
}
MODELS = {
    name: LowRankReducer(num_moments=3, rank=1).reduce(parametric)
    for name, parametric in PARAMETRIC.items()
}

RELAXED = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=15,
)


def _strip(row: np.ndarray) -> np.ndarray:
    return row[~np.isnan(row)]


@st.composite
def pole_studies(draw):
    """(model name, samples, k, chunk size, row-pool width)."""
    name = draw(st.sampled_from(sorted(MODELS)))
    model = MODELS[name]
    num_samples = draw(st.integers(min_value=1, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    samples = sample_parameters(num_samples, model.num_parameters, seed=seed)
    num = draw(st.integers(min_value=0, max_value=model.size + 3))
    chunk = draw(st.one_of(
        st.none(), st.integers(min_value=1, max_value=num_samples)))
    width = draw(st.sampled_from((1, 2)))
    return name, samples, num, chunk, width


@RELAXED
@given(config=pole_studies())
def test_dense_routes_return_one_pole_set(config):
    name, samples, num, chunk, width = config
    model = MODELS[name]

    def declare(study):
        study = study.scenarios(samples)
        return study if chunk is None else study.chunk(chunk)

    with mock.patch.object(executor_module, "row_pool_width", lambda: width):
        swept = declare(Study(model).sweep(FREQUENCIES).poles(num)).run()
        alone = declare(Study(model).poles(num)).run()
        scalar = [dominant_poles(model, num, point) for point in samples]
    assert swept.poles.shape == (samples.shape[0], num)
    for row, pole_set, reference in zip(swept.poles, alone.pole_sets, scalar):
        np.testing.assert_array_equal(_strip(row), reference)
        np.testing.assert_array_equal(pole_set, reference)
        # Kept poles lead the row, in |s| order.
        assert np.isnan(row[reference.size:]).all()
        assert (np.diff(np.abs(reference)) >= 0).all()


@pytest.mark.parametrize("name", ["rcnet_a", "rcnet_b"])
def test_dense_sets_match_bare_system_route(name):
    """512 instances: the dense kernel against the general eigensolver
    on each instantiated system, equal lengths and <= 1e-12 relative."""
    model = MODELS[name]
    samples = sample_parameters(512, model.num_parameters, seed=3)
    result = Study(model).scenarios(samples).poles(5).chunk(128).run()
    for pole_set, point in zip(result.pole_sets, samples):
        reference = dominant_poles(model.instantiate(point), 5)
        assert pole_set.size == reference.size
        assert np.all(np.abs(pole_set - reference) <= 1e-12 * np.abs(reference))


@RELAXED
@given(
    num_samples=st.integers(min_value=1, max_value=4),
    num=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=2 ** 31),
)
def test_full_order_poles_match_scalar_protocol(num_samples, num, seed):
    parametric = PARAMETRIC["rcnet_a"]
    samples = sample_parameters(num_samples, parametric.num_parameters, seed=seed)
    result = Study(parametric).scenarios(samples).poles(num).run()
    for pole_set, point in zip(result.pole_sets, samples):
        np.testing.assert_array_equal(
            pole_set, dominant_poles(parametric, num, point))
