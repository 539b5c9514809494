"""Tests for dominant-pole analysis."""

import numpy as np
import pytest

from repro.analysis import dominant_poles, match_poles, pole_error_grid
from repro.core import LowRankReducer


@pytest.fixture(scope="module")
def pair():
    from repro.circuits import rcnet_a

    parametric = rcnet_a()
    model = LowRankReducer(num_moments=4, rank=1).reduce(parametric)
    return parametric, model


class TestDominantPoles:
    def test_full_parametric_at_point(self, pair):
        parametric, _ = pair
        poles = dominant_poles(parametric, 5, p=[0.1, 0.0, -0.1])
        assert poles.shape == (5,)
        assert np.all(np.abs(poles) == np.sort(np.abs(poles)))

    def test_plain_system_requires_no_point(self, ladder_system):
        poles = dominant_poles(ladder_system, 3)
        assert poles.shape == (3,)

    def test_plain_system_with_point_rejected(self, ladder_system):
        with pytest.raises(TypeError, match="not parametric"):
            dominant_poles(ladder_system, 3, p=[0.1])


class TestMatchPoles:
    def test_reduced_tracks_full(self, pair):
        parametric, model = pair
        errors, full_poles, matched = match_poles(parametric, model, [0.2, -0.2, 0.1], 5)
        assert errors.shape == (5,)
        assert errors.max() < 1e-2  # paper reports < 0.3% for RCNetA/B
        assert full_poles.shape == matched.shape == (5,)

    def test_errors_grow_with_excursion(self, pair):
        parametric, model = pair
        small, _, _ = match_poles(parametric, model, [0.0, 0.0, 0.0], 3)
        large, _, _ = match_poles(parametric, model, [0.3, 0.3, 0.3], 3)
        assert small.max() <= large.max() + 1e-12


class TestErrorGrid:
    def test_grid_shape_and_symmetry_structure(self, pair):
        parametric, model = pair
        axis = np.array([-0.3, 0.0, 0.3])
        grid = pole_error_grid(
            parametric, model, axis, vary_indices=(0, 1), fixed_point=[0.0, 0.0, 0.0]
        )
        assert grid.shape == (3, 3)
        assert np.all(grid >= 0)
        # Center of the grid = nominal point: error should be smallest
        # (or at least not the worst).
        assert grid[1, 1] <= grid.max()

    def test_fixed_parameter_respected(self, pair):
        # Use a deliberately coarse model so the grid errors are well
        # above numerical noise, then check the fixed (third) parameter
        # actually influences the error surface.
        parametric, _ = pair
        coarse = LowRankReducer(num_moments=1, rank=1).reduce(parametric)
        axis = np.array([-0.3, 0.3])
        grid_lo = pole_error_grid(
            parametric, coarse, axis, (0, 1), fixed_point=[0.0, 0.0, -0.3]
        )
        grid_hi = pole_error_grid(
            parametric, coarse, axis, (0, 1), fixed_point=[0.0, 0.0, +0.3]
        )
        assert grid_lo.max() > 1e-10
        relative_gap = np.abs(grid_lo - grid_hi).max() / grid_lo.max()
        assert relative_gap > 1e-3


NO_OUTPUT_NETLIST = "V1 a 0\nR1 a 0 1\nC1 a 0 1p\n"


class TestNoOutputRefused:
    """A net driven by a source with no ``.port`` or ``.observe`` has
    no ``H[0, 0]``, so it has no dominant poles: every pole front door
    of the library refuses it in one line instead of an IndexError."""

    @pytest.fixture(scope="class")
    def no_output(self):
        from repro.circuits import parse_netlist, with_random_variations

        parametric = with_random_variations(parse_netlist(NO_OUTPUT_NETLIST), 1, seed=0)
        assert parametric.nominal.L.shape[1] == 0
        return parametric, LowRankReducer(num_moments=2).reduce(parametric)

    def _refused(self, call):
        with pytest.raises(ValueError, match=r"H\[0, 0\].*0 output") as info:
            call()
        assert "\n" not in str(info.value)

    def test_analysis_functions_refuse(self, no_output):
        from repro.analysis import pole_residues

        parametric, model = no_output
        self._refused(lambda: pole_residues(parametric.nominal))
        self._refused(lambda: dominant_poles(parametric.nominal, 2))
        self._refused(lambda: dominant_poles(parametric, 2, [0.0]))
        self._refused(lambda: dominant_poles(model, 2, [0.0]))

    def test_pole_studies_refuse_at_plan(self, no_output):
        from repro.runtime import Study

        parametric, model = no_output
        samples = np.zeros((3, 1))
        for target in (parametric, model):
            self._refused(Study(target).scenarios(samples).poles(2).plan)
        self._refused(
            Study(model).scenarios(samples).sweep([1e9]).poles(2).plan
        )
        # A sweep without poles reads no residue and still plans.
        assert Study(model).scenarios(samples).sweep([1e9]).plan().num_samples == 3
