"""The paper's parametric model order reduction algorithms.

- :mod:`repro.core.lowrank` -- **the contribution**: low-rank
  approximation based multi-parameter moment matching (Algorithm 1).
- :mod:`repro.core.singlepoint` -- single-point multi-parameter moment
  matching (Section 3.1, after Daniel et al. [10]).
- :mod:`repro.core.multipoint` -- multi-point expansion in the
  variational parameter space (Section 3.3).
- :mod:`repro.core.nominal` -- the nominal-projection strawman of
  Figs. 3-4.
- :mod:`repro.core.moments` -- exact multi-parameter moments (the
  verification oracle for Theorem 1).
- :mod:`repro.core.model` -- the reduced parametric macromodel object.
- :mod:`repro.core.complexity` -- the paper's model-size/cost formulas.

Extensions beyond the paper:

- :mod:`repro.core.expansion` -- shifted expansion points ``s0 > 0``.
- :mod:`repro.core.adaptive` -- automatic rank/order selection.
- :mod:`repro.core.io` -- macromodel persistence (save/load).
"""

from repro.core.complexity import (
    factorization_counts,
    low_rank_size,
    multi_point_grid_samples,
    multi_point_size,
    single_point_size,
    single_point_size_first_order_example,
)
from repro.core.adaptive import AdaptiveLowRankReducer, AdaptiveReport
from repro.core.expansion import shifted_parametric_system
from repro.core.io import load_model, save_model
from repro.core.lowrank import LowRankReducer
from repro.core.model import ParametricReducedModel
from repro.core.moments import (
    GeneralizedParameterization,
    moment_table,
    multi_indices_up_to,
    output_moments,
)
from repro.core.multipoint import MultiPointReducer, factorial_grid
from repro.core.nominal import NominalReducer
from repro.core.singlepoint import SinglePointReducer

__all__ = [
    "AdaptiveLowRankReducer",
    "AdaptiveReport",
    "GeneralizedParameterization",
    "LowRankReducer",
    "MultiPointReducer",
    "NominalReducer",
    "ParametricReducedModel",
    "SinglePointReducer",
    "factorial_grid",
    "factorization_counts",
    "load_model",
    "low_rank_size",
    "moment_table",
    "multi_indices_up_to",
    "multi_point_grid_samples",
    "multi_point_size",
    "output_moments",
    "save_model",
    "shifted_parametric_system",
    "single_point_size",
    "single_point_size_first_order_example",
]
