"""repro: parametric model order reduction for interconnect variability.

A from-scratch reproduction of

    Peng Li, Frank Liu, Xin Li, Lawrence T. Pileggi, Sani R. Nassif,
    "Modeling Interconnect Variability Using Efficient Parametric
    Model Order Reduction", DATE 2005.

Quickstart
----------
>>> from repro import rcnet_a, LowRankReducer
>>> parametric = rcnet_a()                    # clock-tree net, 3 width params
>>> model = LowRankReducer(num_moments=4).reduce(parametric)
>>> H = model.transfer(2j * 3.14159e9, [0.3, -0.1, 0.0])

Package map
-----------
- :mod:`repro.core` -- the paper's algorithms (low-rank Algorithm 1,
  single-point, multi-point, nominal baseline, moment oracles).
- :mod:`repro.circuits` -- MNA substrate: netlists, stamping,
  parametric systems, extraction, benchmark generators.
- :mod:`repro.baselines` -- PRIMA, TBR, AWE, projection fitting [6].
- :mod:`repro.analysis` -- frequency sweeps, poles, passivity,
  transient simulation, Monte Carlo studies.
- :mod:`repro.runtime` -- the serving layer: the declarative ``Study``
  engine (one front door routing to batched, sparse shared-pattern,
  streamed, and per-instance kernels), scenario plans, the
  content-addressed model cache, and the durable study store.
- :mod:`repro.warehouse` -- the analytics tier: a catalog of
  registered studies and exact out-of-core aggregation read in place
  from their verified StudyStore checkpoints.
- :mod:`repro.linalg` -- shared numerical kernels.

See the repository-root ``README.md`` for installation, CLI usage, and
a tour of the runtime subsystem.
"""

from repro.analysis import (
    compare_frequency_responses,
    dominant_poles,
    match_poles,
    monte_carlo_pole_study,
    passivity_report,
    pole_error_grid,
    sample_parameters,
    simulate_step,
    simulate_transient,
    sweep,
)
from repro.baselines import fit_projection_model, prima, prima_projection, tbr
from repro.circuits import (
    DescriptorSystem,
    Netlist,
    ParametricSystem,
    assemble,
    clock_tree,
    coupled_rlc_bus,
    finite_difference_sensitivities,
    parse_netlist,
    power_grid_mesh,
    rc_ladder,
    rc_network_767,
    rc_tree,
    rcnet_a,
    rcnet_b,
    standard_stack,
    with_random_variations,
)
from repro.core import (
    AdaptiveLowRankReducer,
    LowRankReducer,
    MultiPointReducer,
    NominalReducer,
    ParametricReducedModel,
    SinglePointReducer,
    factorial_grid,
    shifted_parametric_system,
)
from repro.runtime import (
    CornerPlan,
    ExecutionPlan,
    GridPlan,
    ModelCache,
    MonteCarloPlan,
    PWLInput,
    RampInput,
    SineInput,
    SparsePatternFamily,
    StepInput,
    StoreError,
    Study,
    StudyStore,
    batch_frequency_response,
    batch_instantiate,
    batch_simulate_transient,
    batch_transfer,
)
from repro.warehouse import Warehouse, WarehouseError

__version__ = "0.1.0"

__all__ = [
    "AdaptiveLowRankReducer",
    "CornerPlan",
    "DescriptorSystem",
    "ExecutionPlan",
    "GridPlan",
    "LowRankReducer",
    "ModelCache",
    "MonteCarloPlan",
    "MultiPointReducer",
    "Netlist",
    "NominalReducer",
    "PWLInput",
    "ParametricReducedModel",
    "ParametricSystem",
    "RampInput",
    "SineInput",
    "SinglePointReducer",
    "SparsePatternFamily",
    "StepInput",
    "StoreError",
    "Study",
    "StudyStore",
    "Warehouse",
    "WarehouseError",
    "__version__",
    "assemble",
    "batch_frequency_response",
    "batch_instantiate",
    "batch_simulate_transient",
    "batch_transfer",
    "clock_tree",
    "compare_frequency_responses",
    "coupled_rlc_bus",
    "dominant_poles",
    "factorial_grid",
    "finite_difference_sensitivities",
    "fit_projection_model",
    "match_poles",
    "monte_carlo_pole_study",
    "parse_netlist",
    "passivity_report",
    "pole_error_grid",
    "power_grid_mesh",
    "prima",
    "prima_projection",
    "rc_ladder",
    "rc_network_767",
    "rc_tree",
    "rcnet_a",
    "rcnet_b",
    "sample_parameters",
    "shifted_parametric_system",
    "simulate_step",
    "simulate_transient",
    "standard_stack",
    "sweep",
    "tbr",
    "with_random_variations",
]
