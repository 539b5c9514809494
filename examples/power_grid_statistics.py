"""Statistical IR-drop analysis of a power grid (extension showcase).

Builds a power-distribution mesh whose sheet resistance and decap
values vary with process, reduces it once with the adaptive low-rank
reducer (which also returns the convergence report printed below; a
fixed-order reducer can go through ``ModelCache.get_or_reduce`` to skip
repeat reductions), and then performs the statistical analyses the
compact model enables: a Monte Carlo distribution of the worst-path impedance
-- one engine sweep over a declarative plan -- a quadratic response
surface, and a parameter influence ranking.

Run:  python examples/power_grid_statistics.py
"""

import numpy as np

from repro import MonteCarloPlan, Study, power_grid_mesh, with_random_variations
from repro.analysis import fit_response_surface, parameter_ranking
from repro.analysis.statistics import MetricDistribution
from repro.core import AdaptiveLowRankReducer

PROBE_HZ = 1e9


def grid_impedance(system) -> float:
    """|Z(f*)| between supply tap 0 and its return at the mid band."""
    return float(abs(system.transfer(2j * np.pi * PROBE_HZ)[0, 0]))


def main():
    netlist = power_grid_mesh(14, 14, num_supplies=3)
    parametric = with_random_variations(
        netlist, 2, seed=5, relative_spread=0.5,
        parameter_names=["sheet_res", "decap"],
    )
    print(f"power grid: {parametric.order} states, "
          f"parameters: {parametric.parameter_names}")

    model, report = AdaptiveLowRankReducer(
        target_error=1e-4, max_order=8
    ).reduce(parametric)
    print(f"adaptive macromodel: {report.summary()}\n")

    # Monte Carlo of the supply impedance at 1 GHz over the process
    # distribution: one declarative engine study on the reduced model
    # (150 instances x 1 frequency in a single batched kernel call).
    mc_study = (
        Study(model)
        .scenarios(MonteCarloPlan(num_instances=150, three_sigma=0.4, seed=9))
        .sweep([PROBE_HZ], keep_responses=True)
    )
    print(f"engine route: {mc_study.plan().route} [{mc_study.plan().kernel}]")
    sweep = mc_study.run()
    dist = MetricDistribution(
        samples=sweep.samples, values=np.abs(sweep.responses[:, 0, 0, 0])
    )
    print(f"supply impedance @1 GHz over 150 instances (3 sigma = 40%):")
    print(f"  mean  {dist.mean * 1e3:.3f} mOhm")
    print(f"  std   {dist.std * 1e3:.4f} mOhm")
    p5, p50, p95 = dist.percentile([5, 50, 95])
    print(f"  p5/p50/p95  {p5 * 1e3:.3f} / {p50 * 1e3:.3f} / {p95 * 1e3:.3f} mOhm")

    # Response surface: a closed-form surrogate for sign-off sweeps.
    surface = fit_response_surface(dist.samples, dist.values)
    probe = np.array([0.2, -0.2])
    truth = grid_impedance(model.instantiate(probe))
    print(f"\nquadratic response surface: rms residual "
          f"{surface.residual_rms * 1e3:.2e} mOhm")
    print(f"  prediction at p={probe.tolist()}: {surface(probe) * 1e3:.3f} mOhm "
          f"(model: {truth * 1e3:.3f} mOhm)")

    # Which parameter drives the impedance?
    ranking = parameter_ranking(dist)
    print("\nparameter influence (|Pearson correlation| with impedance):")
    for index, correlation in ranking:
        print(f"  {parametric.parameter_names[index]:10s} {correlation:+.3f}")

    # Spot-check the surrogate against the full model at one corner.
    full_truth = grid_impedance(parametric.instantiate(probe))
    error = abs(truth - full_truth) / full_truth
    print(f"\nsurrogate vs full model at the probe corner: {error:.2e} relative")
    assert error < 1e-2


if __name__ == "__main__":
    main()
