"""Clock-tree timing variability under metal width variation (Section 5.3 style).

A balanced clock tree is routed on an M5/M6/M7 metal stack; the three
variational parameters are the relative line-width deviations of the
layers, with sensitivities from the closed-form parasitic extraction
model.  The script:

1. builds the parametric clock tree and a low-rank macromodel,
2. runs a Monte Carlo study of the 5 dominant poles (the paper's
   Figs. 5-6 protocol) using the reduced model as a cheap surrogate --
   declared as a ``MonteCarloPlan`` and evaluated through the
   ``Study`` engine,
3. shows the resulting distribution of the dominant time constant --
   the quantity a timing engineer actually cares about -- and the
   surrogate's per-instance accuracy.

Run:  python examples/clock_tree_variability.py
"""

import numpy as np

from repro import LowRankReducer, MonteCarloPlan, Study, rcnet_b


def main():
    parametric = rcnet_b()
    print(f"clock tree RCNetB: {parametric.order} MNA unknowns, "
          f"parameters: {parametric.parameter_names}")

    model = LowRankReducer(num_moments=3, rank=1).reduce(parametric)
    print(f"parametric macromodel: {model.size} states\n")

    # Monte Carlo over +-30% (3 sigma) width variation: one declarative
    # plan drives the full-vs-reduced pole-accuracy study.  (The full
    # model's reference solves route through the engine's executor-full
    # shared-pattern path; pass `executor="thread"` to parallelize.)
    instances = 60
    plan = MonteCarloPlan(num_instances=instances, three_sigma=0.3, seed=7)
    study = plan.study(parametric, model, num_poles=5)
    engine_route = Study(parametric).scenarios(plan).poles(5).plan()
    print(f"reference-solve route: {engine_route.route} [{engine_route.kernel}]")

    # Dominant time constants from the *reduced* model per instance.
    tau = 1.0 / np.abs(study.reduced_poles[:, 0].real)
    tau_nominal = 1.0 / abs(model.poles(np.zeros(3), num=1)[0].real)
    print(f"nominal dominant time constant: {tau_nominal * 1e12:.2f} ps")
    print(f"Monte Carlo ({instances} instances, 3 sigma = 30% width):")
    print(f"  mean tau : {tau.mean() * 1e12:.2f} ps")
    print(f"  std  tau : {tau.std() * 1e12:.3f} ps")
    print(f"  spread   : {tau.min() * 1e12:.2f} .. {tau.max() * 1e12:.2f} ps")

    # ASCII histogram of the dominant time constant.
    counts, edges = np.histogram(tau * 1e12, bins=10)
    print("\n  tau distribution (ps):")
    for i, count in enumerate(counts):
        bar = "#" * int(50 * count / max(counts.max(), 1))
        print(f"  {edges[i]:7.2f}..{edges[i + 1]:7.2f}  {bar} {count}")

    print(f"\nsurrogate accuracy: worst pole error over "
          f"{study.total_poles} pole comparisons = {study.max_error * 100:.2e}%")
    assert study.max_error < 1e-2

    # Which layer matters most?  Perturb each one alone by +30%.
    print("\nper-layer sensitivity of the dominant time constant:")
    for index, name in enumerate(parametric.parameter_names):
        point = np.zeros(3)
        point[index] = 0.3
        tau_shift = 1.0 / abs(model.poles(point, num=1)[0].real)
        delta = (tau_shift - tau_nominal) / tau_nominal
        print(f"  {name:10s} +30% width -> tau changes {delta * 100:+.2f}%")


if __name__ == "__main__":
    main()
