"""Golden-reference regression harness: kernels vs committed numerics.

Every other test in the suite checks *internal* consistency (route A
equals route B, chunked equals one-shot).  This harness pins the
kernels to **known-good numbers on disk**: committed ``.npz`` fixtures
under ``tests/golden/`` hold the responses, poles, trajectories, and
transfer matrices of three canonical workloads, plus the MNA matrices
they start from, and the tests assert the current code still
reproduces them --

- **exact bits** for the dense routes (batched instantiation, the
  eig-rational sweep kernel, the block-stepped propagator transient
  kernel are all deterministic closed-form LAPACK/BLAS pipelines),
- **exact bits**, dtypes included, for the assembled MNA matrices (the
  CSR ``data``/``indices``/``indptr`` of ``G``, ``C``, ``B``, ``L`` and
  every sensitivity pair: study fingerprints, stores and result
  indexes all hash them), and
- to ``1e-12`` relative for the sparse shared-pattern tiers
  (tridiagonal / banded / level-LU / SuperLU factorizations may
  reorder floating-point operations across library builds).

In the Proof-Carrying-Numbers spirit, each fixture embeds its own
provenance (generator description and, for the sparse case, the solver
tier per circuit), so a failure names exactly which claim broke.

After an *intentional* numeric change, regenerate with::

    pytest tests/test_golden.py --regen-goldens

and commit the fixtures in the same PR -- the binary diff then
documents the numeric change explicitly, and ``tests/golden/README.md``
records the largest per-field change of every regeneration.
"""

import pathlib

import numpy as np
import pytest

from repro.analysis.montecarlo import sample_parameters
from repro.circuits import rc_ladder, rc_tree, rcnet_a, with_random_variations
from repro.circuits.netlist import Netlist
from repro.core import LowRankReducer
from repro.runtime import RampInput, Study, shared_pattern_family

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

# Relative tolerance per fixture; None means exact bits.
TOLERANCES = {
    "rcneta_sweep": None,
    "ladder_transient": None,
    "sparse_family_transfer": 1e-12,
    "mna_stamps": None,
}


def _case_rcneta_sweep():
    """RCNetA (78 states, 3 width parameters): reduced sweep + poles."""
    parametric = rcnet_a()
    model = LowRankReducer(num_moments=4, rank=1).reduce(parametric)
    frequencies = np.logspace(7, 10, 15)
    samples = sample_parameters(8, parametric.num_parameters, seed=11)
    result = (
        Study(model)
        .scenarios(samples)
        .sweep(frequencies, keep_responses=True)
        .poles(5)
        .run()
    )
    return {
        "provenance": np.array(
            "rcnet_a | LowRankReducer(num_moments=4, rank=1) | "
            "sample_parameters(8, 3, seed=11) | logspace(7, 10, 15) | "
            "Study.sweep(keep_responses=True).poles(5)"
        ),
        "frequencies": frequencies,
        "samples": samples,
        "responses": result.responses,
        "poles": result.poles,
        "envelope_min": result.envelope_min,
        "envelope_max": result.envelope_max,
    }


def _case_ladder_transient():
    """12-segment RC ladder: reduced ramp-driven transient ensemble."""
    parametric = with_random_variations(rc_ladder(12), 2, seed=3)
    model = LowRankReducer(num_moments=3, rank=1).reduce(parametric)
    samples = sample_parameters(6, parametric.num_parameters, seed=5)
    result = (
        Study(model)
        .scenarios(samples)
        .transient(
            RampInput(rise_time=2e-10), num_steps=40, keep_outputs=True
        )
        .run()
    )
    return {
        "provenance": np.array(
            "rc_ladder(12) + with_random_variations(2, seed=3) | "
            "LowRankReducer(num_moments=3, rank=1) | "
            "sample_parameters(6, 2, seed=5) | "
            "Study.transient(RampInput(rise_time=2e-10), num_steps=40)"
        ),
        "samples": samples,
        "time": result.time,
        "outputs": result.outputs,
        "delays": result.delays,
        "slews": result.slews,
        "steady_states": result.steady_states,
    }


def _voltage_driven_tree() -> Netlist:
    """``rc_tree(200, seed=3)`` driven by ``V1 in 0`` through 25 ohm."""
    net = rc_tree(200, seed=3)
    net.resistor("Rsrc", "in", "n0", 25.0)
    net.voltage_source("V1", "in", "0")
    return net


def _case_sparse_family_transfer():
    """Full-order shared-pattern transfer through all four solver tiers."""
    circuits = {
        "tridiagonal": with_random_variations(rc_ladder(12), 2, seed=3),
        "banded": with_random_variations(rc_tree(30, seed=5), 2, seed=7),
        "level_lu": with_random_variations(rc_tree(200, seed=3), 2, seed=5),
        "superlu": with_random_variations(_voltage_driven_tree(), 2, seed=5),
    }
    s = 2j * np.pi * 1e9
    arrays = {
        "provenance": np.array(
            "shared_pattern_family(...).transfer(2j*pi*1e9, "
            "sample_parameters(5, 2, seed=2)) over "
            "rc_ladder(12)/rc_tree(30,seed=5)/rc_tree(200,seed=3)/"
            "rc_tree(200,seed=3)+Rsrc(25)+V1 "
            "with 2 variational parameters each"
        ),
    }
    for tier, parametric in circuits.items():
        family = shared_pattern_family(parametric)
        # The fixture pins the tier each circuit is meant to exercise;
        # a routing change (e.g. a new bandwidth threshold) fails loudly
        # instead of silently testing one kernel four times.
        arrays[f"{tier}_solver_kind"] = np.array(family.solver_kind)
        samples = sample_parameters(5, parametric.num_parameters, seed=2)
        arrays[f"{tier}_samples"] = samples
        arrays[f"{tier}_transfer"] = family.transfer(s, samples)
    return arrays


def _rlc_ladder() -> Netlist:
    """Six RLC segments with a mutual, a floating capacitor, both input kinds."""
    net = Netlist("rlc-ladder")
    net.resistor("Rsrc", "in", "n0", 25.0)
    net.voltage_source("V1", "in", "0")
    net.current_port("P", "n0")
    for j in range(6):
        net.resistor(f"R{j}", f"n{j}", f"m{j}", 2.0 + 0.5 * j)
        net.inductor(f"L{j}", f"m{j}", f"n{j + 1}", 1e-10 * (1.0 + 0.1 * j))
        net.capacitor(f"C{j}", f"n{j + 1}", "0", 1e-14 * (1.0 + 0.2 * j))
    net.capacitor("Cx", "n1", "n3", 5e-15)
    net.resistor("Rload", "n6", "0", 50.0)
    net.mutual("K1", "L1", "L2", 0.3)
    net.observe("far", "n6")
    return net


def _stamp_arrays(prefix, parametric):
    """CSR ``data``/``indices``/``indptr`` of every matrix of a system."""
    nominal = parametric.nominal
    matrices = {"G": nominal.G, "C": nominal.C, "B": nominal.B, "L": nominal.L}
    for i, (gi, ci) in enumerate(zip(parametric.dG, parametric.dC)):
        matrices[f"dG{i}"] = gi
        matrices[f"dC{i}"] = ci
    arrays = {}
    for label, matrix in matrices.items():
        for part in ("data", "indices", "indptr"):
            arrays[f"{prefix}_{label}_{part}"] = getattr(matrix, part)
    return arrays


def _case_mna_stamps():
    """Assembled G, C, B, L and sensitivity pairs, CSR arrays bit for bit."""
    arrays = {
        "provenance": np.array(
            "rc_tree(50, seed=4) + with_random_variations(3, seed=8) | "
            "rcnet_a() (extraction scales through assemble_perturbation) | "
            "6-segment RLC ladder with mutual K1, floating Cx, V1, P, far + "
            "with_random_variations(4, seed=6, relative_spread=0.5, "
            "targets=[all, resistors, capacitors, inductors]) | "
            "CSR data/indices/indptr of G, C, B, L, dG_i, dC_i"
        ),
    }
    arrays.update(_stamp_arrays(
        "rctree", with_random_variations(rc_tree(50, seed=4), 3, seed=8)
    ))
    arrays.update(_stamp_arrays("rcneta", rcnet_a()))
    arrays.update(_stamp_arrays("rlc", with_random_variations(
        _rlc_ladder(), 4, seed=6, relative_spread=0.5,
        targets=["all", "resistors", "capacitors", "inductors"],
    )))
    return arrays


CASES = {
    "mna_stamps": _case_mna_stamps,
    "rcneta_sweep": _case_rcneta_sweep,
    "ladder_transient": _case_ladder_transient,
    "sparse_family_transfer": _case_sparse_family_transfer,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernels_match_goldens(name, request):
    regen = request.config.getoption("--regen-goldens")
    current = CASES[name]()
    path = GOLDEN_DIR / f"{name}.npz"
    if regen:
        GOLDEN_DIR.mkdir(exist_ok=True)
        np.savez(path, **current)
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"golden fixture {path.name} missing; generate it with "
        "`pytest tests/test_golden.py --regen-goldens` and commit it"
    )
    rtol = TOLERANCES[name]
    with np.load(path) as stored:
        assert sorted(stored.files) == sorted(current), (
            f"{path.name} stores {sorted(stored.files)}, the generator "
            f"produces {sorted(current)}; regenerate the fixture"
        )
        for field in stored.files:
            golden = stored[field]
            actual = np.asarray(current[field])
            if golden.dtype.kind == "U":  # provenance / tier strings
                assert str(actual) == str(golden), field
            elif rtol is None or field.endswith("samples"):
                # Dense kernels (and every input array) must reproduce
                # the committed numerics to exact bits.
                assert actual.dtype == golden.dtype, field
                np.testing.assert_array_equal(actual, golden, err_msg=field)
            else:
                scale = np.abs(golden).max()
                np.testing.assert_allclose(
                    actual, golden, rtol=rtol, atol=rtol * scale, err_msg=field
                )


def test_all_goldens_committed():
    """Every case has its fixture on disk (regen is not a silent skip)."""
    missing = [name for name in CASES if not (GOLDEN_DIR / f"{name}.npz").exists()]
    assert not missing, (
        f"missing golden fixtures {missing}; run "
        "`pytest tests/test_golden.py --regen-goldens` and commit them"
    )
