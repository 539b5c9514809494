"""Dominant-pole extraction and pole-accuracy studies (Figs. 5-6 machinery).

The paper evaluates the clock-tree models by comparing the 5 most
dominant poles of the reduced parametric model against the perturbed
full model, over Monte Carlo instances (histogram, Figs. 5-6 left) and
over a 2-D grid of M5/M6 width variations (Figs. 5-6 right).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.linalg as dla

from repro.analysis.metrics import matched_pole_errors
from repro.linalg.sparselu import singular_matrix_error
from repro.runtime.batch import (
    _sweep_study,
    check_residue_port,
    dominant_pole_rows,
    finite_pole_mask,
    supports_batching,
)


def _eigen_residues(system, output_index: int, input_index: int):
    """Eigenvalues of ``G^{-1} C`` and their residues in ``H[o, i]``."""
    g, c, b, l_mat = (
        m.toarray() if hasattr(m, "toarray") else np.asarray(m)
        for m in (system.G, system.C, system.B, system.L)
    )
    try:
        a = np.linalg.solve(g, c)
    except np.linalg.LinAlgError as exc:
        raise singular_matrix_error(exc) from None
    eigenvalues, v = dla.eig(a)
    r = np.linalg.solve(g, b[:, input_index])
    return eigenvalues, (l_mat[:, output_index] @ v) * np.linalg.solve(v, r)


def pole_residues(
    system, output_index: int = 0, input_index: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Poles and residues of one transfer-function entry.

    Diagonalizing ``A' = G^{-1} C = V diag(lambda) V^{-1}`` gives

    ``H(s) = sum_j c_j / (1 + s lambda_j)``,
    ``c_j = (L^T v_j) (V^{-1} G^{-1} B)_j``,

    with poles ``s_j = -1/lambda_j``.  The residue magnitudes ``|c_j|``
    measure how much each pole actually contributes to the port
    response -- the quantity "dominant poles" is about.  Eigenvalues
    with negligible ``|lambda|`` (poles at infinity) are dropped.

    Dense ``O(n^3)``: intended for full systems up to a few thousand
    states and for all reduced models.  A system without the selected
    output or input is refused in one line (``ValueError``).
    """
    check_residue_port(system, (output_index, input_index))
    eigenvalues, coefficients = _eigen_residues(system, output_index, input_index)
    finite = finite_pole_mask(eigenvalues)
    return -1.0 / eigenvalues[finite], coefficients[finite]


def dominant_poles(
    model,
    num: int,
    p: Optional[Sequence[float]] = None,
    output_index: int = 0,
    input_index: int = 0,
) -> np.ndarray:
    """The ``num`` most dominant poles of any supported model object.

    Dominance = smallest ``|s|`` (largest time constant) among the
    poles that actually appear in the selected transfer-function entry
    (residue above ``RESIDUE_FLOOR`` relative to the largest), with
    coincident poles from structural symmetry merged: the one rule of
    :func:`repro.runtime.batch.dominant_pole_rows`.  ``p`` selects the
    parameter point for parametric (full or reduced) models.

    A dense-batchable ``model`` at ``p`` runs the sweep kernel on a
    one-row stack, bit-identical to any ``Study`` pole study of it; any
    other system takes the general eigensolver of :func:`pole_residues`,
    which agrees with the dense kernel to rounding only.  A model
    without the selected output or input is refused in one line
    (``ValueError``), as a ``Study`` pole study of it is.
    """
    if p is not None and not hasattr(model, "instantiate"):
        raise TypeError(f"{model!r} is not parametric but p was given")
    check_residue_port(getattr(model, "nominal", model), (output_index, input_index))
    if p is not None and supports_batching(model):
        row = _sweep_study(
            model, (), [p], num_poles=num, port=(output_index, input_index)
        )[1][0]
    else:
        system = model if p is None else model.instantiate(p)
        eigenvalues, residues = _eigen_residues(system, output_index, input_index)
        row = dominant_pole_rows(eigenvalues[None], residues[None], num)[0]
    return row[~np.isnan(row)]


def match_poles(
    full_model,
    reduced_model,
    p: Sequence[float],
    num: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Relative errors in the ``num`` dominant poles at parameter point ``p``.

    The reduced model is given a 2x pole budget for matching so that a
    reduced pole ordering slightly different from the full model's does
    not produce spurious mismatches.

    Returns ``(errors, full_poles, matched_reduced_poles)``.
    """
    full_poles = dominant_poles(full_model, num, p)
    reduced_poles = dominant_poles(reduced_model, 2 * num, p)
    errors, matched = matched_pole_errors(full_poles, reduced_poles)
    return errors, full_poles, matched


def pole_error_grid(
    full_model,
    reduced_model,
    axis_values: Sequence[float],
    vary_indices: Tuple[int, int],
    fixed_point: Sequence[float],
    num_poles: int = 1,
) -> np.ndarray:
    """Dominant-pole error over a 2-D slice of the parameter space.

    Mirrors the right-hand plots of Figs. 5-6: vary two parameters
    (e.g. M5 and M6 widths) over ``axis_values`` (e.g. -30%..30%),
    keep the others at ``fixed_point``, and record the worst relative
    error among the ``num_poles`` most dominant poles.

    Returns an array of shape ``(len(axis_values), len(axis_values))``
    indexed ``[i, j]`` = (first varied param = axis_values[i],
    second = axis_values[j]).
    """
    axis_values = np.asarray(axis_values, dtype=float)
    i_index, j_index = vary_indices
    base = np.asarray(fixed_point, dtype=float).copy()
    grid = np.empty((axis_values.size, axis_values.size))
    for a, vi in enumerate(axis_values):
        for b, vj in enumerate(axis_values):
            point = base.copy()
            point[i_index] = vi
            point[j_index] = vj
            errors, _, _ = match_poles(full_model, reduced_model, point, num_poles)
            grid[a, b] = errors.max()
    return grid
