"""Direct parameter sensitivities of the transfer function (extension).

For the first-order parametric family ``G(p) = G0 + sum p_i G_i``,
``C(p) = C0 + sum p_i C_i`` the exact derivative of the transfer
function with respect to a parameter is available in closed form:

``dH/dp_i (s, p) = -L^T K(s,p)^{-1} (G_i + s C_i) K(s,p)^{-1} B``,
``K(s, p) = G(p) + s C(p)``,

at the cost of one extra (block) solve per parameter against the same
factorization used for ``H`` itself.  This gives an independent oracle
for everything the MOR pipeline produces:

- it must agree with finite differences of ``H`` (internal consistency);
- at ``(s, p) = (0, 0)`` it must equal the first-order multi-parameter
  moments of :mod:`repro.core.moments` (cross-validation of the moment
  recurrence);
- evaluated on a reduced parametric model it measures how well the
  model tracks not just the response but the response's *slope* in the
  parameters -- a stricter fidelity criterion used by the tests.

Dense reduced models evaluate through the batched runtime kernel
:func:`~repro.runtime.batch.batch_transfer_sensitivities` (a batch of
one); every other system through one factored solve at the point.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.runtime.batch import batch_transfer_sensitivities, supports_batching


def _scalar_sensitivities(
    parametric_model,
    s: complex,
    point: np.ndarray,
) -> np.ndarray:
    """Exact per-sample ``dH/dp`` through one factorization at ``point``.

    The reference implementation the batched kernel is pinned to: one
    (sparse LU or dense) factorization of the pencil, one forward and
    one adjoint block solve, then one contraction per parameter.  Used
    for every system that is not a dense reduced model.
    """
    system = parametric_model.instantiate(point)
    s = complex(s)

    g = system.G
    c = system.C
    b = system.B.toarray() if hasattr(system.B, "toarray") else np.asarray(system.B)
    l_mat = system.L.toarray() if hasattr(system.L, "toarray") else np.asarray(system.L)

    if sp.issparse(g):
        pencil = (g + s * c).tocsc().astype(np.complex128)
        lu = spla.splu(pencil)
        x = lu.solve(b.astype(complex))
        # Adjoint solves for the output side: K^T y = L.
        y = lu.solve(l_mat.astype(complex), trans="T")
    else:
        pencil = (np.asarray(g) + s * np.asarray(c)).astype(np.complex128)
        x = np.linalg.solve(pencil, b.astype(complex))
        y = np.linalg.solve(pencil.T, l_mat.astype(complex))

    num_parameters = parametric_model.num_parameters
    sensitivities = np.empty((num_parameters, l_mat.shape[1], b.shape[1]), dtype=complex)
    for i in range(num_parameters):
        gi = parametric_model.dG[i]
        ci = parametric_model.dC[i]
        k_i = gi + s * ci
        sensitivities[i] = -(y.T @ np.asarray(k_i @ x))
    return sensitivities


def transfer_sensitivities(
    parametric_model,
    s: complex,
    p: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Exact ``dH/dp_i`` for all parameters at ``(s, p)``.

    ``parametric_model`` is a full
    :class:`~repro.circuits.variational.ParametricSystem` or a reduced
    :class:`~repro.core.model.ParametricReducedModel`; both expose the
    sensitivity matrices ``dG``/``dC`` this needs.  Dense models run
    :func:`~repro.runtime.batch.batch_transfer_sensitivities` as a
    batch of one; anything else takes the scalar factored solve.

    Returns an array of shape ``(n_p, m_out, m_in)``.
    """
    num_parameters = parametric_model.num_parameters
    point = (
        np.zeros(num_parameters) if p is None else np.asarray(p, dtype=float)
    )
    if supports_batching(parametric_model):
        return batch_transfer_sensitivities(parametric_model, s, point[None, :])[0]
    return _scalar_sensitivities(parametric_model, s, point)


def sensitivity_error(
    full_parametric,
    reduced_model,
    s: complex,
    p: Optional[Sequence[float]] = None,
) -> float:
    """Worst relative mismatch of ``dH/dp_i`` between full and reduced.

    A stricter fidelity metric than response error: a model can match
    ``H`` pointwise while getting the parameter slopes wrong, which
    would poison any downstream sensitivity/statistical analysis.
    """
    full = transfer_sensitivities(full_parametric, s, p)
    reduced = transfer_sensitivities(reduced_model, s, p)
    if full.shape != reduced.shape:
        raise ValueError(
            f"sensitivity shapes differ: {full.shape} vs {reduced.shape}"
        )
    worst = 0.0
    for i in range(full.shape[0]):
        scale = max(np.abs(full[i]).max(), 1e-300)
        worst = max(worst, float(np.abs(full[i] - reduced[i]).max() / scale))
    return worst
