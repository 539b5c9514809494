"""Low-rank approximation based multi-parameter moment matching.

This is the paper's contribution (Section 4, Algorithm 1 / Fig. 2).

The key idea: the multi-parameter moments (paper eq. (9)) interleave
the frequency operator ``A0 = -G0^{-1} C0`` with the *generalized
sensitivity matrices* ``S_gi = -G0^{-1} G_i`` and ``S_ci = -G0^{-1} C_i``.
Approximating each generalized sensitivity by a truncated SVD,

``S ~= U_hat Sigma V_hat^T``  (rank ``k_svd``, usually 1),

collapses every operator product through ``S`` onto ``colspan(U_hat)``:
``... S x = U_hat (Sigma V_hat^T x)``.  The Krylov subspaces of the
frequency variable therefore *decouple* from those of the parameters
-- no cross-term blow-up -- and the projection is a union of small
independent pieces (Algorithm 1, steps 2-3):

- ``V_0      = Kr(A0, R0, k+1)``                    (nominal/frequency)
- ``V_{Gi,1} = Kr(A0, U_hat_Gi, k+1)``              (parameter, primal)
- ``V_{Gi,2} = Kr(A0^T, V_tilde_Gi, k)``            (parameter, dual)
- ``V_{Ci,1} = Kr(A0, U_hat_Ci, k)``                (cross, primal)
- ``V_{Ci,2} = Kr(A0^T, V_tilde_Ci, k-1)``          (cross, dual)

with ``V_tilde = -G0^{-T} V_hat`` and ``R0 = G0^{-1} B``.  The dual
(``A0^T``) subspaces are optional: dropping them and appending
``V_hat`` directly halves the model size at some accuracy cost (the
"simplified" variant discussed below Theorem 1); keeping them improves
accuracy because step 4 reduces the *original* -- not low-rank --
sensitivity matrices, preserving passivity.

Cost: ONE sparse LU factorization of ``G0`` serves every solve,
including the ``A0^T`` products (transpose solves reuse the factors)
and the matrix-implicit SVDs (Section 4.2).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.circuits.variational import ParametricSystem
from repro.core.model import ParametricReducedModel
from repro.linalg.operators import ImplicitProduct
from repro.linalg.orth import DEFAULT_DEFLATION_TOL, block_krylov, stack_orthonormalize
from repro.linalg.sparselu import SparseLU
from repro.linalg.subspace_svd import truncated_svd


class LowRankReducer:
    """Algorithm 1 of the paper.

    Parameters
    ----------
    num_moments:
        Moment-matching order ``k``: the reduced model matches all
        multi-parameter moments of the (low-rank-approximated)
        parametric system up to total order ``k`` (Theorem 1).
    rank:
        SVD rank ``k_svd`` for the generalized sensitivity matrices.
        The paper observes rank 1 is usually sufficient.
    svd_method:
        ``"lanczos"`` (default), ``"subspace"`` or ``"dense"`` -- the
        truncated-SVD driver (:func:`repro.linalg.subspace_svd.truncated_svd`).
    include_dual_subspaces:
        Keep the ``A0^T`` Krylov subspaces (full Algorithm 1).  With
        ``False`` the simplified variant is built instead: duals are
        dropped and ``V_hat`` blocks are appended, roughly halving the
        model size (paper, discussion after Theorem 1).
    approximate_sensitivities:
        If ``True``, step 4 reduces the *low-rank approximated*
        sensitivities instead of the originals.  The paper reduces the
        originals (better accuracy, passivity of the true parametric
        model); the approximated mode exists to verify Theorem 1
        exactly in the tests.
    raw_sensitivity_svd:
        Ablation switch: apply the SVD to the raw sensitivities
        ``G_i``/``C_i`` instead of the generalized ones ``G0^{-1} G_i``.
        The paper reports this "will incur a larger error ... due to
        their [the generalized ones'] stronger connection to moments".
    expansion_point:
        Real frequency expansion point ``s0`` (default 0, the paper's
        setting).  With ``s0 != 0`` the algorithm runs on the shifted
        system of :mod:`repro.core.expansion` and matches moments of
        ``H(s0 + sigma, p)`` -- useful for wide-band targets and for
        circuits whose ``G0`` is singular.
    tol:
        Deflation tolerance for all orthonormalizations.
    """

    def __init__(
        self,
        num_moments: int,
        rank: int = 1,
        svd_method: str = "lanczos",
        include_dual_subspaces: bool = True,
        approximate_sensitivities: bool = False,
        raw_sensitivity_svd: bool = False,
        expansion_point: float = 0.0,
        tol: float = DEFAULT_DEFLATION_TOL,
    ):
        if num_moments < 1:
            raise ValueError("num_moments must be >= 1")
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if expansion_point != 0.0 and approximate_sensitivities:
            raise ValueError(
                "approximate_sensitivities (the Theorem 1 verification mode) "
                "is defined at the s0 = 0 expansion only"
            )
        self.num_moments = num_moments
        self.rank = rank
        self.svd_method = svd_method
        self.include_dual_subspaces = include_dual_subspaces
        self.approximate_sensitivities = approximate_sensitivities
        self.raw_sensitivity_svd = raw_sensitivity_svd
        self.expansion_point = float(expansion_point)
        self.tol = tol

    # -- step 1: low-rank approximation of generalized sensitivities ----

    def _sensitivity_factors(
        self, lu: SparseLU, matrix
    ) -> Dict[str, np.ndarray]:
        """Truncated SVD of ``-G0^{-1} M`` (or of raw ``M`` for the ablation).

        Returns ``U`` (scaled by the singular values), the raw left
        vectors ``U_hat`` and right vectors ``V_hat``.
        """
        if self.raw_sensitivity_svd:
            operator = matrix
        else:
            operator = ImplicitProduct(lu, matrix, sign=-1.0)
        u_hat, sigma, v_hat = truncated_svd(operator, self.rank, method=self.svd_method)
        return {"U": u_hat * sigma, "U_hat": u_hat, "V_hat": v_hat, "sigma": sigma}

    # -- steps 2-3: Krylov subspaces and their union ---------------------

    def projection(
        self,
        parametric: ParametricSystem,
        lu: Optional[SparseLU] = None,
        return_factors: bool = False,
    ):
        """Compute the Algorithm 1 projection matrix ``V``.

        One factorization of ``G0`` (or ``G0 + s0 C0`` for a shifted
        expansion; reused if ``lu`` is supplied); everything else is
        triangular solves, sparse multiplies and small dense
        orthonormalizations.
        """
        if self.expansion_point != 0.0:
            from repro.core.expansion import shifted_parametric_system

            parametric = shifted_parametric_system(parametric, self.expansion_point)
        nominal = parametric.nominal
        if lu is None:
            lu = SparseLU(nominal.G)
        k = self.num_moments
        c0 = nominal.C
        c0_t = c0.T

        def apply_a0(block: np.ndarray) -> np.ndarray:
            return -lu.solve(np.asarray(c0 @ block))

        def apply_a0_t(block: np.ndarray) -> np.ndarray:
            return -np.asarray(c0_t @ lu.solve_transpose(block))

        b_dense = (
            nominal.B.toarray() if hasattr(nominal.B, "toarray") else np.asarray(nominal.B)
        )
        start = lu.solve(b_dense)

        # Step 2.1: the nominal frequency subspace, powers 0..k.
        blocks: List[np.ndarray] = [block_krylov(apply_a0, start, k + 1, tol=self.tol)]

        factors: List[Dict[str, Dict[str, np.ndarray]]] = []
        for gi, ci in zip(parametric.dG, parametric.dC):
            per_parameter = {
                "G": self._sensitivity_factors(lu, gi),
                "C": self._sensitivity_factors(lu, ci),
            }
            factors.append(per_parameter)

            # Step 2.2, primal subspaces: Kr(A0, U_hat, .).
            # G_i couples through p_i (one order), C_i through s*p_i
            # (two orders): block counts k+1 and k as in Fig. 2.
            g_u = per_parameter["G"]["U_hat"]
            c_u = per_parameter["C"]["U_hat"]
            if g_u.shape[1]:
                blocks.append(block_krylov(apply_a0, g_u, k + 1, tol=self.tol))
            if c_u.shape[1] and k >= 1:
                blocks.append(block_krylov(apply_a0, c_u, k, tol=self.tol))

            if self.include_dual_subspaces:
                # Step 2.2, dual subspaces: V_tilde = -G0^{-T} V_hat,
                # then Kr(A0^T, V_tilde, .) with counts k and k-1.
                g_v = per_parameter["G"]["V_hat"]
                c_v = per_parameter["C"]["V_hat"]
                if g_v.shape[1] and k >= 1:
                    g_v_tilde = -lu.solve_transpose(g_v)
                    blocks.append(block_krylov(apply_a0_t, g_v_tilde, k, tol=self.tol))
                if c_v.shape[1] and k >= 2:
                    c_v_tilde = -lu.solve_transpose(c_v)
                    blocks.append(block_krylov(apply_a0_t, c_v_tilde, k - 1, tol=self.tol))
            else:
                # Simplified variant: append the right singular vectors
                # directly (keeps Theorem 1, halves the model size).
                if per_parameter["G"]["V_hat"].shape[1]:
                    blocks.append(per_parameter["G"]["V_hat"])
                if per_parameter["C"]["V_hat"].shape[1]:
                    blocks.append(per_parameter["C"]["V_hat"])

        # Step 3: orthonormal basis of the union.
        projection = stack_orthonormalize(blocks, tol=self.tol)
        if return_factors:
            return projection, factors
        return projection

    # -- step 4: congruence transforms -----------------------------------

    def reduce(self, parametric: ParametricSystem) -> ParametricReducedModel:
        """Build the parametric reduced model (Algorithm 1, step 4).

        The congruence transforms are applied to the original
        sensitivity matrices (not their low-rank approximations), so
        passivity of the original parametric model carries over.
        """
        if not self.approximate_sensitivities:
            return parametric.reduce(self.projection(parametric))
        projection, factors = self.projection(parametric, return_factors=True)
        approximated = self.approximated_system(parametric, factors)
        model = approximated.reduce(projection)
        return model

    def approximated_system(
        self,
        parametric: ParametricSystem,
        factors: Optional[List[Dict[str, Dict[str, np.ndarray]]]] = None,
        lu: Optional[SparseLU] = None,
    ) -> ParametricSystem:
        """The nearby parametric system built from low-rank sensitivities.

        Theorem 1 is a statement about this system: with
        ``G~_i = -G0 U_hat Sigma V_hat^T`` (so that
        ``-G0^{-1} G~_i = U_hat Sigma V_hat^T``), the reduced model of
        ``{G0, C0, G~_i, C~_i, B, L}`` under the Algorithm 1 projection
        matches its multi-parameter moments up to order ``k``.
        """
        if self.raw_sensitivity_svd:
            raise ValueError(
                "approximated_system is defined for generalized-sensitivity SVDs"
            )
        nominal = parametric.nominal
        if factors is None:
            if lu is None:
                lu = SparseLU(nominal.G)
            factors = [
                {
                    "G": self._sensitivity_factors(lu, gi),
                    "C": self._sensitivity_factors(lu, ci),
                }
                for gi, ci in zip(parametric.dG, parametric.dC)
            ]
        g0 = nominal.G.toarray() if hasattr(nominal.G, "toarray") else np.asarray(nominal.G)
        dg_approx, dc_approx = [], []
        for per_parameter in factors:
            g_f = per_parameter["G"]
            c_f = per_parameter["C"]
            dg_approx.append(-(g0 @ g_f["U"]) @ g_f["V_hat"].T)
            dc_approx.append(-(g0 @ c_f["U"]) @ c_f["V_hat"].T)
        return ParametricSystem(
            nominal,
            dg_approx,
            dc_approx,
            parameter_names=list(parametric.parameter_names),
        )
