"""Low-rank ensemble solver over the nominal eigenbasis.

The dense sweep kernel (:func:`repro.runtime.batch._sweep_study`) pays
one full ``q x q`` eigendecomposition *per instance*.  But the paper's
whole structural premise is ``G(p) = G0 + sum_i p_i dG_i`` with
**low-rank** ``dG_i`` / ``dC_i`` -- every instance pencil is a rank-rho
perturbation of the one nominal pencil, with
``rho = sum_i rank(dG_i) + rank(dC_i)`` independent of the instance.
This module diagonalizes the nominal pencil **once** and solves the
whole ensemble through small dense corrections of size ``rho``:

Responses (Woodbury through the nominal eigenbasis)
    With ``A0 = G0^{-1} C0 = V0 diag(lambda0) V0^{-1}`` and the detected
    factors ``dG_i = Xg_i Yg_i^T``, ``dC_i = Xc_i Yc_i^T`` stacked into
    ``X = [Xg | Xc]``, ``Y = [Yg | Yc]``, the instance pencil is
    ``P_k(s) = P0(s) + X D_k(s) Y^T`` where ``D_k(s)`` is the diagonal
    of parameter weights (C-columns carry an extra factor ``s``).  The
    Sherman-Morrison-Woodbury identity then gives

    ``H_k(s) = H0(s) - A(s) D_k (I + C(s) D_k)^{-1} Bm(s)``

    where ``H0``, ``A``, ``Bm``, ``C`` are instance-*independent*
    rational grids precomputed from the nominal eigensystem -- the only
    per-(instance, frequency) work is one ``rho x rho`` solve.  The
    identity is exact: agreement with the eig kernel is limited by
    rounding only (pinned to 1e-10 relative by property tests).

Poles (low-rank update of the nominal operator)
    ``A_k = G_k^{-1} C_k = A0 + P Q_k`` with a constant ``q x rho``
    factor ``P`` and a cheap per-instance ``rho x q`` factor ``Q_k``
    (one ``Rg x Rg`` solve each), so the stacked spectra come from
    batched ``eigvals`` on corrections assembled in ``O(q^2 rho)`` --
    no per-instance ``G_k^{-1} C_k`` solve.

Routing is the planner's job (:meth:`repro.runtime.engine.Study.plan`):
:func:`lowrank_solver` detects the structure (memoized per model, with
an early-abort rank budget so densely perturbed models pay for one SVD)
and the plan compares :meth:`LowRankEnsembleSolver.sweep_flops` against
:func:`eig_sweep_flops` before switching kernels, exposing the detected
rank and the estimate on the :class:`~repro.runtime.engine.ExecutionPlan`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.lowrank import sensitivity_rank_factors
from repro.obs import metrics as obs_metrics
from repro.runtime.batch import (
    _dense,
    _dense_nominal,
    _memo_cache,
    _poles_from_eigenvalues,
    _sensitivity_stacks,
    as_sample_matrix,
    supports_batching,
)

# Detection thresholds: the correction must stay genuinely small
# (rho <= q/3 keeps the rho^3 Woodbury blocks an order below the q^3
# eigendecompositions) and the nominal eigenbasis well enough
# conditioned that the exact identities do not lose digits.
RANK_TOL = 1e-9
COND_LIMIT = 1e8

_ENSEMBLES = obs_metrics.counter("runtime.lowrank.ensembles")


def eig_sweep_flops(
    order: int,
    num_samples: int,
    num_frequencies: int,
    ports: int = 1,
    want_poles: bool = False,
) -> int:
    """Rough flop estimate of the per-instance eig sweep kernel.

    ``m (38 q^3 + 8 n_f q p)``: one real solve + one eigendecomposition
    + two complex solves per instance, then the rational grid.  Like
    :meth:`LowRankEnsembleSolver.sweep_flops` this is an
    order-of-magnitude *routing* figure, not a performance model --
    the planner only compares the two estimates against each other.
    ``want_poles`` is accepted for signature symmetry (the eig kernel's
    eigendecomposition already serves both quantities).
    """
    del want_poles  # poles ride the same per-instance eigendecomposition
    q = order
    per_instance = 38.0 * q**3
    grid = 8.0 * num_frequencies * q * max(ports, 1)
    return int(num_samples * (per_instance + grid))


class LowRankEnsembleSolver:
    """Ensemble sweep/pole evaluation via nominal-eigenbasis corrections.

    Built by :func:`lowrank_solver` after detection succeeds; holds the
    nominal eigensystem and the projected correction factors.  All
    per-call work is vectorized over the ``(instance, frequency)`` grid
    and every instance row is computed independently, so chunked
    evaluation is bit-identical to one-shot evaluation (the chunk
    loop's determinism contract).
    """

    def __init__(self, model, g_factors, c_factors):
        self._model = model
        g0, c0 = _dense_nominal(model)
        b = _dense(model.nominal.B).astype(float)
        l_mat = _dense(model.nominal.L).astype(float)
        q = g0.shape[0]

        def _stack(factors):
            xs = [x for x, _ in factors]
            ys = [y for _, y in factors]
            pcol = np.concatenate(
                [np.full(x.shape[1], i, dtype=np.intp) for i, x in enumerate(xs)]
            ) if xs else np.zeros(0, dtype=np.intp)
            x = np.hstack(xs) if xs else np.zeros((q, 0))
            y = np.hstack(ys) if ys else np.zeros((q, 0))
            return x, y, pcol

        xg, yg, self._pcol_g = _stack(g_factors)
        xc, yc, self._pcol_c = _stack(c_factors)
        self._rank_g = xg.shape[1]
        self._rank_c = xc.shape[1]
        self.rank = self._rank_g + self._rank_c
        self.order = q
        self.num_ports = l_mat.shape[1] * b.shape[1]

        a0 = np.linalg.solve(g0, c0)
        lam0, v0 = np.linalg.eig(a0)
        self.cond_v0 = float(np.linalg.cond(v0))
        self._lam0 = lam0

        # Response precompute: everything instance-independent of the
        # Woodbury identity, expressed in the nominal eigenbasis.
        # X/Y column order is [G-columns | C-columns]; C-columns carry
        # the extra factor s in the diagonal D_k(s).
        x = np.hstack([xg, xc])
        y = np.hstack([yg, yc])
        self._pcol = np.concatenate([self._pcol_g, self._pcol_c])
        self._is_c = np.concatenate(
            [np.zeros(self._rank_g, bool), np.ones(self._rank_c, bool)]
        )
        self._eye = np.eye(self.rank)
        u_all = np.linalg.solve(g0, x) if x.shape[1] else np.zeros((q, 0))
        g_inv_b = np.linalg.solve(g0, b)
        self._lt_v = l_mat.T @ v0
        self._w_b = np.linalg.solve(v0, g_inv_b.astype(complex))
        self._w_x = np.linalg.solve(v0, u_all.astype(complex))
        self._yt_v = y.T @ v0

        # Pole precompute: A_k = A0 + [Uc | Ug] Q_k with Uc/Ug the
        # G0-preconditioned factor columns.
        self._a0 = a0
        self._ug = u_all[:, : self._rank_g]
        self._uc = u_all[:, self._rank_g:]
        self._yg_t = yg.T
        self._yc_t = yc.T
        self._s_gg = yg.T @ self._ug
        self._yg_a0 = yg.T @ a0
        self._yg_uc = yg.T @ self._uc
        self._p = np.hstack([self._uc, self._ug])

    # -- responses -----------------------------------------------------

    def responses(self, samples, frequencies: Sequence[float]) -> np.ndarray:
        """``H(j 2 pi f, p_k)`` over the whole grid, shape ``(m, n_f, o, i)``.

        Exact Woodbury evaluation: one batched ``rho x rho`` solve per
        (instance, frequency) pair replaces the per-instance ``q x q``
        eigendecomposition of the eig kernel.
        """
        matrix = as_sample_matrix(self._model, samples)
        freqs = np.asarray(frequencies, dtype=float)
        rho = self.rank
        s = 2j * np.pi * freqs
        d = 1.0 / (1.0 + s[:, None] * self._lam0[None, :])  # (n_f, q)
        ltv_d = self._lt_v[None, :, :] * d[:, None, :]
        h0 = ltv_d @ self._w_b  # (n_f, o, i)
        if rho == 0 or matrix.shape[0] == 0:
            return np.broadcast_to(
                h0[None], (matrix.shape[0],) + h0.shape
            ).copy()
        a = ltv_d @ self._w_x  # (n_f, o, rho)
        ytv_d = self._yt_v[None, :, :] * d[:, None, :]
        bm = ytv_d @ self._w_b  # (n_f, rho, i)
        cm = ytv_d @ self._w_x  # (n_f, rho, rho)
        weights = matrix[:, self._pcol]  # (m, rho)
        sfac = np.where(self._is_c[None, :], s[:, None], 1.0 + 0j)  # (n_f, rho)
        dkj = weights[:, None, :] * sfac[None, :, :]  # (m, n_f, rho)
        # K = I + C(s) D_k; D_k scales the columns of C.  The identity
        # is added by broadcast (the multiply's output layout is not
        # guaranteed contiguous, so a strided-diagonal view would
        # silently write into a reshape copy).
        k = cm[None, :, :, :] * dkj[:, :, None, :]
        k += self._eye
        t = np.linalg.solve(k, bm)  # broadcast -> (m, n_f, rho, i)
        return h0[None] - np.matmul(a[None], dkj[..., None] * t)

    # -- poles ---------------------------------------------------------

    def instance_operators(self, samples) -> np.ndarray:
        """Stacked ``A_k = G_k^{-1} C_k`` assembled as low-rank updates.

        ``A_k = A0 + P Q_k`` with the constant ``q x rho`` factor ``P``
        and a per-instance ``rho x q`` factor ``Q_k`` costing one
        ``Rg x Rg`` solve -- no per-instance ``q x q`` solve.
        """
        matrix = as_sample_matrix(self._model, samples)
        num_samples = matrix.shape[0]
        q = self.order
        u_g = matrix[:, self._pcol_g]  # (m, Rg)
        u_c = matrix[:, self._pcol_c]  # (m, Rc)
        top = u_c[:, :, None] * self._yc_t[None, :, :]  # Dc_k Yc^T
        if self._rank_g:
            mid = self._yg_a0[None] + (
                (self._yg_uc[None] * u_c[:, None, :]) @ self._yc_t
                if self._rank_c
                else 0.0
            )
            gate = np.eye(self._rank_g)[None] + u_g[:, :, None] * self._s_gg[None]
            bottom = -np.linalg.solve(gate, u_g[:, :, None] * mid)
            q_k = np.concatenate([top, bottom], axis=1)
        else:
            q_k = top
        if q_k.shape[1] == 0:
            return np.broadcast_to(self._a0[None], (num_samples, q, q)).copy()
        return self._a0[None] + np.matmul(self._p, q_k)

    def instance_eigenvalues(self, samples) -> np.ndarray:
        """Stacked pencil eigenvalues ``lambda(A_k)``, shape ``(m, q)``."""
        return np.linalg.eigvals(self.instance_operators(samples))

    # -- the combined sweep kernel -------------------------------------

    def sweep(
        self,
        samples,
        frequencies: Sequence[float],
        num_poles: Optional[int] = 5,
        want_poles: bool = True,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Responses and (optionally) dominant poles of the ensemble.

        Drop-in counterpart of the eig sweep kernel
        (:func:`repro.runtime.batch._sweep_study`): same signature
        convention, same shapes, same dominance ordering, agreement to
        rounding.  ``want_poles=False`` skips the spectral pass
        entirely -- the Woodbury response path never needs eigenvalues
        of the instances, which is where the largest speedups live.
        """
        _ENSEMBLES.inc()
        responses = self.responses(samples, frequencies)
        if not want_poles:
            return responses, None
        eigenvalues = self.instance_eigenvalues(samples)
        return responses, _poles_from_eigenvalues(eigenvalues, num_poles)

    def sweep_flops(
        self,
        num_samples: int,
        num_frequencies: int,
        want_poles: bool = False,
    ) -> int:
        """Rough flop estimate of :meth:`sweep` for planner routing.

        Counts the instance-independent rational grids, the batched
        ``rho x rho`` Woodbury solves (with a constant per-solve
        dispatch overhead -- thousands of tiny LAPACK calls are
        overhead-bound, not flop-bound), and, when poles are wanted,
        the correction assembly plus batched ``eigvals``.  Rough by
        design: only the comparison against :func:`eig_sweep_flops`
        matters, and both sides err in the same direction.
        """
        q = self.order
        rho = max(self.rank, 1)
        grid = 16.0 * num_frequencies * q * (rho + 2) * rho
        woodbury = num_samples * num_frequencies * (8.0 * rho**3 + 6.0 * rho**2 + 1500.0)
        flops = grid + woodbury
        if want_poles:
            flops += num_samples * (4.0 * q * q * rho + 15.0 * q**3)
        return int(flops)


def detect_lowrank_structure(
    model, tol: float = RANK_TOL, max_rank: Optional[int] = None
):
    """Per-parameter low-rank factors of a dense parametric model.

    Returns ``(g_factors, c_factors)`` -- one ``(X, Y)`` pair per
    parameter and matrix family, from
    :func:`repro.core.lowrank.sensitivity_rank_factors` -- or ``None``
    when the model is not dense-batchable, has no parameters, or the
    accumulated rank exceeds ``max_rank`` (default ``q // 3``, the
    point where the correction stops being small).  Detection aborts at
    the first SVD that blows the budget, so densely perturbed models
    pay almost nothing.
    """
    if not supports_batching(model):
        return None
    q = model.nominal.order
    if max_rank is None:
        max_rank = max(1, q // 3)
    dg, dc = _sensitivity_stacks(model)
    if dg.shape[0] == 0:
        return None
    factors = sensitivity_rank_factors(
        list(dg) + list(dc), tol=tol, max_total_rank=max_rank
    )
    if factors is None:
        return None
    num_parameters = dg.shape[0]
    return factors[:num_parameters], factors[num_parameters:]


def lowrank_solver(model, tol: float = RANK_TOL) -> Optional[LowRankEnsembleSolver]:
    """The model's :class:`LowRankEnsembleSolver`, or ``None``.

    Memoized on the model object (same per-model cache as the dense
    kernel stacks, so repeated planning costs a dict hit).  ``None``
    when detection fails or the nominal eigenbasis is too ill
    conditioned (``cond(V0) > 1e8``) for the exact identities to hold
    digits -- the planner then keeps the eig kernel, whose own
    probe-frequency guard covers per-instance conditioning.
    """
    cache = _memo_cache(model)
    if cache is not None and "lowrank_solver" in cache:
        return cache["lowrank_solver"]
    solver = None
    detected = detect_lowrank_structure(model, tol=tol)
    if detected is not None:
        candidate = LowRankEnsembleSolver(model, *detected)
        if np.isfinite(candidate.cond_v0) and candidate.cond_v0 <= COND_LIMIT:
            solver = candidate
    if cache is not None:
        cache["lowrank_solver"] = solver
    return solver
