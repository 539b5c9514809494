"""Batched evaluation kernels for parametric macromodels.

The reason a reduced model exists at all is amortized reuse: one
reduction, thousands of evaluations (Monte Carlo instances, corner
sweeps, grid studies).  Evaluating those instances one at a time from
Python wastes that amortization on interpreter and dispatch overhead --
every sample re-enters :meth:`ParametricReducedModel.instantiate`,
rebuilds a :class:`DescriptorSystem`, and performs a lone ``q x q``
solve or eigendecomposition.

This module evaluates a whole ``(m, n_p)`` sample matrix at once:

- :func:`batch_instantiate` -- stacked ``G(p_k) = G~0 + sum_i p_ki G~_i``
  over all samples, either bit-identical to the scalar path (``exact``)
  or as a single einsum contraction;
- :func:`batch_transfer` / :func:`batch_frequency_response` -- stacked
  complex solves ``H(s, p_k)`` via LAPACK's batched ``gesv`` dispatch;
- :func:`dominant_pole_rows` -- the one dominant-pole definition,
  vectorized over rows of eigen-factors;
- :func:`batch_transfer_sensitivities` -- stacked exact ``dH/dp_i``.

``exact=True`` (the default) reproduces the per-sample accumulation
``g += p_i * G_i`` (skipping zero coefficients) bit-for-bit, which is
what lets :func:`repro.analysis.montecarlo.monte_carlo_pole_study`
adopt these kernels without perturbing any published result.

The eig sweep kernel (:func:`_sweep_study`, behind the ``Study`` dense
sweep and pole routes and ``batch_frequency_response(method="eig")``)
is guarded -- every instance is probe-checked against an exact solve
and recomputed by solves when its eigenvector basis fails -- and runs
its rows as contiguous blocks on the process-wide row pool of
:mod:`repro.runtime.executor`.  Every step is per instance, so the
split never changes a row's arithmetic; the one batch-size-dependent
choice, the response contraction (:func:`grid_contraction`), is made
once per study.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import get_lapack_funcs

from repro.obs import metrics as obs_metrics
from repro.runtime.executor import RowBlocks


def supports_batching(model) -> bool:
    """True when ``model`` exposes the dense parametric form the kernels need.

    Requires a ``nominal`` descriptor system plus ``dG``/``dC``
    sensitivity lists (i.e. a
    :class:`~repro.core.model.ParametricReducedModel` or any object
    with the same shape contract) with dense, stackable matrices.
    """
    if not all(hasattr(model, name) for name in ("nominal", "dG", "dC", "num_parameters")):
        return False
    matrices = [model.nominal.G, model.nominal.C, *model.dG, *model.dC]
    return not any(hasattr(matrix, "tocsc") for matrix in matrices)


def as_sample_matrix(model, samples) -> np.ndarray:
    """Validate ``samples`` into an ``(m, n_p)`` float matrix for ``model``."""
    matrix = np.atleast_2d(np.asarray(samples, dtype=float))
    if matrix.ndim != 2 or matrix.shape[1] != model.num_parameters:
        raise ValueError(
            f"sample matrix has shape {np.asarray(samples).shape}, expected "
            f"(m, {model.num_parameters})"
        )
    return matrix


# Historical module global, now a live view over the process-wide
# metrics registry (``repro.obs``): same read/reset API, one shared
# counter object.
_DENSIFICATIONS = obs_metrics.counter("runtime.batch.densifications")


def densification_count() -> int:
    """How many times the kernels densified a model's matrices.

    Diagnostic counter (the ``runtime.batch.densifications`` counter of
    the :mod:`repro.obs` metrics registry) behind the memoization of
    :func:`_dense_nominal` / :func:`_sensitivity_stacks`: a model
    evaluated through any number of batched calls should contribute at
    most two densification passes (one for the nominal pair, one for
    the sensitivity stacks).
    """
    return _DENSIFICATIONS.value


def reset_densification_count() -> int:
    """Reset the densification counter and return the old value."""
    return _DENSIFICATIONS.reset()


def _memo_cache(model) -> Optional[dict]:
    """The kernels' per-model memo dict, created on first use.

    Models that implement the ``dense_nominal`` / ``sensitivity_stacks``
    protocol (e.g. :class:`~repro.core.model.ParametricReducedModel`)
    carry their own cache and never reach this; for everything else the
    stacks are memoized on the model object, mirroring the PR-1
    nominal-matrix cache.  Returns ``None`` for objects that reject new
    attributes (``__slots__``), which then densify per call.
    """
    cache = getattr(model, "_batch_dense_cache", None)
    if cache is None:
        cache = {}
        try:
            model._batch_dense_cache = cache
        except AttributeError:
            return None
    return cache


def _dense_nominal(model) -> Tuple[np.ndarray, np.ndarray]:
    if hasattr(model, "dense_nominal"):
        return model.dense_nominal()
    cache = _memo_cache(model)
    if cache is not None and "nominal" in cache:
        return cache["nominal"]
    g0 = model.nominal.G
    c0 = model.nominal.C
    g0 = np.asarray(g0.toarray() if hasattr(g0, "toarray") else g0, dtype=float)
    c0 = np.asarray(c0.toarray() if hasattr(c0, "toarray") else c0, dtype=float)
    _DENSIFICATIONS.inc()
    if cache is not None:
        cache["nominal"] = (g0, c0)
    return g0, c0


def _sensitivity_stacks(model) -> Tuple[np.ndarray, np.ndarray]:
    if hasattr(model, "sensitivity_stacks"):
        return model.sensitivity_stacks()
    cache = _memo_cache(model)
    if cache is not None and "stacks" in cache:
        return cache["stacks"]
    q = model.nominal.order
    if not model.num_parameters:
        stacks = np.zeros((0, q, q)), np.zeros((0, q, q))
    else:
        dg = np.stack([_dense(gi).astype(float, copy=False) for gi in model.dG])
        dc = np.stack([_dense(ci).astype(float, copy=False) for ci in model.dC])
        stacks = dg, dc
        _DENSIFICATIONS.inc()
    if cache is not None:
        cache["stacks"] = stacks
    return stacks


def _dense(matrix) -> np.ndarray:
    return np.asarray(matrix.toarray() if hasattr(matrix, "toarray") else matrix)


def batch_instantiate(
    model, samples, exact: bool = True
) -> Tuple[np.ndarray, np.ndarray]:
    """Stacked system matrices ``(G, C)`` over a sample matrix.

    Parameters
    ----------
    model:
        A dense parametric model (reduced macromodel or compatible).
    samples:
        ``(m, n_p)`` parameter sample matrix (one row per instance).
    exact:
        With ``exact`` (default) the accumulation order and the
        skip-zero-coefficient rule of
        :meth:`~repro.core.model.ParametricReducedModel.instantiate`
        are reproduced so each slice is *bit-identical* to the scalar
        path.  With ``exact=False`` the whole update is one einsum
        contraction ``G = G0 + P . dG`` -- fastest, equal to the scalar
        path only to rounding (~1e-16 relative).

    Returns
    -------
    (G, C):
        Arrays of shape ``(m, q, q)``; slice ``k`` is the system at
        sample ``k``.
    """
    matrix = as_sample_matrix(model, samples)
    g0, c0 = _dense_nominal(model)
    num_samples = matrix.shape[0]
    if not exact:
        dg, dc = _sensitivity_stacks(model)
        g = g0[None] + np.einsum("kp,pij->kij", matrix, dg)
        c = c0[None] + np.einsum("kp,pij->kij", matrix, dc)
        return g, c
    g = np.broadcast_to(g0, (num_samples,) + g0.shape).copy()
    c = np.broadcast_to(c0, (num_samples,) + c0.shape).copy()
    dg, dc = _sensitivity_stacks(model)
    for i in range(model.num_parameters):
        weights = matrix[:, i]
        # Matches `if value != 0.0` in the scalar path: rows with a zero
        # coefficient are left untouched rather than having +0.0 added.
        nonzero = (weights != 0.0)[:, None, None]
        np.add(g, weights[:, None, None] * dg[i], out=g, where=nonzero)
        np.add(c, weights[:, None, None] * dc[i], out=c, where=nonzero)
    return g, c


def _transfer_from_stacks(model, g: np.ndarray, c: np.ndarray, s: complex) -> np.ndarray:
    s = complex(s)
    pencil = (g + s * c).astype(np.complex128)
    b = _dense(model.nominal.B).astype(np.complex128)
    l_mat = _dense(model.nominal.L)
    rhs = np.broadcast_to(b, (pencil.shape[0],) + b.shape)
    x = np.linalg.solve(pencil, rhs)
    return l_mat.T @ x


def batch_transfer(model, s: complex, samples) -> np.ndarray:
    """Stacked transfer matrices ``H(s, p_k)``.

    One batched LAPACK solve replaces ``m`` instantiate-plus-solve
    round trips.  Returns an array of shape ``(m, m_out, m_in)``.
    """
    g, c = batch_instantiate(model, samples)
    return _transfer_from_stacks(model, g, c, s)


# A model's pencils count as symmetric when every matrix of its affine
# family is symmetric to within _SYMMETRY_TOL * q * eps of its largest
# entry.  Congruence-reduced RC models measure 0.03-0.25 q*eps; RLC and
# voltage-source MNA stamps are skew in their branch rows, orders of
# magnitude above.
_SYMMETRY_TOL = 4


def _cholesky_inverses(g: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-instance ``R_k^{-1}`` with ``G_k = R_k R_k^T``, plus a mask.

    ``definite[k]`` is ``False`` where LAPACK ``potrf`` meets a
    non-positive (or NaN) pivot, i.e. ``G_k`` is not numerically
    positive definite; those rows of the inverse stack stay zero.  Every
    instance is factored on its own, so the mask and every row are the
    same however the ensemble is chunked.
    """
    potrf, trtri = get_lapack_funcs(("potrf", "trtri"), dtype=g.dtype)
    r_inv = np.zeros_like(g)
    definite = np.zeros(g.shape[0], dtype=bool)
    for k in range(g.shape[0]):
        r, info = potrf(g[k], lower=1)
        if info == 0:
            r_inv[k] = trtri(r, lower=1)[0]
            definite[k] = True
    return r_inv, definite


def symmetric_definite(model) -> bool:
    """True when ``model``'s instance pencils are symmetric-definite.

    Paper Algorithm 1 reduces by congruence, ``G~ = V^T G V`` and
    likewise for ``C`` and every sensitivity, so an RC net's symmetric
    ``G``/``C`` stay symmetric and a positive definite ``G`` stays
    positive definite: every instance pencil ``G_k + s C_k`` then has a
    real spectrum and a ``G_k``-orthogonal eigenbasis.  The model
    qualifies when ``G~0``, ``C~0`` and every ``G~_i``/``C~_i`` are
    symmetric to ``_SYMMETRY_TOL * q * eps`` of their largest entry and
    ``G~0`` is positive definite.  Memoized on the model (one check per
    model); the planner reports the outcome as the ``/symmetric``
    qualifier of the eig kernel label.
    """
    cache = _memo_cache(model)
    if cache is not None and "symmetric_definite" in cache:
        return cache["symmetric_definite"]
    g0, c0 = _dense_nominal(model)
    dg, dc = _sensitivity_stacks(model)
    tol = _SYMMETRY_TOL * g0.shape[0] * np.finfo(float).eps
    qualifies = all(
        np.abs(a - a.T).max(initial=0.0) <= tol * np.abs(a).max(initial=0.0)
        for a in (g0, c0, *dg, *dc)
    ) and bool(_cholesky_inverses(g0[None])[1][0])
    if cache is not None:
        cache["symmetric_definite"] = qualifies
    return qualifies


def _symmetric_eig_factors(model, r_inv: np.ndarray, c: np.ndarray):
    """Spectral factors of symmetric-definite pencils, in real arithmetic.

    With ``G_k = R_k R_k^T`` and ``eigh(R_k^{-1} C_k R_k^{-T}) =
    U_k diag(mu_k) U_k^T``, the basis ``X_k = R_k^{-T} U_k`` satisfies
    ``X_k^T G_k X_k = I`` and ``X_k^T C_k X_k = diag(mu_k)``, so
    ``X_k^{-1} = X_k^T G_k`` and the rational factors are
    ``(mu_k, L^T X_k, X_k^T B)`` -- no nonsymmetric ``eig``, no complex
    solve, no solve against the eigenvector matrix.  Cast to complex
    once at the end, so the response contraction never re-casts.
    """
    b = _dense(model.nominal.B).astype(float, copy=False)
    l_mat = _dense(model.nominal.L).astype(float, copy=False)
    r_inv_t = r_inv.transpose(0, 2, 1)
    eigenvalues, u = np.linalg.eigh(r_inv @ c @ r_inv_t)
    lt_v = (r_inv @ l_mat).transpose(0, 2, 1) @ u
    w = u.transpose(0, 2, 1) @ (r_inv @ b)
    return tuple(x.astype(complex) for x in (eigenvalues, lt_v, w))


def _eig_response_factors(model, g: np.ndarray, c: np.ndarray):
    """Per-instance spectral factors for rational transfer evaluation.

    Diagonalizing ``A_k = G_k^{-1} C_k = V_k diag(lambda_k) V_k^{-1}``
    turns every later frequency point into an ``O(q)``-per-entry
    rational sum

    ``H(s, p_k) = (L^T V_k) diag(1/(1 + s lambda_k)) (V_k^{-1} G_k^{-1} B)``

    so the ``O(q^3)`` factorization cost is paid once per instance
    instead of once per (instance, frequency) pair.  Returns
    ``(eigenvalues, L^T V, V^{-1} G^{-1} B)``.

    Two kernels, chosen by the input alone:

    - **symmetric-definite** (:func:`_symmetric_eig_factors`) for
      models that pass :func:`symmetric_definite` -- every
      congruence-reduced RC net, since ``V^T (.) V`` keeps symmetric
      ``G``/``C`` symmetric and a positive definite ``G`` positive
      definite, so the spectrum is real.  Each instance whose ``G_k``
      admits a Cholesky factorization takes the real ``potrf`` +
      ``eigh`` route; an instance whose Cholesky fails (a sample that
      drove ``G_k`` indefinite) goes through the general kernel
      instead.  The choice is per instance, never per batch, so
      chunked, resumed and work-stolen runs stay bit-identical to
      one-shot evaluation.
    - **general** (:func:`_general_eig_factors`) for everything else:
      RLC and voltage-source MNA models, whose skew branch stamps make
      the pencil nonsymmetric.
    """
    if not symmetric_definite(model):
        return _general_eig_factors(model, g, c)
    r_inv, definite = _cholesky_inverses(g)
    if definite.all():
        return _symmetric_eig_factors(model, r_inv, c)
    fast = _symmetric_eig_factors(model, r_inv[definite], c[definite])
    general = _general_eig_factors(model, g[~definite], c[~definite])
    factors = []
    for x, y in zip(fast, general):
        out = np.empty((g.shape[0],) + x.shape[1:], dtype=np.result_type(x, y))
        out[definite], out[~definite] = x, y
        factors.append(out)
    return tuple(factors)


def _general_eig_factors(model, g: np.ndarray, c: np.ndarray):
    """:func:`_eig_response_factors` for arbitrary (nonsymmetric) pencils.

    Real LU for ``G^{-1} C``, nonsymmetric ``eig``, a complex solve for
    ``G^{-1} B`` and a solve against the eigenvector matrix.  The
    reference the symmetric kernel is tested against.
    """
    b = _dense(model.nominal.B).astype(complex)
    l_mat = _dense(model.nominal.L).astype(float, copy=False)
    a = np.linalg.solve(g, c)
    eigenvalues, v = np.linalg.eig(a)
    lt_v = l_mat.T @ v
    g_inv_b = np.linalg.solve(
        g.astype(complex), np.broadcast_to(b, (g.shape[0],) + b.shape)
    )
    w = np.linalg.solve(v, g_inv_b)
    return eigenvalues, lt_v, w


# _eig_responses dispatch: the grid contraction wins when few instances
# sweep a dense frequency axis (one big GEMM per instance); the batched
# per-frequency kernel wins for wide Monte Carlo ensembles, where each
# frequency already amortizes over all instances in one matmul.  At
# q=53 on a 2-CPU x86-64 VM with one BLAS thread: 1 row x 5000 f, grid
# 3.1 ms vs per-frequency 39.9 ms; 128 rows x 100 f, per-frequency
# 7.6 ms vs grid 15.5 ms.
_GRID_MAX_SAMPLES = 16
_GRID_MIN_FREQS = 32


def grid_contraction(num_samples: int, num_frequencies: int) -> bool:
    """Whether a study of ``num_samples`` instances takes the grid path.

    The two contractions of :func:`_eig_responses` round differently,
    so the choice is made once per study, from its total instance
    count, and every chunk and row block follows it: slicing a study
    never changes which path a row takes.
    """
    return num_samples <= _GRID_MAX_SAMPLES and num_frequencies >= _GRID_MIN_FREQS


def _eig_responses(
    eigenvalues, lt_v, w, freqs: np.ndarray,
    grid: Optional[bool] = None, out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Rational-sum responses over the whole ``(m, n_freq, q)`` grid.

    Two equivalent vectorized contractions of

    ``H[k, j] = (L^T V_k) diag(1 / (1 + s_j lambda_k)) w_k``

    are available.  The grid path precomputes the frequency-independent
    residue tensor ``(L^T V_k) odot w_k`` and collapses the whole grid
    into one ``(n_f, q) @ (q, m_out m_in)`` GEMM per instance -- no
    per-frequency Python iteration; it suits small ensembles over dense
    frequency axes (corner plans, CLI sweeps).  The per-frequency path
    keeps one batched matmul per frequency, which amortizes each
    frequency over all ``m`` instances at once and is bit-identical to
    the historical loop; it suits wide Monte Carlo ensembles.  Both are
    pinned to the reference loop by a regression test (grid path to
    rounding, per-frequency path bit-for-bit).

    ``grid`` selects the path (default: :func:`grid_contraction` of
    this call's own shape); sweeps pass their study's choice.  ``out``
    is a C-contiguous ``(m, n_f, m_out, m_in)`` array to write into,
    e.g. a row block's slice of its chunk's response array.
    """
    freqs = np.asarray(freqs, dtype=float)
    num_samples, q = eigenvalues.shape
    num_outputs = lt_v.shape[1]
    num_inputs = w.shape[2]
    s = 2j * np.pi * freqs
    if grid is None:
        grid = grid_contraction(num_samples, freqs.size)
    if out is None:
        out = np.empty((num_samples, freqs.size, num_outputs, num_inputs), dtype=complex)
    if grid:
        reciprocal = 1.0 / (1.0 + s[None, :, None] * eigenvalues[:, None, :])
        residues = lt_v.transpose(0, 2, 1)[:, :, :, None] * w[:, :, None, :]
        np.matmul(
            reciprocal,
            residues.reshape(num_samples, q, num_outputs * num_inputs),
            out=out.reshape(num_samples, freqs.size, num_outputs * num_inputs),
        )
        return out
    for j in range(freqs.size):
        out[:, j] = lt_v @ (w / (1.0 + s[j] * eigenvalues)[:, :, None])
    return out


# The eig kernel's accuracy hinges on the conditioning of each
# instance's eigenvector basis, which nothing upstream guarantees.  One
# probe frequency per sweep is re-evaluated through the exact pencil
# solve; instances whose rational responses disagree beyond the
# tolerance are recomputed entirely via solves (counted in
# ``runtime.batch.eig_fallbacks``).  Thresholds are strictly
# per-instance -- no batch-global scale -- so chunked streaming flags
# exactly what one-shot evaluation flags (the bit-determinism contract).
_GUARD_RTOL = 1e-6
_EIG_FALLBACKS = obs_metrics.counter("runtime.batch.eig_fallbacks")


def _solve_responses(model, g: np.ndarray, c: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Exact per-frequency pencil-solve responses for a (sub)stack."""
    out = np.empty(
        (g.shape[0], freqs.size, model.nominal.L.shape[1], model.nominal.B.shape[1]),
        dtype=complex,
    )
    for j, f in enumerate(freqs):
        out[:, j] = _transfer_from_stacks(model, g, c, 2j * np.pi * f)
    return out


def _response_guard_flags(
    model, g, c, responses: np.ndarray, freqs: np.ndarray
) -> np.ndarray:
    """Per-instance accuracy flags for rational (eig-path) responses.

    Compares the probe frequency (middle of the grid) against a
    complex128 pencil solve of the same stacks.  The tolerance scales
    with that instance's own response magnitude only, never with the
    rest of the batch, so the flag vector is invariant to chunking.
    Non-finite rows are always flagged.
    """
    probe = freqs.size // 2
    reference = _transfer_from_stacks(model, g, c, 2j * np.pi * freqs[probe])
    diff = np.abs(responses[:, probe] - reference).max(axis=(1, 2))
    # Probe-local scale only: folding in the rest of the grid would let
    # wildly wrong values at other frequencies inflate the tolerance
    # and mask a bad probe (the ill-conditioned-basis failure mode).
    scale = np.abs(reference).max(axis=(1, 2))
    with np.errstate(invalid="ignore"):
        flags = diff > _GUARD_RTOL * scale
    flags |= ~np.isfinite(responses).all(axis=(1, 2, 3))
    return flags


def batch_frequency_response(
    model, frequencies: Sequence[float], samples, method: str = "solve"
) -> np.ndarray:
    """``H(j 2 pi f, p_k)`` for every (sample, frequency) pair.

    The system matrices are instantiated once and re-used across the
    frequency axis.  Returns shape ``(m, n_f, m_out, m_in)``.

    Parameters
    ----------
    method:
        ``"solve"`` (default) performs one batched pencil solve per
        frequency -- bitwise-grade agreement with the per-sample path.
        ``"eig"`` runs the sweep-study kernel (:func:`_sweep_study`):
        each instance is diagonalized once and all frequencies are
        evaluated as rational sums -- asymptotically ``n_f`` times
        cheaper for dense sweeps, accurate to rounding (~1e-15
        relative) for well-conditioned eigenvector bases, and guarded:
        instances whose basis fails the probe check are recomputed by
        pencil solves.
    """
    freqs = np.asarray(frequencies, dtype=float)
    if method == "eig":
        return _sweep_study(model, freqs, samples, want_poles=False)[0]
    if method != "solve":
        raise ValueError(f"unknown method {method!r} (use 'solve' or 'eig')")
    g, c = batch_instantiate(model, samples)
    return _solve_responses(model, g, c, freqs)


# The tolerances of the dominant-pole rule (see dominant_pole_rows).
COINCIDENCE_TOL = 1e-7
RESIDUE_FLOOR = 1e-9


def finite_pole_mask(eigenvalues: np.ndarray) -> np.ndarray:
    """Which eigenvalues of ``G^{-1} C`` give finite poles (last axis):
    ``|lambda| > 1e-12 max |lambda|``, "zero" measured against the
    largest.  A row whose largest is 0 or ``nan`` has none."""
    magnitude = np.abs(eigenvalues)
    return magnitude > 1e-12 * magnitude.max(axis=-1, initial=0.0, keepdims=True)


def check_residue_port(system, port: Tuple[int, int] = (0, 0)) -> None:
    """Refuse, in one line, a ``system`` without the ``port`` = ``(o, i)``
    whose residues rank dominant poles: a net with no output (no
    ``.port`` or ``.observe``) or no input has no ``H[0, 0]``."""
    counts = (system.L.shape[1], system.B.shape[1])
    if not all(0 <= index < count for index, count in zip(port, counts)):
        raise ValueError(
            f"dominant poles rank the residues of H[{port[0]}, {port[1]}], "
            f"but the model has {counts[0]} output(s) and {counts[1]} input(s)"
        )


def dominant_pole_rows(
    eigenvalues: np.ndarray, residues: np.ndarray, num: int
) -> np.ndarray:
    """Dominant poles of every row of eigen-factors: the one definition.

    Row ``k`` holds the eigenvalues ``lambda_j`` of ``G_k^{-1} C_k`` and
    the residues ``c_j = (L^T V_k)[o, j] (V_k^{-1} G_k^{-1} B)[j, i]`` of
    ``H[o, i](s) = sum_j c_j / (1 + s lambda_j)``.  Per row: drop the
    poles at infinity (:func:`finite_pole_mask`); stable-sort the poles
    ``s_j = -1/lambda_j`` by ``|s|``; merge each pole within
    ``COINCIDENCE_TOL |s|`` of its group's first, summing the residues
    (symmetric structures give degenerate eigenvalues with arbitrary
    eigenvectors); keep the poles whose ``|residue|`` exceeds
    ``RESIDUE_FLOOR`` of the row's largest; return the first ``num``,
    ``nan``-padded to ``num`` columns.  Rows are independent; only rows
    with a near-coincident pair merge in a Python loop.
    """
    finite = finite_pole_mask(eigenvalues)
    poles = np.full(eigenvalues.shape, np.nan, dtype=complex)
    poles[finite] = -1.0 / eigenvalues[finite]
    size = np.abs(poles)  # nan for dropped poles, which sort last
    order = np.argsort(size, axis=1, kind="stable")
    poles, size, valid = (
        np.take_along_axis(x, order, axis=1) for x in (poles, size, finite)
    )
    residues = np.take_along_axis(np.asarray(residues, dtype=complex), order, axis=1)
    coincident = np.abs(np.diff(poles, axis=1)) <= COINCIDENCE_TOL * size[:, 1:]
    for k in np.flatnonzero(coincident.any(axis=1)):
        merged_poles, merged_residues = [], []
        for pole, residue in zip(poles[k, valid[k]], residues[k, valid[k]]):
            if merged_poles and abs(pole - merged_poles[-1]) <= COINCIDENCE_TOL * abs(pole):
                merged_residues[-1] += residue
            else:
                merged_poles.append(pole)
                merged_residues.append(residue)
        count = len(merged_poles)
        poles[k, :count], residues[k, :count] = merged_poles, merged_residues
        valid[k, count:] = False
    strength = np.where(valid, np.abs(residues), 0.0)
    floor = RESIDUE_FLOOR * strength.max(axis=1, initial=0.0, keepdims=True)
    keep = valid & (strength > floor)
    rank = np.cumsum(keep, axis=1) - 1
    out = np.full((poles.shape[0], num), np.nan + 1j * np.nan, dtype=complex)
    rows, cols = np.nonzero(keep & (rank < num))
    out[rows, rank[rows, cols]] = poles[rows, cols]
    return out


def _sweep_study(
    model,
    frequencies: Sequence[float],
    samples,
    num_poles: Optional[int] = 5,
    want_poles: bool = True,
    grid: Optional[bool] = None,
    port: Tuple[int, int] = (0, 0),
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Frequency responses *and* dominant poles from one factorization.

    The canonical Monte Carlo workload evaluates both the response
    envelope and the pole distribution of every instance.  One batched
    eigendecomposition per instance serves both quantities: the
    eigen-factors give the rational form of ``H`` and the dominant
    poles (:func:`dominant_pole_rows`) of the ``port`` response.
    Returns ``(responses, poles)`` with shapes ``(m, n_f, m_out, m_in)``
    and ``(m, num_poles)``; with ``want_poles=False`` the pole
    extraction is skipped and ``poles`` is ``None``.

    Instances whose eigenvector basis is too ill conditioned for the
    rational form (checked against an exact probe solve) are recomputed
    through per-frequency pencil solves instead of silently returning
    inaccurate responses; each fallback increments the
    ``runtime.batch.eig_fallbacks`` counter.

    The rows run as contiguous blocks on the row pool (see
    :func:`_queue_sweep`); ``grid`` is the study's contraction choice
    (default: :func:`grid_contraction` of these samples).  This is the
    engine-internal kernel behind the dense sweep routes of
    :class:`repro.runtime.engine.Study`.
    """
    return _queue_sweep(
        model, frequencies, samples, num_poles, want_poles, grid, port=port
    ).result()


def _queue_sweep(
    model,
    frequencies: Sequence[float],
    samples,
    num_poles: Optional[int] = 5,
    want_poles: bool = True,
    grid: Optional[bool] = None,
    finish: Optional[Callable] = None,
    port: Tuple[int, int] = (0, 0),
) -> RowBlocks:
    """Queue :func:`_sweep_study`'s row blocks; ``result()`` waits.

    Each block instantiates, factors, guards and extracts poles for its
    own rows and writes its responses into its slice of one
    preallocated ``(m, n_f, m_out, m_in)`` array.  Every step is
    per-instance, so the blocks reproduce the unsplit arithmetic bit
    for bit.  ``result()`` returns ``(responses, poles)``, or
    ``finish(responses, poles)`` when given.  The per-model memos are
    built here, in the calling thread, so blocks only read them.
    """
    freqs = np.asarray(frequencies, dtype=float)
    matrix = as_sample_matrix(model, samples)
    num_samples = matrix.shape[0]
    if grid is None:
        grid = grid_contraction(num_samples, freqs.size)
    symmetric_definite(model)
    responses = np.empty(
        (num_samples, freqs.size, model.nominal.L.shape[1], model.nominal.B.shape[1]),
        dtype=complex,
    )

    def gather(outputs):
        fallbacks = sum(flagged for flagged, _ in outputs)
        if fallbacks:
            _EIG_FALLBACKS.inc(fallbacks)
        poles = np.concatenate(
            [block for _, block in outputs] or [np.empty((0, num_poles), complex)]
        ) if want_poles else None
        if finish is None:
            return responses, poles
        return finish(responses, poles)

    run = functools.partial(
        _sweep_rows, model, freqs, matrix, responses, grid, want_poles,
        num_poles, port,
    )
    return RowBlocks(run, num_samples, gather)


def _sweep_rows(
    model, freqs, samples, responses, grid, want_poles, num_poles, port, lo, hi
):
    """One row block of :func:`_queue_sweep`: ``(fallbacks, poles)``."""
    g, c = batch_instantiate(model, samples[lo:hi], exact=False)
    eigenvalues, lt_v, w = _eig_response_factors(model, g, c)
    out = _eig_responses(eigenvalues, lt_v, w, freqs, grid, out=responses[lo:hi])
    flagged = 0
    if freqs.size:
        flags = _response_guard_flags(model, g, c, out, freqs)
        if flags.any():
            flagged = int(flags.sum())
            out[flags] = _solve_responses(model, g[flags], c[flags], freqs)
    if not want_poles:
        return flagged, None
    residues = lt_v[:, port[0], :] * w[:, :, port[1]]
    return flagged, dominant_pole_rows(eigenvalues, residues, num_poles)


def batch_transfer_sensitivities(model, s: complex, samples) -> np.ndarray:
    """Exact ``dH/dp_i (s, p_k)`` for every sample, stacked.

    The batched counterpart of
    :func:`repro.analysis.sensitivity.transfer_sensitivities` for dense
    parametric models: forward and adjoint stacked solves against the
    shared pencil, then one einsum contraction per side.  Returns shape
    ``(m, n_p, m_out, m_in)``.
    """
    matrix = as_sample_matrix(model, samples)
    g, c = batch_instantiate(model, matrix)
    s = complex(s)
    pencil = (g + s * c).astype(np.complex128)
    b = _dense(model.nominal.B).astype(np.complex128)
    l_mat = _dense(model.nominal.L).astype(np.complex128)
    x = np.linalg.solve(pencil, np.broadcast_to(b, (pencil.shape[0],) + b.shape))
    adjoint = np.transpose(pencil, (0, 2, 1))
    y = np.linalg.solve(adjoint, np.broadcast_to(l_mat, (pencil.shape[0],) + l_mat.shape))
    dg, dc = _sensitivity_stacks(model)
    k_stack = dg + s * dc
    kx = np.einsum("pij,kjn->kpin", k_stack, x)
    return -np.einsum("kio,kpin->kpon", y, kx)
