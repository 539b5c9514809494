"""Sparse shared-pattern runtime: batched *full-order* ensembles.

The batch kernels in :mod:`repro.runtime.batch` refuse sparse models
for a good reason -- densifying a 10k-node MNA system per Monte Carlo
instance would be catastrophically slow and memory-hungry.  But the
per-sample fallback is almost as wasteful: every
:meth:`~repro.circuits.variational.ParametricSystem.instantiate` call
chains scipy sparse additions (repeated pattern merges and
allocations), and every solve re-runs SuperLU's symbolic analysis on a
sparsity pattern that *never changes*.

This module exploits the structural invariant of variational systems:
``G(p) = G0 + sum_i p_i G_i`` and ``C(p)`` live, for every parameter
point, on the **union sparsity pattern** of the nominal and sensitivity
matrices.  :class:`SparsePatternFamily` precomputes that unified CSR
pattern plus per-parameter index maps once; afterwards

- instantiating ``G(p_k)`` for a whole sample batch is a data-array
  update (no per-sample pattern merges, no COO round trips), bit-
  identical to the scalar path;
- every pencil ``G(p_k) + s C(p_k)`` shares one symbolic analysis:
  either a banded LAPACK ``gbsv`` kernel on the RCM-permuted band (the
  natural form of ladders, buses, and power meshes) or SuperLU numeric
  refactorization through :meth:`repro.linalg.sparselu.SparseLU.refactor`.

The measured effect (``benchmarks/bench_runtime_sparse.py``): a
full-order Monte Carlo frequency sweep over a 2048-node network runs
>= 5x faster than the per-sample instantiate-and-solve loop, with
answers matching to solver roundoff.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from repro.circuits.statespace import DescriptorSystem
from repro.linalg.sparselu import SparseLU
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.batch import as_sample_matrix

_FAMILY_ATTR = "_sparse_pattern_family"


def supports_sparse_batching(model) -> bool:
    """True when ``model`` is a parametric system with sparse matrices.

    The structural complement of
    :func:`repro.runtime.batch.supports_batching`: the same
    ``nominal``/``dG``/``dC`` shape contract, but with scipy sparse
    system matrices (a full-order
    :class:`~repro.circuits.variational.ParametricSystem`).
    """
    if not all(hasattr(model, name) for name in ("nominal", "dG", "dC", "num_parameters")):
        return False
    matrices = [model.nominal.G, model.nominal.C, *model.dG, *model.dC]
    return all(sp.issparse(matrix) for matrix in matrices)


def shared_pattern_family(model) -> "SparsePatternFamily":
    """The model's :class:`SparsePatternFamily`, built once and memoized.

    The family is cached on the model object itself (mirroring the
    dense nominal-matrix cache of
    :class:`~repro.core.model.ParametricReducedModel`), so repeated
    studies -- and the pickled copies a process executor ships to its
    workers -- pay the pattern analysis exactly once per model.
    """
    family = getattr(model, _FAMILY_ATTR, None)
    if family is None:
        family = SparsePatternFamily(model)
        try:
            setattr(model, _FAMILY_ATTR, family)
        except AttributeError:  # __slots__ or frozen models: skip memoizing
            pass
    return family


def _canonical_csr(matrix) -> sp.csr_matrix:
    csr = matrix.tocsr().copy()
    csr.sum_duplicates()
    csr.sort_indices()
    return csr


def _entry_keys(csr: sp.csr_matrix) -> np.ndarray:
    """Lexicographic ``row * n + col`` keys of a canonical CSR pattern."""
    n = csr.shape[1]
    rows = np.repeat(np.arange(csr.shape[0], dtype=np.int64), np.diff(csr.indptr))
    return rows * np.int64(n) + csr.indices.astype(np.int64)


class SparsePatternFamily:
    """Unified sparsity pattern and data maps of a variational system.

    Parameters
    ----------
    model:
        A sparse parametric system (``nominal`` descriptor system plus
        ``dG``/``dC`` sensitivity lists -- see
        :func:`supports_sparse_batching`).
    max_bandwidth:
        Largest RCM half-bandwidth routed to the banded LAPACK pencil
        kernel (default 32 -- the empirical crossover against SuperLU
        refactorization: ``gbsv`` factor-plus-solve work grows as
        ``n * bw^2`` while its per-call overhead stays tiny, so narrow
        bands win big and wide bands lose).  Wider patterns use SuperLU
        numeric refactorization with one reused symbolic analysis.

    Attributes
    ----------
    indices, indptr:
        The unified CSR pattern shared by ``G0``, ``C0`` and every
        sensitivity matrix.
    solver_kind:
        ``"tridiagonal"``, ``"banded"``, or ``"superlu"`` -- which
        pencil kernel :meth:`frequency_response` uses.
    """

    def __init__(self, model, max_bandwidth: int = 32):
        if not supports_sparse_batching(model):
            raise ValueError(
                "model does not expose the sparse parametric shape contract "
                "(nominal/dG/dC with scipy sparse matrices)"
            )
        self.model = model
        nominal = model.nominal
        n = nominal.order
        self.order = n
        g0 = _canonical_csr(nominal.G)
        c0 = _canonical_csr(nominal.C)
        sensitivities = [_canonical_csr(m) for m in (*model.dG, *model.dC)]

        # Union pattern: |G0| + |C0| + sum |G_i| + |C_i| cannot cancel,
        # so its stored entries are exactly the union of all patterns.
        pattern = abs(g0) + abs(c0)
        for matrix in sensitivities:
            pattern = pattern + abs(matrix)
        pattern = _canonical_csr(pattern)
        self.indices = pattern.indices
        self.indptr = pattern.indptr
        self.nnz = pattern.nnz
        union_keys = _entry_keys(pattern)

        def positions(csr: sp.csr_matrix) -> np.ndarray:
            return np.searchsorted(union_keys, _entry_keys(csr)).astype(np.intp)

        self._g0_data = np.zeros(self.nnz)
        self._g0_data[positions(g0)] = g0.data
        self._c0_data = np.zeros(self.nnz)
        self._c0_data[positions(c0)] = c0.data

        # Per-parameter index maps: each sensitivity keeps its own raw
        # data plus the union positions it touches, so the bit-exact
        # accumulation only ever updates entries the scalar path updates.
        num_parameters = model.num_parameters
        self._dg_positions = [positions(sensitivities[i]) for i in range(num_parameters)]
        self._dg_data = [sensitivities[i].data for i in range(num_parameters)]
        self._dc_positions = [
            positions(sensitivities[num_parameters + i]) for i in range(num_parameters)
        ]
        self._dc_data = [sensitivities[num_parameters + i].data for i in range(num_parameters)]
        # Dense (n_p, nnz) stacks for the einsum (exact=False) path.
        self._dg_stack = np.zeros((num_parameters, self.nnz))
        self._dc_stack = np.zeros((num_parameters, self.nnz))
        for i in range(num_parameters):
            self._dg_stack[i, self._dg_positions[i]] = self._dg_data[i]
            self._dc_stack[i, self._dc_positions[i]] = self._dc_data[i]

        self._b_dense = np.asarray(
            nominal.B.toarray() if sp.issparse(nominal.B) else nominal.B, dtype=float
        )
        self._l_dense = np.asarray(
            nominal.L.toarray() if sp.issparse(nominal.L) else nominal.L, dtype=float
        )

        self._build_pencil_plan(pattern, max_bandwidth)

    # -- solver planning ----------------------------------------------

    def _build_pencil_plan(self, pattern: sp.csr_matrix, max_bandwidth: int) -> None:
        """Choose and precompute the shared-pattern pencil solver.

        RCM reorders the union pattern once; if the resulting band is
        narrow (ladders: 1, meshes: grid width) every pencil factors
        through LAPACK ``gbsv`` on a band array assembled straight from
        the data vector.  Wide patterns (random trees) fall back to
        SuperLU numeric refactorization with the ordering reused from
        one template factorization.
        """
        n = self.order
        perm = np.asarray(reverse_cuthill_mckee(pattern, symmetric_mode=False), dtype=np.intp)
        inverse = np.empty(n, dtype=np.intp)
        inverse[perm] = np.arange(n, dtype=np.intp)
        rows = np.repeat(np.arange(n, dtype=np.intp), np.diff(self.indptr))
        prow = inverse[rows]
        pcol = inverse[self.indices]
        bandwidth = int(np.abs(prow - pcol).max()) if self.nnz else 0
        self.bandwidth = bandwidth
        self._lu_template: Optional[SparseLU] = None
        if bandwidth <= min(1, max_bandwidth):
            # Tridiagonal in RCM order (RC lines, ladders): LAPACK
            # ``gtsv`` beats ``gbsv`` ~2x and needs no band array -- the
            # three diagonals scatter straight from the data vector.
            self.solver_kind = "tridiagonal"
            diag = prow - pcol
            self._tri_scatter = (
                (np.flatnonzero(diag == 1), pcol[diag == 1]),      # sub (dl[j] = A[j+1, j])
                (np.flatnonzero(diag == 0), pcol[diag == 0]),      # main
                (np.flatnonzero(diag == -1), prow[diag == -1]),    # super (du[i] = A[i, i+1])
            )
            self._b_perm = self._b_dense[perm].astype(np.complex128)
            self._l_perm = self._l_dense[perm]
            self._csr_to_csc: Optional[np.ndarray] = None
        elif bandwidth <= max_bandwidth:
            self.solver_kind = "banded"
            kl = ku = bandwidth
            self._band_kl = kl
            self._band_ldab = 2 * kl + ku + 1
            # LAPACK banded storage: ab[kl + ku + i - j, j] = A[i, j].
            self._band_row = kl + ku + prow - pcol
            self._band_col = pcol
            self._b_perm = self._b_dense[perm].astype(np.complex128)
            self._l_perm = self._l_dense[perm]
            self._csr_to_csc: Optional[np.ndarray] = None
        else:
            self.solver_kind = "superlu"
            # CSR -> CSC data permutation for the shared pattern, so the
            # SuperLU template (a CSC factorization) can consume data
            # vectors produced in union-CSR order.
            csc_keys = (
                self.indices.astype(np.int64) * np.int64(n)
                + rows.astype(np.int64)
            )
            self._csr_to_csc = np.argsort(csc_keys, kind="stable").astype(np.intp)
            self._csc_rows = rows[self._csr_to_csc]
            self._csc_indptr = np.concatenate(
                ([0], np.cumsum(np.bincount(self.indices, minlength=n)))
            )
        # One tally per family build: which solver tier the pattern
        # earned (the tier-mix of a study is then readable off the
        # metrics registry without re-deriving bandwidths).
        obs_metrics.counter(f"sparse.solver_tier.{self.solver_kind}").inc()

    def _superlu_template(self) -> SparseLU:
        """The shared symbolic template, built lazily (and after unpickling).

        SuperLU factor objects are not picklable, so the template is
        excluded from the pickled state a process executor ships to
        workers and rebuilt on first use.  The template's numeric
        values (``G0 + C0``) are irrelevant -- only its pattern and the
        fill-reducing ordering are reused -- but the factorization must
        succeed, so a singular nominal combination retries with
        pseudo-random data on the same pattern.
        """
        if self._lu_template is None:
            n = self.order
            for data in (
                (self._g0_data + self._c0_data)[self._csr_to_csc],
                np.random.default_rng(0).uniform(0.5, 1.5, self.nnz),
            ):
                template = sp.csc_matrix(
                    (data, self._csc_rows, self._csc_indptr), shape=(n, n)
                )
                try:
                    self._lu_template = SparseLU(template)
                    break
                except RuntimeError:
                    continue
            if self._lu_template is None:
                raise RuntimeError(
                    "could not factor a template matrix on the shared pattern; "
                    "the pattern appears structurally singular"
                )
        return self._lu_template

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_lu_template"] = None  # SuperLU objects do not pickle
        return state

    # -- instantiation -------------------------------------------------

    def matrix_from_data(self, data: np.ndarray) -> sp.csr_matrix:
        """A CSR matrix on the shared pattern holding ``data``.

        Structure arrays are shared (zero-copy); treat the result as
        read-only.
        """
        return sp.csr_matrix(
            (data, self.indices, self.indptr), shape=(self.order, self.order)
        )

    def _point_data(self, point: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        g = self._g0_data.copy()
        c = self._c0_data.copy()
        for i, value in enumerate(point):
            # Matches `if value != 0.0` in ParametricSystem.conductance:
            # zero coefficients leave their entries untouched.
            if value != 0.0:
                g[self._dg_positions[i]] += value * self._dg_data[i]
                c[self._dc_positions[i]] += value * self._dc_data[i]
        return g, c

    def instantiate(self, p: Sequence[float], title: Optional[str] = None) -> DescriptorSystem:
        """The perturbed full system at ``p`` -- bit-identical values.

        Every stored value equals the corresponding entry of
        ``ParametricSystem.instantiate(p)`` bit for bit (same
        accumulation order, same skip-zero-coefficient rule); the
        pattern is the shared union pattern, so entries a perturbation
        never touches appear as explicit zeros.
        """
        point = np.atleast_1d(np.asarray(p, dtype=float))
        if point.shape != (self.model.num_parameters,):
            raise ValueError(
                f"parameter point has shape {point.shape}, expected "
                f"({self.model.num_parameters},)"
            )
        g_data, c_data = self._point_data(point)
        nominal = self.model.nominal
        label = title or f"{nominal.title}@shared-pattern"
        return DescriptorSystem(
            self.matrix_from_data(g_data),
            self.matrix_from_data(c_data),
            nominal.B,
            nominal.L,
            input_names=list(nominal.input_names),
            output_names=list(nominal.output_names),
            state_names=list(nominal.state_names),
            title=label,
        )

    def batch_data(self, samples, exact: bool = True) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked ``(G, C)`` data arrays over a sample matrix.

        Returns ``(g_data, c_data)`` of shape ``(m, nnz)`` on the
        shared pattern.  With ``exact`` (default) the per-entry
        accumulation is bit-identical to the scalar path; with
        ``exact=False`` the update is one matmul contraction
        ``data = data0 + samples @ d_stack`` (equal to rounding).
        """
        matrix = as_sample_matrix(self.model, samples)
        if not exact:
            g = self._g0_data[None, :] + matrix @ self._dg_stack
            c = self._c0_data[None, :] + matrix @ self._dc_stack
            return g, c
        num_samples = matrix.shape[0]
        g = np.broadcast_to(self._g0_data, (num_samples, self.nnz)).copy()
        c = np.broadcast_to(self._c0_data, (num_samples, self.nnz)).copy()
        for i in range(matrix.shape[1]):
            weights = matrix[:, i]
            nonzero = np.flatnonzero(weights != 0.0)
            if nonzero.size == 0:
                continue
            g_cols = self._dg_positions[i]
            c_cols = self._dc_positions[i]
            g[np.ix_(nonzero, g_cols)] += weights[nonzero, None] * self._dg_data[i]
            c[np.ix_(nonzero, c_cols)] += weights[nonzero, None] * self._dc_data[i]
        return g, c

    # -- pencil solves -------------------------------------------------

    def _solve_banded(self, pencil_data: np.ndarray) -> np.ndarray:
        """``H`` blocks for a ``(k, nnz)`` stack of pencil data arrays.

        Band arrays for the whole stack are assembled in one vectorized
        scatter; each system then runs through LAPACK ``gbsv``
        (factor + solve, no symbolic phase at all).
        """
        num_systems = pencil_data.shape[0]
        n = self.order
        kl = self._band_kl
        # (k, n, ldab) C-order so each ab[k].T is an F-order (ldab, n) view.
        ab = np.zeros((num_systems, n, self._band_ldab), dtype=np.complex128)
        ab[:, self._band_col, self._band_row] = pencil_data
        gbsv = get_lapack_funcs(("gbsv",), (ab,))[0]
        out = np.empty(
            (num_systems, self._l_dense.shape[1], self._b_dense.shape[1]),
            dtype=np.complex128,
        )
        for k in range(num_systems):
            _, _, x, info = gbsv(kl, kl, ab[k].T, self._b_perm, overwrite_ab=True)
            if info != 0:
                raise RuntimeError(
                    f"banded pencil solve failed (LAPACK gbsv info={info}); "
                    "the pencil is singular at this (sample, frequency) point"
                )
            out[k] = self._l_perm.T @ x
        return out

    def _solve_superlu(self, pencil_data: np.ndarray) -> np.ndarray:
        template = self._superlu_template()
        num_systems = pencil_data.shape[0]
        b = self._b_dense.astype(np.complex128)
        out = np.empty(
            (num_systems, self._l_dense.shape[1], self._b_dense.shape[1]),
            dtype=np.complex128,
        )
        for k in range(num_systems):
            lu = template.refactor(pencil_data[k, self._csr_to_csc])
            out[k] = self._l_dense.T @ lu.solve(b)
        return out

    def _solve_tridiagonal(self, pencil_data: np.ndarray) -> np.ndarray:
        """``H`` blocks via LAPACK ``gtsv`` on the RCM tridiagonal form."""
        num_systems = pencil_data.shape[0]
        n = self.order
        (sub_e, sub_p), (main_e, main_p), (sup_e, sup_p) = self._tri_scatter
        dl = np.zeros((num_systems, max(n - 1, 0)), dtype=np.complex128)
        d = np.zeros((num_systems, n), dtype=np.complex128)
        du = np.zeros((num_systems, max(n - 1, 0)), dtype=np.complex128)
        dl[:, sub_p] = pencil_data[:, sub_e]
        d[:, main_p] = pencil_data[:, main_e]
        du[:, sup_p] = pencil_data[:, sup_e]
        gtsv = get_lapack_funcs(("gtsv",), (d,))[0]
        out = np.empty(
            (num_systems, self._l_dense.shape[1], self._b_dense.shape[1]),
            dtype=np.complex128,
        )
        for k in range(num_systems):
            # Each diagonal row is used exactly once: let LAPACK work in place.
            _, _, _, x, info = gtsv(
                dl[k], d[k], du[k], self._b_perm,
                overwrite_dl=True, overwrite_d=True, overwrite_du=True,
            )
            if info != 0:
                raise RuntimeError(
                    f"tridiagonal pencil solve failed (LAPACK gtsv info={info}); "
                    "the pencil is singular at this (sample, frequency) point"
                )
            out[k] = self._l_perm.T @ x
        return out

    def _solve_pencils(self, pencil_data: np.ndarray) -> np.ndarray:
        with obs_trace.span(
            "sparse.refactor",
            solver=self.solver_kind,
            pencils=int(pencil_data.shape[0]),
        ):
            if self.solver_kind == "tridiagonal":
                return self._solve_tridiagonal(pencil_data)
            if self.solver_kind == "banded":
                return self._solve_banded(pencil_data)
            return self._solve_superlu(pencil_data)

    def transfer(self, s: complex, samples) -> np.ndarray:
        """Stacked full-order transfer matrices ``H(s, p_k)``.

        Returns shape ``(m, m_out, m_in)``; one shared-pattern numeric
        factorization per sample, zero symbolic work.
        """
        g, c = self.batch_data(samples)
        pencil = g.astype(np.complex128) + complex(s) * c
        return self._solve_pencils(pencil)

    def frequency_response(self, frequencies: Sequence[float], samples) -> np.ndarray:
        """``H(j 2 pi f, p_k)`` for every (sample, frequency) pair.

        The sample batch is instantiated once as data arrays; every
        pencil is then a vectorized axpy on the shared pattern followed
        by one numeric factorization.  Returns shape
        ``(m, n_f, m_out, m_in)``.
        """
        freqs = np.asarray(frequencies, dtype=float)
        g, c = self.batch_data(samples)
        num_samples = g.shape[0]
        out = np.empty(
            (num_samples, freqs.size, self._l_dense.shape[1], self._b_dense.shape[1]),
            dtype=np.complex128,
        )
        s_values = 2j * np.pi * freqs
        for k in range(num_samples):
            pencils = g[k][None, :] + s_values[:, None] * c[k][None, :]
            out[k] = self._solve_pencils(pencils)
        return out

    def __repr__(self) -> str:
        return (
            f"SparsePatternFamily(n={self.order}, nnz={self.nnz}, "
            f"np={self.model.num_parameters}, solver={self.solver_kind!r}, "
            f"bandwidth={self.bandwidth})"
        )
