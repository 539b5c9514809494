"""Shared sparse LU factorization with transpose solves and pattern reuse.

The paper's complexity argument (Section 4.2) hinges on a single
observation: *one* LU factorization of the nominal conductance matrix
``G0 = Lg Ug`` is enough to serve every linear solve the algorithm
needs, including solves with the transpose ``G0^T = Ug^T Lg^T``.  The
Krylov subspaces with respect to ``A0 = -G0^{-1} C0`` and
``A0^T = -C0^T G0^{-T}``, as well as the matrix-implicit SVDs of the
generalized sensitivity matrices ``-G0^{-1} G_i``, all reuse the same
factors.

:class:`SparseLU` wraps :func:`scipy.sparse.linalg.splu` and exposes

- :meth:`SparseLU.solve` for ``A x = b``,
- :meth:`SparseLU.solve_transpose` for ``A^T x = b``,

both accepting vectors or blocks of right-hand sides.  A module-level
factorization counter lets the cost benchmarks report the *measured*
number of factorizations each reduction algorithm performed, which is
the paper's headline cost metric (1 for the low-rank method versus one
per sample point for the multi-point method).

Pattern reuse
-------------

Every pencil ``G(p_k) + s C(p_k)`` of a variational system lives on the
union pattern of the nominal and sensitivity matrices.
:meth:`SparseLU.refactor` exploits that: the symbolic analysis -- the
CSC structure and the fill-reducing column ordering SuperLU selected
for the first factorization -- is computed once and reused for every
subsequent *numeric* factorization, which receives only a fresh data
array.  The sparse runtime (:mod:`repro.runtime.sparse`) refactors
pencil by pencil only where its batched level-scheduled LU cannot run:
patterns with a structurally missing diagonal (voltage-source rows)
and the single pencils that LU's backward-error guard rejects.
Refactorizations are tallied by the separate
:func:`refactorization_count` counter so the paper's headline metric
(fresh symbolic factorizations) stays untouched.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.obs import metrics as obs_metrics

Matrix = Union[np.ndarray, sp.spmatrix]

# The historical module-global tallies now live on the process-wide
# metrics registry (``repro.obs``); the functions below are live views
# over the same counter objects, so the measurement-window API
# (read / reset-returning-old) is unchanged.
_FACTORIZATIONS = obs_metrics.counter("linalg.sparselu.factorizations")
_REFACTORIZATIONS = obs_metrics.counter("linalg.sparselu.refactorizations")


def factorization_count() -> int:
    """Return the number of :class:`SparseLU` factorizations so far.

    The counter is global (the ``linalg.sparselu.factorizations``
    counter of the :mod:`repro.obs` metrics registry) and monotonically
    increasing; use :func:`reset_factorization_count` to start a
    measurement window.  Pattern-reusing :meth:`SparseLU.refactor`
    calls are counted separately by :func:`refactorization_count`.
    """
    return _FACTORIZATIONS.value


def reset_factorization_count() -> int:
    """Reset the global factorization counter and return the old value."""
    return _FACTORIZATIONS.reset()


def refactorization_count() -> int:
    """Number of pattern-reusing numeric refactorizations so far."""
    return _REFACTORIZATIONS.value


def reset_refactorization_count() -> int:
    """Reset the refactorization counter and return the old value."""
    return _REFACTORIZATIONS.reset()


def singular_matrix_error(exc: Exception) -> np.linalg.LinAlgError:
    """The one-line :class:`numpy.linalg.LinAlgError` for a factorization
    that found its matrix singular, saying what that means for ``G``."""
    return np.linalg.LinAlgError(
        f"matrix is singular ({exc}): if it is the conductance matrix "
        "G, some node has no resistive (DC) path to ground"
    )


def checked_splu(matrix: sp.csc_matrix):
    """:func:`scipy.sparse.linalg.splu`, a singular matrix reported as a
    one-line :class:`numpy.linalg.LinAlgError` that says what it means."""
    try:
        return spla.splu(matrix)
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        raise singular_matrix_error(exc) from None


class _PatternPlan:
    """Precomputed symbolic state shared by all refactorizations.

    Holds the CSC structure of the factored matrix, the fill-reducing
    column ordering SuperLU chose for the first factorization, and the
    gather arrays that apply that ordering to a bare data array without
    rebuilding any sparse-matrix objects.
    """

    def __init__(self, indices: np.ndarray, indptr: np.ndarray, shape, perm_c: np.ndarray):
        self.indices = indices
        self.indptr = indptr
        self.shape = shape
        # SuperLU's perm_c[i] = j places original column i at position j
        # of A @ Pc; the column gather below wants the inverse map
        # (position j <- original column perm_c^{-1}[j]).
        perm_c = np.asarray(perm_c, dtype=np.intp)
        self.perm_c = np.empty_like(perm_c)
        self.perm_c[perm_c] = np.arange(perm_c.size, dtype=np.intp)
        counts = np.diff(indptr)[self.perm_c]
        self.permuted_indptr = np.concatenate(([0], np.cumsum(counts)))
        total = int(self.permuted_indptr[-1])
        # data positions of permuted column j = indptr[perm_c[j]] + 0..counts[j]
        ends = np.cumsum(counts)
        starts_out = ends - counts
        self.gather = (
            np.arange(total)
            - np.repeat(starts_out, counts)
            + np.repeat(np.asarray(indptr)[self.perm_c], counts)
        )
        self.permuted_indices = np.asarray(indices)[self.gather]

    @property
    def nnz(self) -> int:
        """Stored-entry count of the shared pattern."""
        return int(self.indptr[-1])


class SparseLU:
    """LU factorization of a sparse square matrix with transpose solves.

    Parameters
    ----------
    matrix:
        Square matrix to factor.  Dense arrays and any scipy sparse
        format are accepted; the matrix is converted to CSC once.

    Raises
    ------
    ValueError
        If the matrix is not square.
    numpy.linalg.LinAlgError
        If the matrix is singular (see :func:`checked_splu`).
    """

    def __init__(self, matrix: Matrix):
        if sp.issparse(matrix):
            csc = matrix.tocsc()
            if csc is matrix:
                # tocsc() on a CSC input returns the caller's own object;
                # copy before sorting in place (and before aliasing the
                # structure arrays in the refactor plan below).
                csc = csc.copy()
        else:
            arr = np.asarray(matrix)
            if arr.ndim != 2:
                raise ValueError("matrix must be 2-dimensional")
            csc = sp.csc_matrix(arr)
        if csc.shape[0] != csc.shape[1]:
            raise ValueError(f"matrix must be square, got shape {csc.shape}")
        csc.sort_indices()
        self._shape = csc.shape
        self._lu = checked_splu(csc)
        # Symbolic state kept for refactor(): structure + chosen ordering.
        self._csc_indices = csc.indices
        self._csc_indptr = csc.indptr
        self._plan: Optional[_PatternPlan] = None
        # None = identity (this factor was built directly from the matrix).
        self._col_perm: Optional[np.ndarray] = None
        _FACTORIZATIONS.inc()

    @property
    def shape(self) -> tuple:
        """Shape of the factored matrix."""
        return self._shape

    @property
    def n(self) -> int:
        """Dimension of the factored matrix."""
        return self._shape[0]

    @property
    def nnz(self) -> int:
        """Stored-entry count of the factored matrix's pattern."""
        return int(self._csc_indptr[-1])

    # -- pattern reuse --------------------------------------------------

    def _pattern_plan(self) -> _PatternPlan:
        if self._plan is None:
            self._plan = _PatternPlan(
                self._csc_indices, self._csc_indptr, self._shape, self._lu.perm_c
            )
        return self._plan

    def symbolic(self) -> "SparseLU":
        """This factorization without its numeric factor: the pattern
        and the column ordering, which is all :meth:`refactor` reuses.

        SuperLU keeps L and U -- in work storage sized by its fill
        estimate, often several times the factor -- in allocations of
        its own, which no NumPy array accounts for; a template that only
        seeds refactorizations need not hold them.  The result
        refactors exactly as this factorization does but cannot solve.
        """
        template = object.__new__(SparseLU)
        template._shape = self._shape
        template._lu = None
        template._csc_indices = self._csc_indices
        template._csc_indptr = self._csc_indptr
        template._plan = self._pattern_plan()
        template._col_perm = None
        return template

    def refactor(self, data: np.ndarray) -> "SparseLU":
        """Numeric re-factorization of a same-pattern matrix.

        ``data`` is the CSC data array of a matrix sharing this
        factorization's sparsity structure exactly (same ``indices`` /
        ``indptr``, e.g. produced by
        :class:`repro.runtime.sparse.SparsePatternFamily`).  The
        symbolic analysis is reused: the fill-reducing column ordering
        SuperLU selected for *this* factorization is applied up front
        (a single gather on the data array) and SuperLU is invoked with
        ``permc_spec="NATURAL"``, so no ordering is recomputed.  Only
        the numeric factorization runs.

        Returns a new :class:`SparseLU` whose :meth:`solve` /
        :meth:`solve_transpose` answer in the *original* (unpermuted)
        ordering.  Complex data is supported -- the shifted pencils
        ``G + s C`` of a frequency sweep refactor a real template.
        """
        plan = self._pattern_plan()
        data = np.asarray(data)
        if data.ndim != 1 or data.size != plan.nnz:
            raise ValueError(
                f"data has shape {data.shape}, expected ({plan.nnz},) matching "
                "the factored pattern"
            )
        permuted = sp.csc_matrix(
            (data[plan.gather], plan.permuted_indices, plan.permuted_indptr),
            shape=plan.shape,
        )
        refactored = object.__new__(SparseLU)
        refactored._shape = plan.shape
        refactored._lu = spla.splu(permuted, permc_spec="NATURAL")
        refactored._csc_indices = self._csc_indices
        refactored._csc_indptr = self._csc_indptr
        refactored._plan = plan
        refactored._col_perm = plan.perm_c
        _REFACTORIZATIONS.inc()
        return refactored

    # -- solves ---------------------------------------------------------

    def _solve(self, rhs: np.ndarray, trans: str) -> np.ndarray:
        rhs = np.asarray(rhs)
        if rhs.shape[0] != self.n:
            raise ValueError(
                f"right-hand side has leading dimension {rhs.shape[0]}, expected {self.n}"
            )
        if rhs.ndim == 1:
            return self._permuted_solve(rhs, trans)
        if rhs.ndim != 2:
            raise ValueError("right-hand side must be a vector or a 2-D block")
        # SuperLU returns Fortran order; keep the block's own layout.
        solved = self._permuted_solve(rhs, trans)
        out = np.empty_like(rhs, dtype=solved.dtype)
        out[...] = solved
        return out

    def _permuted_solve(self, rhs: np.ndarray, trans: str) -> np.ndarray:
        """One SuperLU solve of a vector or a whole block, mapping rows
        through the reused column ordering.  (Tests pin a block's
        columns bit-identical to solving each column alone.)

        With the stored factorization of ``Ap = A[:, perm]``:
        ``A x = b``   becomes ``Ap y = b`` with ``x[perm] = y``;
        ``A^T x = b`` becomes ``Ap^T x = b[perm]`` directly.
        """
        perm = self._col_perm
        if perm is None:
            return self._lu.solve(rhs, trans=trans)
        if trans == "T":
            return self._lu.solve(np.ascontiguousarray(rhs[perm]), trans="T")
        y = self._lu.solve(rhs, trans="N")
        x = np.empty_like(y)
        x[perm] = y
        return x

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` for a vector or block right-hand side."""
        return self._solve(rhs, trans="N")

    def solve_transpose(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A^T x = rhs`` reusing the same factors.

        With ``A = Lg Ug`` the transpose system is ``Ug^T Lg^T x = rhs``;
        SuperLU exposes this directly, so no second factorization is
        needed (paper, Section 4.2).
        """
        return self._solve(rhs, trans="T")
