"""Sparse shared-pattern runtime: batched *full-order* ensembles.

The batch kernels in :mod:`repro.runtime.batch` refuse sparse models
for a good reason -- densifying a 10k-node MNA system per Monte Carlo
instance would be catastrophically slow and memory-hungry.  But the
per-sample fallback is almost as wasteful: every
:meth:`~repro.circuits.variational.ParametricSystem.instantiate` call
chains scipy sparse additions (repeated pattern merges and
allocations), and every solve re-runs a symbolic analysis on a
sparsity pattern that *never changes*.

This module exploits the structural invariant of variational systems:
``G(p) = G0 + sum_i p_i G_i`` and ``C(p)`` live, for every parameter
point, on the **union sparsity pattern** of the nominal and sensitivity
matrices.  :class:`SparsePatternFamily` precomputes that unified CSR
pattern plus per-parameter index maps once; afterwards

- instantiating ``G(p_k)`` for a whole sample batch is a data-array
  update (no per-sample pattern merges, no COO round trips), bit-
  identical to the scalar path;
- every pencil ``G(p_k) + s C(p_k)`` shares one symbolic analysis,
  chosen per pattern: LAPACK ``gtsv``/``gbsv`` on the RCM-permuted band
  (the natural form of ladders, buses, and power meshes), a
  level-scheduled static-pivot LU for wider patterns (random trees),
  which eliminates a whole frequency grid of pencils in one vectorized
  pass per elimination-tree level, and SuperLU numeric refactorization
  (:meth:`repro.linalg.sparselu.SparseLU.refactor`) where that LU
  cannot run -- patterns with a structurally missing diagonal
  (voltage-source rows) -- and for the single pencils its guard
  rejects.

The measured effect (``benchmarks/bench_runtime_sparse.py``): a
full-order Monte Carlo frequency sweep over a 2048-node network runs
>= 5x faster than the per-sample instantiate-and-solve loop, with
answers matching to solver roundoff.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import get_lapack_funcs
from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee

from repro.circuits.statespace import DescriptorSystem
from repro.linalg.sparselu import SparseLU
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.batch import as_sample_matrix

_FAMILY_ATTR = "_sparse_pattern_family"

# A level-LU pencil is trusted when its solution is finite and its
# normwise backward error ``|Ax - b|_inf / (|A|_inf |x|_inf + |b|_inf)``
# is below this limit (a stable elimination lands near 1e-16); any
# other pencil is re-solved alone by SuperLU refactorization and
# counted.  The test reads each pencil's own numbers only, so chunking
# never changes which pencils fall back.
_BACKWARD_ERROR_LIMIT = 1e-12
_PIVOT_FALLBACKS = obs_metrics.counter("runtime.sparse.pivot_fallbacks")
# Largest number of multiply-subtract items one vectorized step of the
# level LU gathers at once: it bounds the step's temporaries on patterns
# with heavy fill (meshes), where a single level can hold ~1e5 updates.
_STEP_ITEMS = 4096


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
    studies of one model -- and every thread sharing it -- pay the
    pattern analysis exactly once per model.
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


def _symbolic_factor(rows: np.ndarray, cols: np.ndarray, n: int):
    """Fill-reducing order and filled pattern of a symmetrized pattern.

    One SuperLU factorization of a strictly diagonally dominant
    M-matrix on ``pattern + pattern^T``, ordered by minimum degree on
    ``A^T + A``.  An M-matrix keeps every pivot positive, so the
    zero-threshold symmetric mode pivots on the diagonal (the row and
    column orders agree), and its elimination never cancels an entry,
    so the stored ``L`` is exactly the symbolic fill.  Returns
    ``(inverse, li, lp)``: ``inverse[i]`` is the elimination position
    of index ``i``, and ``(li, lp)`` the strict lower part of ``L`` in
    that order as sorted CSC indices and pointers.
    """
    off = rows != cols
    r = np.concatenate((rows[off], cols[off]))
    c = np.concatenate((cols[off], rows[off]))
    nodes = np.arange(n, dtype=np.intp)
    data = np.concatenate((-np.ones(r.size), np.bincount(r, minlength=n) + 1.0))
    matrix = sp.csc_matrix(
        (data, (np.concatenate((r, nodes)), np.concatenate((c, nodes)))), shape=(n, n)
    )
    lu = spla.splu(
        matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    factor = lu.L
    factor.sort_indices()
    column = np.repeat(nodes, np.diff(factor.indptr))
    below = factor.indices > column
    counts = np.bincount(column[below], minlength=n)
    lp = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
    # perm_c[i] is the position original index i moves to.
    return lu.perm_c.astype(np.intp), factor.indices[below].astype(np.intp), lp


class _LevelSchedule:
    """Symbolic analysis of the level-scheduled static-pivot LU.

    Built once per family from the union pattern: a fill-reducing
    symmetric ordering, the filled pattern of ``L + U`` (symmetric in
    structure), the elimination tree and its levels (a node's level is
    one more than its highest child's).  Columns on one level share no
    ancestor relation, so each level eliminates as a few vectorized
    gathers and scatters over *all* of a stack's pencils at once; the
    Python-level step count is the tree height, not the pencil count.

    The numeric state of a stack of ``k`` pencils is one ``(rows, k)``
    work array: rows ``[0, n)`` hold the pivots ``U[j, j]``, the next
    ``nl`` rows the strict lower entries ``L[i, j]`` (column-major),
    the next ``nl`` their mirrored upper entries ``U[j, i]``, and the
    last ``n * m`` rows the right-hand sides ``y[j, c]`` (``m`` input
    columns), which the forward sweep rides along with the elimination
    and the backward sweep turns into the solution.  Every step is
    either a *scale* (``work[target] /= work[pivot]``) or an *update*
    (``work[target] -= work[first] * work[second]``, repeated targets
    accumulated in order).  No step mixes pencils, so a pencil's
    arithmetic does not depend on which others share its stack.
    """

    def __init__(self, indices: np.ndarray, indptr: np.ndarray, rhs: np.ndarray):
        n, m, nnz = indptr.size - 1, rhs.shape[1], indices.size
        rows = np.repeat(np.arange(n, dtype=np.intp), np.diff(indptr))
        inverse, li, lp = _symbolic_factor(rows, indices, n)
        order = np.empty(n, dtype=np.intp)
        order[inverse] = np.arange(n, dtype=np.intp)
        counts = np.diff(lp)
        nl = li.size
        lj = np.repeat(np.arange(n, dtype=np.intp), counts)
        # Elimination tree: a column's parent is its first row below the
        # diagonal; its level is one more than its highest child's.
        parents = np.full(n, -1, dtype=np.intp)
        parents[counts > 0] = li[lp[:-1][counts > 0]]
        height = [0] * n
        for j, parent in enumerate(parents.tolist()):
            if parent >= 0 and height[j] >= height[parent]:
                height[parent] = height[j] + 1
        level = np.array(height, dtype=np.intp)
        num_levels = int(level.max()) + 1 if n else 0
        base = n + 2 * nl
        keys = lj * np.int64(n) + li  # ascending: column-major, rows sorted

        def entry(i, j):
            """Work row of filled-pattern entry ``(i, j)``."""
            out = i.copy()
            low, up = i > j, i < j
            out[low] = n + np.searchsorted(keys, j[low] * np.int64(n) + i[low])
            out[up] = n + nl + np.searchsorted(keys, i[up] * np.int64(n) + j[up])
            return out

        def rhs_rows(j, c):
            return base + j * m + c

        # Items per level.  Schur pairs: L[i, j] * U[j, k] -> (i, k) for
        # i, k in column j's structure; forward pairs L[i, j] * y[j, c]
        # -> y[i, c]; backward pairs U[j, i] * x[i, c] -> y[j, c].
        pair_a = np.repeat(np.arange(nl, dtype=np.intp), counts[lj])
        pair_b = (
            np.repeat(lp[lj], counts[lj]) + np.arange(pair_a.size)
            - np.repeat(np.cumsum(counts[lj]) - counts[lj], counts[lj])
        )
        column = np.tile(np.arange(m, dtype=np.intp), nl)
        per_entry = np.repeat(np.arange(nl, dtype=np.intp), m)
        factor_updates = (
            np.concatenate((level[lj[pair_a]], level[lj[per_entry]])),
            np.concatenate((
                entry(li[pair_a], li[pair_b]), rhs_rows(li[per_entry], column),
            )),
            np.concatenate((n + pair_a, n + per_entry)),
            np.concatenate((n + nl + pair_b, rhs_rows(lj[per_entry], column))),
        )
        backward_updates = (
            level[lj[per_entry]],
            rhs_rows(lj[per_entry], column),
            n + nl + per_entry,
            rhs_rows(li[per_entry], column),
        )
        nodes = np.repeat(np.arange(n, dtype=np.intp), m)
        backward_scales = (
            level[nodes], rhs_rows(nodes, np.tile(np.arange(m, dtype=np.intp), n)), nodes,
        )
        factor_scales = (level[lj], n + np.arange(nl, dtype=np.intp), lj)

        factor_scale = _split_levels(factor_scales, num_levels)
        factor_update = _split_levels(factor_updates, num_levels)
        backward_update = _split_levels(backward_updates, num_levels)
        backward_scale = _split_levels(backward_scales, num_levels)
        steps = []
        for h in range(num_levels):
            steps += _scale_steps(factor_scale[h])
            steps += _update_steps(factor_update[h])
        for h in reversed(range(num_levels)):
            steps += _update_steps(backward_update[h])
            steps += _scale_steps(backward_scale[h])

        self.order = n
        self.num_rows = base + n * m
        self.num_levels = num_levels
        self.steps = steps
        # (work-array rows, scale and update items of all steps, largest step)
        self.sizes = (
            self.num_rows,
            sum(step[1].size for step in steps),
            max((step[1].size for step in steps), default=0),
        )
        self.indices = indices
        self.rhs_dense = rhs
        # Where union-pattern entries go in the work array, the right-hand
        # side in elimination order, and where x is read back from.
        self.scatter = entry(inverse[rows], inverse[indices])
        self.rhs = rhs[order].reshape(-1).astype(np.complex128)
        self.solution_rows = rhs_rows(inverse[:, None], np.arange(m)[None, :])
        # (n x nnz) row sums of union entries, for the guard.
        self.row_sums = sp.csr_matrix(
            (np.ones(nnz), np.arange(nnz, dtype=np.intp), indptr), shape=(n, nnz)
        )

    def solve(self, pencils: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Solve every pencil of a ``(k, nnz)`` data stack.

        Returns ``(x, flags)``: the solutions, shape ``(n, m, k)`` in
        the original node order, and a ``(k,)`` mask of the pencils the
        guard rejects (non-finite solution, or a normwise backward
        error above ``_BACKWARD_ERROR_LIMIT``).  A zero or tiny pivot
        only ever shows up in ``flags``: the elimination runs with
        floating-point warnings silenced.
        """
        row_sums = self.row_sums
        k = pencils.shape[0]
        work = np.zeros((self.num_rows, k), dtype=np.complex128)
        work[self.scatter] = pencils.T
        work[self.num_rows - self.rhs.size:] = self.rhs[:, None]
        flat = work.reshape(-1)
        lanes = np.arange(k, dtype=np.intp)
        with np.errstate(all="ignore"):
            for scale, target, first, second in self.steps:
                if scale:
                    work[target] /= work[first]
                else:
                    np.subtract.at(
                        flat,
                        (target[:, None] * k + lanes).ravel(),
                        (work[first] * work[second]).ravel(),
                    )
            x = work[self.solution_rows]
            del work, flat
            data = pencils.T
            norm_a = (row_sums @ np.abs(data)).max(axis=0, initial=0.0)
            norm_x = np.abs(x).max(axis=0, initial=0.0)
            norm_b = np.abs(self.rhs_dense).max(axis=0, initial=0.0)
            trusted = np.isfinite(x).all(axis=(0, 1))
            for c in range(x.shape[1]):
                residual = row_sums @ (data * x[self.indices, c])
                residual -= self.rhs_dense[:, c, None]
                error = np.abs(residual).max(axis=0, initial=0.0)
                trusted &= error <= _BACKWARD_ERROR_LIMIT * (
                    norm_a * norm_x[c] + norm_b[c]
                )
        return x, ~trusted


def _forest_sizes(indices: np.ndarray, indptr: np.ndarray, num_inputs: int):
    """:attr:`_LevelSchedule.sizes` of a forest pattern, else ``None``.

    Minimum degree always finds a leaf to eliminate in a forest (an RC
    tree), so the elimination creates no fill: ``L`` holds one entry
    per edge and the sizes follow without running the analysis.  The
    largest step is bounded as if every column sat on one level.
    """
    n, m = indptr.size - 1, num_inputs
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    cols = indices.astype(np.int64)
    pairs = np.where(rows < cols, rows * n + cols, cols * n + rows)[rows != cols]
    pairs.sort()
    edges = pairs.size - np.count_nonzero(pairs[1:] == pairs[:-1])
    graph = sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))
    trees = connected_components(graph, directed=True, connection="weak")[0]
    if edges != n - trees:
        return None
    edges = int(edges)
    max_step = max(edges, m * n, min(_STEP_ITEMS, (1 + m) * edges))
    return n + 2 * edges + n * m, 2 * (1 + m) * edges + n * m, max_step


def _level_lu_bytes(num_pencils: int, nnz: int, n: int, m: int, sizes, build: bool) -> int:
    """Peak bytes a level-LU solve allocates for a stack, beside its input.

    Per pencil, the larger of the elimination phase (the work array,
    the solution gathered from it, and one step's temporaries: two
    gathered operands, their product and the flat scatter index) and
    the guard phase (the solution, one gathered column with its
    product, the residual and the row sums).  With ``build`` the solve
    also builds the symbolic analysis: about three int64 indices per
    step item that stay, plus the level sort's temporaries meanwhile.
    """
    num_rows, num_items, max_step = sizes
    elimination = 16 * (num_rows + n * m) + 64 * max_step
    guard = 16 * (n * m + 2 * nnz + n) + 8 * (nnz + n)
    peak = num_pencils * max(elimination, guard)
    if build:
        peak = max(peak, 96 * num_items) + 24 * num_items + 32 * (nnz + n * m)
    return peak


def _split_levels(items, num_levels: int) -> list:
    """Group item arrays ``(level, target, *sources)`` by level.

    Within a level the items are sorted by target, so an update step
    scatters into the work array in one forward pass.
    """
    level, target = items[0], items[1]
    span = np.int64(target.max()) + 1 if target.size else np.int64(1)
    sort = np.argsort(level * span + target, kind="stable")
    bounds = np.searchsorted(level[sort], np.arange(num_levels + 1))
    return [
        tuple(array[sort[bounds[h]:bounds[h + 1]]] for array in items[1:])
        for h in range(num_levels)
    ]


def _scale_steps(items) -> list:
    target, pivot = items
    return [(True, target, pivot, None)] if target.size else []


def _update_steps(items) -> list:
    target, first, second = items
    return [
        (False, target[lo:lo + _STEP_ITEMS], first[lo:lo + _STEP_ITEMS],
         second[lo:lo + _STEP_ITEMS])
        for lo in range(0, target.size, _STEP_ITEMS)
    ]


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
        kernel (default 32: ``gbsv`` factor-plus-solve work grows as
        ``n * bw^2`` while its per-call overhead stays tiny, so narrow
        bands win big and wide bands lose).  Wider patterns use the
        level-scheduled LU, or SuperLU refactorization when a diagonal
        entry is structurally missing.

    Attributes
    ----------
    indices, indptr:
        The unified CSR pattern shared by ``G0``, ``C0`` and every
        sensitivity matrix.
    solver_kind:
        ``"tridiagonal"``, ``"banded"``, ``"level-lu"`` or
        ``"superlu"`` -- which pencil kernel :meth:`frequency_response`
        uses.
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
        the data vector.  Wide patterns (random trees) run the
        level-scheduled LU, whose symbolic analysis is built at first
        use (:meth:`_level_schedule`); a pattern with a structurally
        missing diagonal cannot pivot on it and uses SuperLU numeric
        refactorization with the ordering reused from one template
        factorization.
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
            diagonal = np.zeros(n, dtype=bool)
            diagonal[rows[rows == self.indices]] = True
            self.solver_kind = "level-lu" if diagonal.all() else "superlu"
            self._schedule: Optional[_LevelSchedule] = None
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

    def _level_schedule(self) -> _LevelSchedule:
        """The level-LU symbolic analysis, built at first use and kept."""
        if self._schedule is None:
            self._schedule = _LevelSchedule(self.indices, self.indptr, self._b_dense)
        return self._schedule

    def _level_sizes(self):
        """``(sizes, build)``: the level LU's sizes for a workspace estimate,
        and whether the next solve still builds its symbolic analysis.

        A forest's sizes need no analysis, so planning an RC tree leaves
        it to the first solve; any other pattern builds it here.
        """
        if self._schedule is None:
            sizes = _forest_sizes(self.indices, self.indptr, self._b_dense.shape[1])
            if sizes is not None:
                return sizes, True
        return self._level_schedule().sizes, False

    def _superlu_template(self) -> SparseLU:
        """The shared symbolic template, built lazily (and after unpickling).

        SuperLU factor objects are not picklable, so a pickled family
        (``pickle.dumps``, say, to hand it to another process) leaves
        the template out and rebuilds it on first use.  The template's numeric values (``G0 + C0``)
        are irrelevant -- only its pattern and the fill-reducing
        ordering are reused -- but the factorization must succeed, so a
        singular nominal combination retries with pseudo-random data on
        the same pattern.
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

    def _superlu_solve(self, pencil: np.ndarray) -> np.ndarray:
        """``x`` of one pencil by SuperLU numeric refactorization."""
        try:
            lu = self._superlu_template().refactor(pencil[self._csr_to_csc])
        except RuntimeError as exc:
            raise RuntimeError(
                f"sparse pencil solve failed (SuperLU: {exc}); "
                "the pencil is singular at this (sample, frequency) point"
            ) from None
        return lu.solve(self._b_dense.astype(np.complex128))

    def _solve_superlu(self, pencil_data: np.ndarray) -> np.ndarray:
        out = np.empty(
            (pencil_data.shape[0], self._l_dense.shape[1], self._b_dense.shape[1]),
            dtype=np.complex128,
        )
        for k, pencil in enumerate(pencil_data):
            out[k] = self._l_dense.T @ self._superlu_solve(pencil)
        return out

    def _solve_level_lu(self, pencil_data: np.ndarray) -> Tuple[np.ndarray, int]:
        """``H`` blocks of a pencil stack by one level-scheduled elimination.

        Pencils the guard rejects are re-solved one by one through
        SuperLU refactorization and counted in
        ``runtime.sparse.pivot_fallbacks``; returns ``(H, fallbacks)``.
        """
        x, flags = self._level_schedule().solve(pencil_data)
        fallbacks = np.flatnonzero(flags)
        for k in fallbacks:
            x[:, :, k] = self._superlu_solve(pencil_data[k])
        if fallbacks.size:
            _PIVOT_FALLBACKS.inc(int(fallbacks.size))
        out = np.tensordot(x, self._l_dense, axes=(0, 0))  # (m_in, k, m_out)
        return out.transpose(1, 2, 0), int(fallbacks.size)

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
        ) as span:
            fallbacks = 0
            if self.solver_kind == "tridiagonal":
                out = self._solve_tridiagonal(pencil_data)
            elif self.solver_kind == "banded":
                out = self._solve_banded(pencil_data)
            elif self.solver_kind == "level-lu":
                out, fallbacks = self._solve_level_lu(pencil_data)
            else:
                out = self._solve_superlu(pencil_data)
            span.set(fallbacks=fallbacks)
            return out

    def workspace_bytes(self, num_pencils: int) -> int:
        """Peak bytes of solving one stack of ``num_pencils`` pencils.

        The stack (and, while it is built, one temporary of its size),
        the pencil kernel's own arrays -- the LAPACK tiers' diagonals or
        band array, the level LU's phases (see :meth:`_level_sizes`),
        SuperLU's one gathered pencil and solution (its factors live
        outside NumPy) -- and the answer grid.
        """
        n, nnz = self.order, self.nnz
        m_out, m_in = self._l_dense.shape[1], self._b_dense.shape[1]
        stack = 16 * num_pencils * nnz
        if self.solver_kind == "tridiagonal":
            kernel = 16 * (num_pencils * 3 * n + n * m_in)
        elif self.solver_kind == "banded":
            kernel = 16 * (num_pencils * n * self._band_ldab + n * m_in)
        elif self.solver_kind == "level-lu":
            kernel = _level_lu_bytes(num_pencils, nnz, n, m_in, *self._level_sizes())
        else:
            kernel = 16 * (nnz + n * m_in)
        return stack + max(stack, kernel) + 16 * num_pencils * m_out * m_in

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
