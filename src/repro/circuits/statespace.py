"""Descriptor state-space systems (the MNA form of paper eq. (1)).

:class:`DescriptorSystem` holds the quadruple ``(G, C, B, L)`` of

``C x' = -G x + B u,    y = L^T x``

with sparse matrices for full circuits and dense matrices for reduced
macromodels.  It provides transfer-function evaluation, frequency
sweeps, pole computation, and congruence-transform reduction -- the
operations every experiment in the paper is built from.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sp

from repro.linalg.sparselu import checked_splu

Matrix = Union[np.ndarray, sp.spmatrix]


def _to_dense(matrix: Matrix) -> np.ndarray:
    return matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix)


class DescriptorSystem:
    """The MNA descriptor system ``C x' = -G x + B u, y = L^T x``.

    Parameters
    ----------
    G, C:
        Square conductance/susceptance matrices (sparse or dense).
    B:
        ``n x m_in`` input incidence matrix.
    L:
        ``n x m_out`` output incidence matrix.
    input_names, output_names, state_names:
        Optional labels used by reports.
    title:
        Human-readable system name.
    """

    def __init__(
        self,
        G: Matrix,
        C: Matrix,
        B: Matrix,
        L: Matrix,
        input_names: Optional[List[str]] = None,
        output_names: Optional[List[str]] = None,
        state_names: Optional[List[str]] = None,
        title: str = "system",
    ):
        n = G.shape[0]
        if G.shape != (n, n) or C.shape != (n, n):
            raise ValueError(f"G and C must be square and matching: {G.shape} vs {C.shape}")
        if B.shape[0] != n:
            raise ValueError(f"B has {B.shape[0]} rows, expected {n}")
        if L.shape[0] != n:
            raise ValueError(f"L has {L.shape[0]} rows, expected {n}")
        self.G = G
        self.C = C
        self.B = B
        self.L = L
        self.title = title
        self.input_names = input_names or [f"u{j}" for j in range(B.shape[1])]
        self.output_names = output_names or [f"y{j}" for j in range(L.shape[1])]
        self.state_names = state_names or [f"x{j}" for j in range(n)]

    # -- basic properties ---------------------------------------------

    @property
    def order(self) -> int:
        """State dimension ``n``."""
        return self.G.shape[0]

    @property
    def num_inputs(self) -> int:
        """Number of inputs ``m_in``."""
        return self.B.shape[1]

    @property
    def num_outputs(self) -> int:
        """Number of outputs ``m_out``."""
        return self.L.shape[1]

    @property
    def is_sparse(self) -> bool:
        """True when the system matrices are stored sparse."""
        return sp.issparse(self.G)

    def is_symmetric_port_form(self, tol: float = 0.0) -> bool:
        """True when ``B == L`` (PRIMA's symmetric passive-port form)."""
        if self.B.shape != self.L.shape:
            return False
        diff = self.B - self.L
        if sp.issparse(diff):
            if diff.nnz == 0:
                return True
            return abs(diff).max() <= tol
        return np.abs(diff).max() <= tol

    # -- frequency domain ---------------------------------------------

    def transfer(self, s: complex) -> np.ndarray:
        """Transfer matrix ``H(s) = L^T (G + s C)^{-1} B`` (m_out x m_in)."""
        s = complex(s)
        if self.is_sparse:
            pencil = (self.G + s * self.C).tocsc().astype(np.complex128)
            rhs = _to_dense(self.B).astype(complex)
            x = checked_splu(pencil).solve(rhs)
            return _to_dense(self.L).T @ x
        pencil = (_to_dense(self.G) + s * _to_dense(self.C)).astype(np.complex128)
        x = np.linalg.solve(pencil, _to_dense(self.B).astype(complex))
        return _to_dense(self.L).T @ x

    def frequency_response(self, frequencies: Sequence[float]) -> np.ndarray:
        """Evaluate ``H(j 2 pi f)`` over frequencies in hertz.

        Returns an array of shape ``(len(frequencies), m_out, m_in)``.
        """
        frequencies = np.asarray(frequencies, dtype=float)
        out = np.empty((frequencies.size, self.num_outputs, self.num_inputs), dtype=complex)
        for i, f in enumerate(frequencies):
            out[i] = self.transfer(2j * np.pi * f)
        return out

    def dc_gain(self) -> np.ndarray:
        """``H(0) = L^T G^{-1} B``."""
        return self.transfer(0.0).real

    # -- poles ----------------------------------------------------------

    def poles(self, num: Optional[int] = None) -> np.ndarray:
        """The pencil's finite poles, smallest ``|s|`` first.

        Poles are the values of ``s`` where ``G + s C`` is singular.
        Writing ``G + s C = G (I + s G^{-1} C)``, the finite poles are
        ``s = -1/lambda`` for the nonzero eigenvalues ``lambda`` of
        ``G^{-1} C``, listed by ``|s|``: the whole spectrum, not the
        Figs. 5-6 dominant poles, which must also show in the port
        response (see :func:`repro.analysis.poles.dominant_poles`).

        Parameters
        ----------
        num:
            Return only the ``num`` most dominant poles.
        """
        if self.is_sparse:
            lu = checked_splu(self.G.tocsc())
            a = lu.solve(_to_dense(self.C))
        else:
            a = np.linalg.solve(_to_dense(self.G), _to_dense(self.C))
        eigenvalues = dla.eig(a, right=False)
        magnitude = np.abs(eigenvalues)
        if magnitude.size == 0:
            return np.empty(0, dtype=complex)
        # Relative cutoff: eigenvalues of G^{-1}C live at RC-time-constant
        # scale (~1e-13 s), so "zero" must be measured against the largest.
        scale = magnitude.max()
        if scale == 0.0:
            return np.empty(0, dtype=complex)
        finite = eigenvalues[magnitude > 1e-12 * scale]
        poles = -1.0 / finite
        order = np.argsort(np.abs(poles))
        poles = poles[order]
        if num is not None:
            poles = poles[:num]
        return poles

    # -- reduction -------------------------------------------------------

    def reduce(self, projection: np.ndarray, title: Optional[str] = None) -> "DescriptorSystem":
        """Congruence-transform reduction ``M -> V^T M V`` (paper eq. (2)).

        The congruence transform preserves the passivity structure: if
        ``G + G^T`` and ``C + C^T`` are PSD then so are their reduced
        counterparts, for any real ``V``.
        """
        v = np.asarray(projection, dtype=float)
        if v.ndim != 2 or v.shape[0] != self.order:
            raise ValueError(
                f"projection must be {self.order} x q, got {v.shape}"
            )
        g_r = v.T @ _as_array_product(self.G, v)
        c_r = v.T @ _as_array_product(self.C, v)
        b_r = v.T @ _to_dense(self.B)
        l_r = v.T @ _to_dense(self.L)
        return DescriptorSystem(
            g_r,
            c_r,
            b_r,
            l_r,
            input_names=list(self.input_names),
            output_names=list(self.output_names),
            title=title or f"{self.title}[reduced q={v.shape[1]}]",
        )

    def port_restricted(self) -> "DescriptorSystem":
        """The same system observed only at its driven ports (``L := B``).

        Passivity is a property of the *port* behaviour; systems that
        carry extra observation outputs (``L != B``) are restricted to
        their ports before positive-realness is checked.
        """
        return DescriptorSystem(
            self.G,
            self.C,
            self.B,
            self.B,
            input_names=list(self.input_names),
            output_names=list(self.input_names),
            state_names=list(self.state_names),
            title=f"{self.title}[ports]",
        )

    # -- structure checks -------------------------------------------------

    def passivity_structure_margin(self) -> float:
        """Smallest eigenvalue over the symmetric parts of ``G`` and ``C``.

        A value ``>= -tol`` certifies the structural passivity
        conditions ``G + G^T >= 0`` and ``C + C^T >= 0`` (together with
        ``B = L`` these guarantee a positive-real transfer function).
        """
        g_sym = _to_dense(self.G)
        g_sym = 0.5 * (g_sym + g_sym.T)
        c_sym = _to_dense(self.C)
        c_sym = 0.5 * (c_sym + c_sym.T)
        return float(
            min(np.linalg.eigvalsh(g_sym).min(), np.linalg.eigvalsh(c_sym).min())
        )

    def __repr__(self) -> str:
        return (
            f"DescriptorSystem({self.title!r}, n={self.order}, "
            f"inputs={self.num_inputs}, outputs={self.num_outputs}, "
            f"{'sparse' if self.is_sparse else 'dense'})"
        )


def _as_array_product(matrix: Matrix, block: np.ndarray) -> np.ndarray:
    return np.asarray(matrix @ block)
