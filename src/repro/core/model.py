"""Reduced parametric macromodels.

A :class:`ParametricReducedModel` is the object every reducer in
:mod:`repro.core` produces: the congruence-reduced matrices

``G~(p) = G~0 + sum_i p_i G~_i,   C~(p) = C~0 + sum_i p_i C~_i``

(paper Algorithm 1, step 4) together with the projection matrix that
produced them.  It mirrors the evaluation API of the full
:class:`~repro.circuits.variational.ParametricSystem` -- instantiate at
a parameter point, evaluate ``H(s, p)``, compute poles -- so full and
reduced models are interchangeable in the analysis and benchmark code.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.statespace import DescriptorSystem


class ParametricReducedModel:
    """Dense parametric reduced-order model (congruence-transformed).

    Parameters
    ----------
    nominal:
        The reduced nominal system ``{G~0, C~0, B~, L~}``.
    dG, dC:
        Reduced sensitivity matrices ``G~_i = V^T G_i V`` etc.
    parameter_names:
        Labels copied from the full parametric system.
    projection:
        The ``n x q`` projection matrix ``V`` (kept for diagnostics,
        state reconstruction ``x ~= V z``, and the tests of the
        paper's Theorem 1).
    """

    def __init__(
        self,
        nominal: DescriptorSystem,
        dG: Sequence[np.ndarray],
        dC: Sequence[np.ndarray],
        parameter_names: Optional[List[str]] = None,
        projection: Optional[np.ndarray] = None,
    ):
        if len(dG) != len(dC):
            raise ValueError("need matching dG/dC lists")
        q = nominal.order
        for i, (gi, ci) in enumerate(zip(dG, dC)):
            if gi.shape != (q, q) or ci.shape != (q, q):
                raise ValueError(f"reduced sensitivity {i} has wrong shape")
        self.nominal = nominal
        self.dG = [np.asarray(gi) for gi in dG]
        self.dC = [np.asarray(ci) for ci in dC]
        if parameter_names is None:
            parameter_names = [f"p{i + 1}" for i in range(len(dG))]
        self.parameter_names = list(parameter_names)
        self.projection = None if projection is None else np.asarray(projection)
        # Densify the nominal matrices exactly once: instantiate() runs
        # inside Monte Carlo / sweep loops, where a per-call toarray()
        # dominated the reduced-model evaluation cost.
        self._dense_g0 = np.asarray(
            nominal.G.toarray() if hasattr(nominal.G, "toarray") else nominal.G,
            dtype=float,
        )
        self._dense_c0 = np.asarray(
            nominal.C.toarray() if hasattr(nominal.C, "toarray") else nominal.C,
            dtype=float,
        )
        self._stacks: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -- basic properties ---------------------------------------------

    @property
    def size(self) -> int:
        """Reduced model size (number of states) -- the paper's metric."""
        return self.nominal.order

    @property
    def num_parameters(self) -> int:
        """Number of variational parameters."""
        return len(self.dG)

    def _check_point(self, p: Sequence[float]) -> np.ndarray:
        point = np.atleast_1d(np.asarray(p, dtype=float))
        if point.shape != (self.num_parameters,):
            raise ValueError(
                f"parameter point has shape {point.shape}, expected ({self.num_parameters},)"
            )
        return point

    def dense_nominal(self) -> Tuple[np.ndarray, np.ndarray]:
        """The cached dense nominal pair ``(G~0, C~0)``.

        Shared with the batch kernels in :mod:`repro.runtime.batch`;
        callers must treat the returned arrays as read-only.
        """
        return self._dense_g0, self._dense_c0

    def sensitivity_stacks(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sensitivities stacked as ``(n_p, q, q)`` arrays (cached).

        The stacked layout is what the einsum-based batch kernels
        contract against; it is built lazily on first use and published
        as one tuple, so threads planning concurrently never see half of
        it.  Callers must treat the returned arrays as read-only.
        """
        stacks = self._stacks
        if stacks is None:
            q = self.nominal.order
            if self.num_parameters:
                stacks = (
                    np.stack([np.asarray(gi, dtype=float) for gi in self.dG]),
                    np.stack([np.asarray(ci, dtype=float) for ci in self.dC]),
                )
            else:
                stacks = np.zeros((0, q, q)), np.zeros((0, q, q))
            self._stacks = stacks
        return stacks

    # -- evaluation -----------------------------------------------------

    def instantiate(self, p: Sequence[float]) -> DescriptorSystem:
        """Reduced system at parameter point ``p``."""
        point = self._check_point(p)
        g = self._dense_g0.copy()
        c = self._dense_c0.copy()
        for value, gi, ci in zip(point, self.dG, self.dC):
            if value != 0.0:
                g += value * gi
                c += value * ci
        return DescriptorSystem(
            g,
            c,
            self.nominal.B,
            self.nominal.L,
            input_names=list(self.nominal.input_names),
            output_names=list(self.nominal.output_names),
            title=f"{self.nominal.title}@p",
        )

    def transfer(self, s: complex, p: Sequence[float]) -> np.ndarray:
        """Reduced parametric transfer function ``H~(s, p)``."""
        return self.instantiate(p).transfer(s)

    def frequency_response(self, frequencies: Sequence[float], p: Sequence[float]) -> np.ndarray:
        """``H~(j 2 pi f, p)`` over frequencies in hertz."""
        return self.instantiate(p).frequency_response(frequencies)

    def poles(self, p: Sequence[float], num: Optional[int] = None) -> np.ndarray:
        """Dominant poles of the reduced model at ``p``."""
        return self.instantiate(p).poles(num=num)

    def reconstruct_state(self, z: np.ndarray) -> np.ndarray:
        """Lift a reduced state ``z`` back to full coordinates ``x ~= V z``."""
        if self.projection is None:
            raise ValueError("model was built without storing its projection")
        return self.projection @ z

    def passivity_structure_margin(self, p: Sequence[float]) -> float:
        """Symmetric-part eigenvalue margin of the instantiated model."""
        return self.instantiate(p).passivity_structure_margin()

    def __repr__(self) -> str:
        return (
            f"ParametricReducedModel(size={self.size}, np={self.num_parameters}, "
            f"params={self.parameter_names})"
        )
