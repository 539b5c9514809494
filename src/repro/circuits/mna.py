"""MNA (modified nodal analysis) stamping.

Assembles the sparse system matrices of paper eq. (1),

``C x' = -G x + B u,    y = L^T x``,

from a :class:`repro.circuits.netlist.Netlist`.  The state vector is

``x = [node voltages..., inductor currents..., source currents...]``.

Stamps are chosen so the assembled matrices have the passivity
structure PRIMA relies on:

- resistors stamp a symmetric PSD block into ``G``;
- capacitors stamp a symmetric PSD block into ``C``;
- inductor branch rows make the non-symmetric part of ``G`` exactly
  skew (``G + G^T`` is PSD) and put the (PSD) branch inductance matrix
  on the diagonal of ``C``;
- current ports produce ``B = L`` columns with a single ``+1`` at the
  port node.

Voltage-source inputs (if any) use the standard MNA source stamps; they
give ``B != L`` and are intended for transfer-function studies rather
than passive macromodeling.

Stamping is array-based.  The node index and per-kind element arrays
(terminal state ids, ``-1`` for ground, and values) are built once per
netlist, and each matrix -- ``G``, ``C``, ``B``, ``L`` and every
sensitivity pair -- is one vectorized COO build.  The COO triples are
emitted in a fixed order, because CSR conversion sums duplicate entries
in the order they appear and floating-point addition is not
associative:

- per two-terminal element ``(a,a,v), (b,b,v), (a,b,-v), (b,a,-v)``,
  and per inductor or source ``(a,k,1), (k,a,-1), (b,k,-1), (k,b,1)``,
  with ground entries dropped;
- ``G``: resistors, then inductor incidences, then source incidences;
- ``C``: capacitors, then inductor diagonals, then mutual pairs;
- ``dC``: capacitors, then inductors.

Changing this order can change the last bit of a summed entry, and
study fingerprints, stores and result indexes all hash the CSR arrays;
``tests/golden/mna_stamps.npz`` pins them bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from repro.circuits.elements import GROUND_NAMES
from repro.circuits.netlist import Netlist


class MNAError(ValueError):
    """Raised when a netlist cannot be assembled into a valid MNA system."""


class MNAIndex:
    """Mapping from netlist entities to MNA state/input/output indices."""

    def __init__(self, netlist: Netlist):
        self.node_index: Dict[str, int] = {name: i for i, name in enumerate(netlist.nodes())}
        n_nodes = len(self.node_index)
        self.inductor_index: Dict[str, int] = {
            ind.name: n_nodes + j for j, ind in enumerate(netlist.inductors)
        }
        n_l = len(self.inductor_index)
        self.source_index: Dict[str, int] = {
            src.name: n_nodes + n_l + j for j, src in enumerate(netlist.voltage_sources)
        }
        self.n_states = n_nodes + n_l + len(self.source_index)
        self.input_names: List[str] = [p.name for p in netlist.current_ports] + [
            s.name for s in netlist.voltage_sources
        ]
        self.output_names: List[str] = [p.name for p in netlist.current_ports] + [
            o.name for o in netlist.observations
        ]

    def node(self, name: str) -> int:
        """State index of a non-ground node (raises for unknown names)."""
        try:
            return self.node_index[name]
        except KeyError:
            raise MNAError(f"unknown node {name!r}") from None


def _two_terminal(a: np.ndarray, b: np.ndarray, value: np.ndarray):
    """Triples ``(a,a,v), (b,b,v), (a,b,-v), (b,a,-v)`` per element."""
    both = (a >= 0) & (b >= 0)
    keep = np.column_stack((a >= 0, b >= 0, both, both))
    rows = np.column_stack((a, b, a, b))[keep]
    cols = np.column_stack((a, b, b, a))[keep]
    values = np.column_stack((value, value, -value, -value))[keep]
    return rows, cols, values


def _incidence(a: np.ndarray, b: np.ndarray, branch: np.ndarray):
    """Triples ``(a,k,1), (k,a,-1), (b,k,-1), (k,b,1)`` per branch ``k``.

    KCL: the branch current leaves ``a`` and enters ``b``; the branch
    row reads ``v_a - v_b``.
    """
    keep = np.column_stack((a >= 0, a >= 0, b >= 0, b >= 0))
    rows = np.column_stack((a, branch, b, branch))[keep]
    cols = np.column_stack((branch, a, branch, b))[keep]
    signs = np.broadcast_to([1.0, -1.0, -1.0, 1.0], keep.shape)[keep]
    return rows, cols, signs


def _csr(parts, shape) -> sp.csr_matrix:
    """One COO build of the concatenated ``(rows, cols, values)`` parts."""
    columns = [np.concatenate(column) for column in zip(*parts)]
    if not columns or not columns[0].size:
        return sp.csr_matrix(shape)
    rows, cols, values = columns
    return sp.csr_matrix(sp.coo_matrix((values, (rows, cols)), shape=shape))


class _ElementArrays:
    """The node index and per-kind element arrays of one netlist.

    Terminals are state ids (``-1`` for ground); values are in netlist
    order.  Every public entry point builds one, and the generators
    share one between the nominal system and each sensitivity pair.  It
    is never cached on the netlist: a netlist is mutable.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.index = index = MNAIndex(netlist)
        # Every terminal is in the index: ``nodes()`` scans them all.
        state = dict(index.node_index)
        state.update(dict.fromkeys(GROUND_NAMES, -1))

        def ids(names) -> np.ndarray:
            return np.array([state[name] for name in names], dtype=np.intp)

        def values(elements) -> np.ndarray:
            return np.array([element.value for element in elements], dtype=float)

        resistors, capacitors = netlist.resistors, netlist.capacitors
        inductors, sources = netlist.inductors, netlist.voltage_sources
        self.r_a, self.r_b = ids(r.node_a for r in resistors), ids(r.node_b for r in resistors)
        self.r_value = values(resistors)
        self.c_a, self.c_b = ids(c.node_a for c in capacitors), ids(c.node_b for c in capacitors)
        self.c_value = values(capacitors)
        self.l_a, self.l_b = ids(l.node_a for l in inductors), ids(l.node_b for l in inductors)
        self.l_value = values(inductors)
        branch = index.inductor_index
        self.l_branch = np.array([branch[l.name] for l in inductors], dtype=np.intp)
        self.m_a = np.array([branch[m.inductor_a] for m in netlist.mutuals], dtype=np.intp)
        self.m_b = np.array([branch[m.inductor_b] for m in netlist.mutuals], dtype=np.intp)
        self.m_coupling = np.array([m.coupling for m in netlist.mutuals], dtype=float)
        self.v_plus = ids(v.node_plus for v in sources)
        self.v_minus = ids(v.node_minus for v in sources)
        self.v_branch = np.array(
            [index.source_index[v.name] for v in sources], dtype=np.intp
        )
        self.ports = ids(p.node for p in netlist.current_ports)
        self.observed = ids(o.node for o in netlist.observations)

    def assemble(self) -> "DescriptorSystem":
        """The nominal system (see :func:`assemble`)."""
        # Imported here to avoid a circular import at module load time.
        from repro.circuits.statespace import DescriptorSystem

        index = self.index
        n = index.n_states
        if n == 0:
            raise MNAError("netlist has no circuit unknowns")
        if not index.input_names:
            raise MNAError("netlist declares no inputs (ports or sources)")

        g_matrix = _csr(
            [
                _two_terminal(self.r_a, self.r_b, 1.0 / self.r_value),
                _incidence(self.l_a, self.l_b, self.l_branch),
                _incidence(self.v_plus, self.v_minus, self.v_branch),
            ],
            (n, n),
        )
        # Branch equation L di/dt = v_a - v_b; a mutual stamps
        # M = k sqrt(La Lb) (branch ids follow the node ids).
        n_nodes = len(index.node_index)
        mutual = self.m_coupling * np.sqrt(
            self.l_value[self.m_a - n_nodes] * self.l_value[self.m_b - n_nodes]
        )
        c_matrix = _csr(
            [
                _two_terminal(self.c_a, self.c_b, self.c_value),
                (self.l_branch, self.l_branch, self.l_value),
                (
                    np.column_stack((self.m_a, self.m_b)).ravel(),
                    np.column_stack((self.m_b, self.m_a)).ravel(),
                    np.repeat(mutual, 2),
                ),
            ],
            (n, n),
        )

        n_ports, n_sources = self.ports.size, self.v_branch.size
        n_observed = self.observed.size
        port_columns = (self.ports, np.arange(n_ports), np.ones(n_ports))
        # Source branch row: v_plus - v_minus = u.
        b_matrix = _csr(
            [port_columns, (self.v_branch, n_ports + np.arange(n_sources), -np.ones(n_sources))],
            (n, len(index.input_names)),
        )
        l_matrix = _csr(
            [port_columns, (self.observed, n_ports + np.arange(n_observed), np.ones(n_observed))],
            (n, len(index.output_names)),
        )

        _check_inductance_psd(self.netlist, c_matrix, index)

        return DescriptorSystem(
            g_matrix,
            c_matrix,
            b_matrix,
            l_matrix,
            input_names=list(index.input_names),
            output_names=list(index.output_names),
            state_names=_state_names(self.netlist, index),
            title=self.netlist.title,
        )

    def perturbation(
        self,
        resistors: Optional[np.ndarray] = None,
        capacitors: Optional[np.ndarray] = None,
        inductors: Optional[np.ndarray] = None,
    ):
        """``(dG, dC)`` from per-kind scale vectors in netlist order.

        ``None`` stamps nothing of that kind.  Zero scales (``0.0`` and
        ``-0.0``) stamp nothing either; NaN is stamped.
        """
        n = self.index.n_states
        g_parts, c_parts = [], []
        if resistors is not None:
            keep = resistors != 0
            g_parts.append(_two_terminal(
                self.r_a[keep], self.r_b[keep], resistors[keep] / self.r_value[keep]
            ))
        if capacitors is not None:
            keep = capacitors != 0
            c_parts.append(_two_terminal(
                self.c_a[keep], self.c_b[keep], capacitors[keep] * self.c_value[keep]
            ))
        if inductors is not None:
            keep = inductors != 0
            branch = self.l_branch[keep]
            c_parts.append((branch, branch, inductors[keep] * self.l_value[keep]))
        return _csr(g_parts, (n, n)), _csr(c_parts, (n, n))

    def perturbation_by_name(self, scales: Dict[str, float]):
        """``(dG, dC)`` from a name -> scale mapping (see :func:`assemble_perturbation`)."""
        netlist = self.netlist
        kinds = (netlist.resistors, netlist.capacitors, netlist.inductors)
        unknown = set(scales) - {element.name for elements in kinds for element in elements}
        if unknown:
            raise MNAError(f"scales reference unknown or non-RCL elements: {sorted(unknown)}")
        # ``or 0.0``: a falsy scale (None, False, 0, -0.0) stamps nothing.
        return self.perturbation(*(
            np.array([scales.get(element.name) or 0.0 for element in elements], dtype=float)
            for elements in kinds
        ))


def assemble(netlist: Netlist) -> "DescriptorSystem":
    """Assemble a netlist into a :class:`~repro.circuits.statespace.DescriptorSystem`.

    Raises
    ------
    MNAError
        If the netlist has no states or no inputs, or if a mutual
        inductance coupling would make the inductance matrix indefinite.
    """
    return _ElementArrays(netlist).assemble()


def assemble_perturbation(netlist: Netlist, scales: Dict[str, float]):
    """Stamp a sensitivity-matrix pair ``(dG, dC)`` from element scales.

    MNA matrices are linear in the element conductances, capacitances
    and inductances, so any first-order sensitivity matrix is a
    weighted re-stamp of a subset of elements.  ``scales`` maps element
    names to the dimensionless factor ``d(value)/dp / value`` -- the
    per-element relative sensitivity to the parameter.  Each listed
    element is stamped with ``scale * nominal_value`` (for resistors,
    ``scale * nominal_conductance``); unlisted elements contribute
    nothing.  Topological stamps (inductor/source incidence columns)
    never depend on element values and are therefore never part of a
    sensitivity matrix.

    Returns
    -------
    (dG, dC):
        Sparse sensitivity matrices with the same shape as the
        assembled ``G``/``C``.
    """
    return _ElementArrays(netlist).perturbation_by_name(scales)


def _check_inductance_psd(netlist: Netlist, c_matrix: sp.spmatrix, index: MNAIndex) -> None:
    if not netlist.mutuals:
        return
    l_rows = sorted(index.inductor_index.values())
    # Inductor branch indices are a contiguous block by construction
    # (n_nodes .. n_nodes + n_l), so two cheap contiguous slices extract
    # the branch inductance submatrix.  The historical fancy-indexed
    # ``tocsc()[np.ix_(...)]`` built full-size index structures over the
    # whole (huge) capacitance matrix just to read this small block.
    lo, hi = l_rows[0], l_rows[-1] + 1
    if l_rows == list(range(lo, hi)):
        branch = c_matrix.tocsr()[lo:hi].tocsc()[:, lo:hi].toarray()
    else:  # pragma: no cover - unreachable with the current index layout
        branch = c_matrix.tocsr()[l_rows].tocsc()[:, l_rows].toarray()
    eigenvalues = np.linalg.eigvalsh(branch)
    if eigenvalues.min() <= 0:
        raise MNAError(
            "mutual couplings make the branch inductance matrix indefinite "
            f"(min eigenvalue {eigenvalues.min():.3e}); reduce the coupling coefficients"
        )


def _state_names(netlist: Netlist, index: MNAIndex) -> List[str]:
    names = [""] * index.n_states
    for node, i in index.node_index.items():
        names[i] = f"v({node})"
    for ind_name, i in index.inductor_index.items():
        names[i] = f"i({ind_name})"
    for src_name, i in index.source_index.items():
        names[i] = f"i({src_name})"
    return names
