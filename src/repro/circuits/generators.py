"""Benchmark circuit generators (the paper's Section 5 workloads).

Four families of circuits, mirroring the paper's evaluation:

- :func:`rc_ladder` / :func:`rc_tree` -- generic RC structures;
  :func:`rc_network_767` builds the 767-unknown RC network of
  Section 5.1 (random topology and values, two random variational
  sources via :func:`with_random_variations`).
- :func:`coupled_rlc_bus` -- the two-bit bus of Section 5.2: a coupled
  4-port RLC network with 180 segments per line (MNA size ~1082 vs the
  paper's 1086; the paper does not give its exact segment model).
- :func:`clock_tree` -- balanced clock trees routed on an M5/M6/M7
  stack with extraction-based width sensitivities;
  :func:`rcnet_a` (78 unknowns) and :func:`rcnet_b` (333 unknowns)
  match the node counts of the industrial nets in Section 5.3.

All generators are deterministic given their ``seed``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.extraction import MetalLayer, Wire, extract_wire, standard_stack
from repro.circuits.mna import _ElementArrays, assemble
from repro.circuits.netlist import Netlist
from repro.circuits.statespace import DescriptorSystem
from repro.circuits.variational import ParametricSystem


# ---------------------------------------------------------------------------
# RC structures
# ---------------------------------------------------------------------------

def rc_ladder(
    num_segments: int,
    resistance: float = 10.0,
    capacitance: float = 1e-14,
    drive_resistance: float = 10.0,
    title: str = "rc-ladder",
    port_at_far_end: bool = False,
) -> Netlist:
    """Uniform RC ladder driven at one end.

    ``num_segments`` series resistors with grounded capacitors at each
    junction; a current port at the near end and, optionally, a second
    port at the far end.  The far-end node is always observed.  A
    driver shunt resistance at the near end provides the DC path to
    ground that keeps ``G`` nonsingular (current ports alone leave an
    RC tree floating at DC).
    """
    if num_segments < 1:
        raise ValueError("need at least one segment")
    net = Netlist(title)
    net.resistor("Rdrv", "n0", "0", drive_resistance)
    for j in range(num_segments):
        net.resistor(f"R{j}", f"n{j}", f"n{j + 1}", resistance)
        net.capacitor(f"C{j}", f"n{j + 1}", "0", capacitance)
    net.current_port("in", "n0")
    if port_at_far_end:
        net.current_port("out", f"n{num_segments}")
    else:
        net.observe("far", f"n{num_segments}")
    return net


def rc_tree(
    num_nodes: int,
    seed: int = 0,
    resistance_range: Tuple[float, float] = (5.0, 50.0),
    capacitance_range: Tuple[float, float] = (5e-15, 5e-14),
    max_children: int = 3,
    title: str = "rc-tree",
) -> Netlist:
    """Random RC tree with exactly ``num_nodes`` non-ground nodes.

    Node 0 is the root (driven by a current port, with a driver shunt
    resistance to ground providing the DC path).  Every other node
    attaches to a random existing node (bounded fan-out) through a
    resistor and has a grounded capacitor, producing the classic RC
    interconnect-tree structure.  The last node added (a leaf far from
    the root) is observed.
    """
    if num_nodes < 2:
        raise ValueError("need at least two nodes")
    rng = np.random.default_rng(seed)
    net = Netlist(title)
    children: Dict[int, int] = {0: 0}
    r_lo, r_hi = resistance_range
    c_lo, c_hi = capacitance_range
    net.resistor("Rdrv", "n0", "0", float(np.sqrt(r_lo * r_hi)))
    net.capacitor("C0", "n0", "0", rng.uniform(c_lo, c_hi))
    for j in range(1, num_nodes):
        candidates = [node for node, count in children.items() if count < max_children]
        parent = int(rng.choice(candidates))
        children[parent] += 1
        children[j] = 0
        net.resistor(f"R{j}", f"n{parent}", f"n{j}", rng.uniform(r_lo, r_hi))
        net.capacitor(f"C{j}", f"n{j}", "0", rng.uniform(c_lo, c_hi))
    net.current_port("in", "n0")
    net.observe("far", f"n{num_nodes - 1}")
    return net


def with_random_variations(
    netlist: Netlist,
    num_parameters: int,
    seed: int = 0,
    relative_spread: float = 1.0,
    parameter_names: Optional[List[str]] = None,
    targets: Optional[List[str]] = None,
) -> ParametricSystem:
    """Attach random variational directions to an RC(L) netlist.

    This reproduces the paper's construction for the Section 5.1/5.2
    examples: "we randomly vary the RC values of the circuit, and then
    extract the sensitivity matrices w.r.t. these two variational
    sources".  Each parameter ``p_i`` scales every targeted element
    value by an element-specific random factor ``alpha_{e,i}`` drawn
    uniformly from ``[0, relative_spread]``, so a parameter excursion
    ``p_i = 0.7`` perturbs element values by up to
    ``70% * relative_spread``.

    The convention is *value*-based: ``p_i = +0.7`` increases targeted
    element **values** (ohms, farads, henries) by up to 70%.  For a
    resistor a value increase means a conductance *decrease*, so the
    stamped conductance sensitivity is ``-alpha_e * g_e`` -- without
    this sign the R- and C-excursions of a source cancel in every time
    constant and the network barely responds to variation.

    ``targets`` assigns each parameter an element class:
    ``"resistors"``, ``"capacitors"``, ``"inductors"`` or ``"all"``
    (default ``"all"`` for every parameter).

    Each parameter draws one vector,
    ``rng.uniform(0, relative_spread, size=len(pool))`` over its pool
    (resistors, then capacitors, then inductors, in netlist order) --
    the same sequence as one scalar draw per element.  The nominal
    system and every sensitivity pair are stamped from one set of
    element arrays (see :mod:`repro.circuits.mna`), each element
    scaled by ``alpha_{e,i}``.
    """
    if num_parameters < 1:
        raise ValueError("need at least one variational parameter")
    if targets is None:
        targets = ["all"] * num_parameters
    if len(targets) != num_parameters:
        raise ValueError("one target class per parameter required")
    counts = {
        "resistors": len(netlist.resistors),
        "capacitors": len(netlist.capacitors),
        "inductors": len(netlist.inductors),
    }
    pools = {kind: (kind,) for kind in counts}
    pools["all"] = tuple(counts)
    rng = np.random.default_rng(seed)
    stamps = _ElementArrays(netlist)
    nominal = stamps.assemble()
    dg, dc = [], []
    for target in targets:
        if target not in pools:
            raise ValueError(
                f"unknown target class {target!r}; choose from {sorted(pools)}"
            )
        kinds = pools[target]
        sizes = [counts[kind] for kind in kinds]
        alphas = rng.uniform(0.0, relative_spread, size=sum(sizes))
        scales = dict(zip(kinds, np.split(alphas, np.cumsum(sizes)[:-1])))
        if "resistors" in scales:
            # d(conductance)/d(relative R-value increase) = -g.
            scales["resistors"] = -scales["resistors"]
        gi, ci = stamps.perturbation(**scales)
        dg.append(gi)
        dc.append(ci)
    return ParametricSystem(nominal, dg, dc, parameter_names=parameter_names)


def rc_network_767(seed: int = 2005, num_parameters: int = 2) -> ParametricSystem:
    """The Section 5.1 workload: a 767-unknown RC net, two random sources.

    Each variational source perturbs the R and C *values* of every
    element with a random per-element strength ("we randomly vary the
    RC values of the circuit" -- paper Section 5.1); positive
    excursions slow the network down coherently, producing the large
    Fig. 3 response shifts.  Element values sit in a moderate range
    (R in 10-20 ohm, C in 10-20 fF per segment) so that, as in the
    paper, an 8-moment nominal PRIMA model is already visually exact
    for the nominal system over 10 MHz - 10 GHz.

    With two overlapping "all"-element sources, a per-element spread of
    0.5 keeps every conductance strictly positive for excursions up to
    ``|p_1| + |p_2| <= 2 * 0.7`` (factor ``>= 1 - 0.5*1.4 = 0.3``),
    so the full +-70% box of the Fig. 3 protocol is well-posed.
    """
    net = rc_tree(
        767,
        seed=seed,
        resistance_range=(10.0, 20.0),
        capacitance_range=(1e-14, 2e-14),
        title="rc-767",
    )
    return with_random_variations(
        net, num_parameters, seed=seed + 1, relative_spread=0.5
    )


def power_grid_mesh(
    rows: int,
    columns: int,
    segment_resistance: float = 0.5,
    node_capacitance: float = 5e-14,
    via_resistance: float = 1.0,
    num_supplies: int = 2,
    title: str = "power-mesh",
) -> Netlist:
    """A rows x columns RC power-grid mesh.

    Power-distribution networks are the other canonical variational
    interconnect workload (sheet resistance varies with metal
    thickness): a regular resistive mesh with decoupling capacitance at
    every node, tapped by ``num_supplies`` supply vias (current ports
    with a via resistance to ground).  Mesh circuits have much higher
    connectivity than trees, exercising the sparse solvers and the
    reducers on a structurally different graph.

    State count: ``rows * columns`` mesh nodes.
    """
    if rows < 2 or columns < 2:
        raise ValueError("mesh needs at least 2x2 nodes")
    if num_supplies < 1:
        raise ValueError("need at least one supply tap")
    net = Netlist(title)

    def node(r: int, c: int) -> str:
        return f"g{r}_{c}"

    for r in range(rows):
        for c in range(columns):
            net.capacitor(f"C{r}_{c}", node(r, c), "0", node_capacitance)
            if c + 1 < columns:
                net.resistor(f"Rh{r}_{c}", node(r, c), node(r, c + 1),
                             segment_resistance)
            if r + 1 < rows:
                net.resistor(f"Rv{r}_{c}", node(r, c), node(r + 1, c),
                             segment_resistance)

    # Supply taps spread along the diagonal.
    taps = []
    for k in range(num_supplies):
        r = (k * (rows - 1)) // max(num_supplies - 1, 1)
        c = (k * (columns - 1)) // max(num_supplies - 1, 1)
        if (r, c) in taps:
            continue
        taps.append((r, c))
    for k, (r, c) in enumerate(taps):
        net.resistor(f"Rvia{k}", node(r, c), "0", via_resistance)
        net.current_port(f"vdd{k}", node(r, c))
    # Observe the worst-case (center) node for IR-drop style analysis.
    net.observe("center", node(rows // 2, columns // 2))
    return net


# ---------------------------------------------------------------------------
# Coupled RLC bus (Section 5.2)
# ---------------------------------------------------------------------------

def coupled_rlc_bus(
    num_lines: int = 2,
    num_segments: int = 180,
    total_resistance: float = 60.0,
    total_inductance: float = 4e-9,
    total_capacitance: float = 1.6e-12,
    coupling_capacitance_ratio: float = 0.5,
    mutual_coupling: float = 0.3,
    termination_resistance: float = 25.0,
    title: str = "rlc-bus",
) -> Netlist:
    """A coupled multi-line RLC bus with ports at both ends of each line.

    Each line is a chain of ``num_segments`` RL-pi segments: series R
    into an internal node, series L to the next junction, a grounded
    capacitor at each junction, plus line-to-line coupling capacitors
    and mutual inductance between corresponding segments of adjacent
    lines.  With 2 lines and 180 segments the MNA size is
    ``2*(2*180 + 1) + 2*180 = 1082``, matching the scale of the
    paper's 1086-unknown two-bit bus.
    """
    if num_lines < 1:
        raise ValueError("need at least one line")
    if num_segments < 1:
        raise ValueError("need at least one segment")
    net = Netlist(title)
    r_seg = total_resistance / num_segments
    l_seg = total_inductance / num_segments
    c_seg = total_capacitance / num_segments
    c_couple = c_seg * coupling_capacitance_ratio

    def node(line: int, j: int) -> str:
        return f"l{line}n{j}"

    for line in range(num_lines):
        for j in range(num_segments):
            mid = f"l{line}m{j}"
            net.resistor(f"R{line}_{j}", node(line, j), mid, r_seg)
            net.inductor(f"L{line}_{j}", mid, node(line, j + 1), l_seg)
            net.capacitor(f"C{line}_{j}", node(line, j + 1), "0", c_seg)
        # Driver shunt at the near end: DC path to ground (keeps G
        # nonsingular) and a structurally complete C diagonal.
        net.resistor(f"Rterm{line}", node(line, 0), "0", termination_resistance)
        net.capacitor(f"C{line}_in", node(line, 0), "0", c_seg / 2.0)

    for line in range(num_lines - 1):
        for j in range(num_segments):
            net.capacitor(
                f"K{line}_{j}", node(line, j + 1), node(line + 1, j + 1), c_couple
            )
            if mutual_coupling:
                net.mutual(
                    f"M{line}_{j}", f"L{line}_{j}", f"L{line + 1}_{j}", mutual_coupling
                )

    for line in range(num_lines):
        net.current_port(f"near{line}", node(line, 0))
        net.current_port(f"far{line}", node(line, num_segments))
    return net


# ---------------------------------------------------------------------------
# Clock trees (Section 5.3)
# ---------------------------------------------------------------------------

def clock_tree(
    level_segments: Sequence[int],
    level_layers: Sequence[str],
    stack: Optional[Dict[str, MetalLayer]] = None,
    trunk_length: float = 400.0,
    leaf_load: float = 5e-15,
    driver_resistance: float = 20.0,
    title: str = "clock-tree",
) -> ParametricSystem:
    """Balanced binary clock tree with extraction-based sensitivities.

    The tree has a trunk edge followed by ``len(level_segments) - 1``
    binary-branching levels; level ``l`` has ``2^max(l-1, 0) ...``
    precisely: the trunk is one edge, level ``l >= 1`` has ``2^l``
    edges.  Each edge at level ``l`` is routed on ``level_layers[l]``
    and split into ``level_segments[l]`` RC segments extracted from the
    wire geometry (:mod:`repro.circuits.extraction`).  Wire length
    halves at each level, so total MNA size is
    ``1 + sum_l (edges_l * level_segments[l])``.

    Variational parameters are the relative width deviations of each
    distinct layer used, in stack order -- three parameters (M5, M6,
    M7) for the standard configurations, exactly the paper's setup.

    Returns a :class:`~repro.circuits.variational.ParametricSystem`
    whose sensitivities come from the closed-form extraction
    derivatives.
    """
    if len(level_segments) != len(level_layers):
        raise ValueError("level_segments and level_layers must have equal length")
    if not level_segments:
        raise ValueError("need at least the trunk level")
    stack = stack if stack is not None else standard_stack()
    for layer_name in level_layers:
        if layer_name not in stack:
            raise ValueError(f"layer {layer_name!r} not in metal stack")

    net = Netlist(title)
    # element name -> (layer name, d(value)/dp / value) for R and C stamps.
    sensitivity_tags: List[Tuple[str, str, float]] = []
    node_counter = [0]

    def new_node() -> str:
        node_counter[0] += 1
        return f"t{node_counter[0]}"

    root = "t0"

    def route_edge(level: int, start_node: str, edge_id: str) -> str:
        """Route one tree edge as a chain of extracted RC segments."""
        layer = stack[level_layers[level]]
        num_segs = level_segments[level]
        edge_length = trunk_length / (2 ** level)
        seg_wire = Wire(layer, edge_length / num_segs)
        extracted = extract_wire(seg_wire)
        current = start_node
        for s in range(num_segs):
            nxt = new_node()
            r_name = f"R{edge_id}_{s}"
            c_name = f"C{edge_id}_{s}"
            net.resistor(r_name, current, nxt, extracted.resistance)
            net.capacitor(c_name, nxt, "0", extracted.capacitance)
            # Relative sensitivities: dG/dp / G0 and dC/dp / C0.
            sensitivity_tags.append(
                (r_name, layer.name, extracted.dconductance_dp * extracted.resistance)
            )
            sensitivity_tags.append(
                (c_name, layer.name, extracted.dcapacitance_dp / extracted.capacitance)
            )
            current = nxt
        return current

    # Trunk (level 0): a single edge from the root.
    frontier = [route_edge(0, root, "e0")]
    for level in range(1, len(level_segments)):
        next_frontier = []
        for parent_index, parent_node in enumerate(frontier):
            for branch in range(2):
                edge_id = f"e{level}_{parent_index}_{branch}"
                next_frontier.append(route_edge(level, parent_node, edge_id))
        frontier = next_frontier

    for leaf_index, leaf in enumerate(frontier):
        net.capacitor(f"Cload{leaf_index}", leaf, "0", leaf_load)
    # Driver output impedance to ground at the root: the DC path that
    # keeps G nonsingular (the port alone would leave the tree floating).
    net.resistor("Rdrv", root, "0", driver_resistance)
    net.current_port("clk", root)
    net.observe("leaf_first", frontier[0])
    net.observe("leaf_last", frontier[-1])

    stamps = _ElementArrays(net)
    nominal = stamps.assemble()
    used_layers = sorted(
        {name for _, name, _ in sensitivity_tags},
        key=lambda name: list(stack).index(name),
    )
    dg, dc = [], []
    for layer_name in used_layers:
        scales = {
            element: scale
            for element, tagged_layer, scale in sensitivity_tags
            if tagged_layer == layer_name
        }
        gi, ci = stamps.perturbation_by_name(scales)
        dg.append(gi)
        dc.append(ci)
    return ParametricSystem(
        nominal, dg, dc, parameter_names=[f"{name}_width" for name in used_layers]
    )


def rcnet_a() -> ParametricSystem:
    """RCNetA analogue: 78 MNA unknowns, three layer-width parameters."""
    return clock_tree(
        level_segments=(3, 3, 3, 3, 2),
        level_layers=("M7", "M7", "M6", "M6", "M5"),
        title="RCNetA",
    )


def rcnet_b() -> ParametricSystem:
    """RCNetB analogue: 333 MNA unknowns, three layer-width parameters."""
    return clock_tree(
        level_segments=(4, 12, 8, 6, 6, 4),
        level_layers=("M7", "M7", "M6", "M6", "M5", "M5"),
        title="RCNetB",
    )


def assembled(netlist: Netlist) -> DescriptorSystem:
    """Convenience re-export of :func:`repro.circuits.mna.assemble`."""
    return assemble(netlist)
