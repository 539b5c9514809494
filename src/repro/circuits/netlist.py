"""Netlist container and programmatic builder API.

A :class:`Netlist` is an ordered collection of circuit elements plus
the port/observation declarations that define the system's inputs and
outputs.  It enforces name uniqueness and referential integrity
(mutual inductances must reference existing inductors) and provides
convenience constructors so that circuit generators read naturally:

>>> net = Netlist("divider")
>>> net.resistor("R1", "in", "mid", 1e3)
>>> net.resistor("R2", "mid", "0", 1e3)
>>> net.capacitor("C1", "mid", "0", 1e-12)
>>> net.current_port("P1", "in")
>>> net.node_count()
2
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterator, List, Optional

from repro.circuits.elements import (
    Capacitor,
    CurrentPort,
    GROUND_NAMES,
    Inductor,
    MutualInductance,
    Observation,
    Resistor,
    VoltageSource,
)


def _canonical(node: str) -> str:
    """Normalize node names; all ground aliases collapse to ``"0"``."""
    node = str(node)
    return "0" if node in GROUND_NAMES else node


class Netlist:
    """Ordered, validated collection of elements, ports and outputs."""

    def __init__(self, title: str = "untitled"):
        self.title = title
        self.resistors: List[Resistor] = []
        self.capacitors: List[Capacitor] = []
        self.inductors: List[Inductor] = []
        self.mutuals: List[MutualInductance] = []
        self.current_ports: List[CurrentPort] = []
        self.voltage_sources: List[VoltageSource] = []
        self.observations: List[Observation] = []
        self._names: Dict[str, str] = {}
        self._inductor_names: Dict[str, Inductor] = {}

    # -- construction -------------------------------------------------

    def _register(self, name: str, kind: str) -> None:
        if name in self._names:
            raise ValueError(
                f"duplicate element name {name!r} (already a {self._names[name]})"
            )
        self._names[name] = kind

    def resistor(self, name: str, node_a: str, node_b: str, value: float) -> Resistor:
        """Add a resistor and return it."""
        element = Resistor(name, _canonical(node_a), _canonical(node_b), float(value))
        self._register(name, "resistor")
        self.resistors.append(element)
        return element

    def capacitor(self, name: str, node_a: str, node_b: str, value: float) -> Capacitor:
        """Add a capacitor and return it."""
        element = Capacitor(name, _canonical(node_a), _canonical(node_b), float(value))
        self._register(name, "capacitor")
        self.capacitors.append(element)
        return element

    def inductor(self, name: str, node_a: str, node_b: str, value: float) -> Inductor:
        """Add an inductor and return it."""
        element = Inductor(name, _canonical(node_a), _canonical(node_b), float(value))
        self._register(name, "inductor")
        self.inductors.append(element)
        self._inductor_names[name] = element
        return element

    def mutual(self, name: str, inductor_a: str, inductor_b: str, coupling: float) -> MutualInductance:
        """Add a mutual-inductance coupling between two existing inductors."""
        if inductor_a not in self._inductor_names:
            raise ValueError(f"mutual {name}: unknown inductor {inductor_a!r}")
        if inductor_b not in self._inductor_names:
            raise ValueError(f"mutual {name}: unknown inductor {inductor_b!r}")
        element = MutualInductance(name, inductor_a, inductor_b, float(coupling))
        self._register(name, "mutual")
        self.mutuals.append(element)
        return element

    def current_port(self, name: str, node: str) -> CurrentPort:
        """Declare a current-driven, voltage-observed external port."""
        element = CurrentPort(name, _canonical(node))
        self._register(name, "port")
        self.current_ports.append(element)
        return element

    def voltage_source(self, name: str, node_plus: str, node_minus: str = "0") -> VoltageSource:
        """Declare a voltage-source input between two nodes."""
        element = VoltageSource(name, _canonical(node_plus), _canonical(node_minus))
        self._register(name, "source")
        self.voltage_sources.append(element)
        return element

    def observe(self, name: str, node: str) -> Observation:
        """Declare a named voltage output at ``node``."""
        element = Observation(name, _canonical(node))
        self._register(name, "observation")
        self.observations.append(element)
        return element

    # -- introspection ------------------------------------------------

    def elements(self) -> Iterator:
        """Iterate over all passive elements (R, C, L, K) in order."""
        yield from self.resistors
        yield from self.capacitors
        yield from self.inductors
        yield from self.mutuals

    def nodes(self) -> List[str]:
        """All non-ground node names, in first-appearance order."""
        seen = dict.fromkeys(chain(
            (node for group in (self.resistors, self.capacitors, self.inductors)
             for element in group for node in (element.node_a, element.node_b)),
            (port.node for port in self.current_ports),
            (node for source in self.voltage_sources
             for node in (source.node_plus, source.node_minus)),
            (obs.node for obs in self.observations),
        ))
        # Dropping the ground names keeps the order of the others.
        for ground in GROUND_NAMES:
            seen.pop(ground, None)
        return list(seen)

    def node_count(self) -> int:
        """Number of non-ground nodes."""
        return len(self.nodes())

    def state_size(self) -> int:
        """Size of the MNA state vector (nodes + L and V branch currents)."""
        return self.node_count() + len(self.inductors) + len(self.voltage_sources)

    def input_count(self) -> int:
        """Number of inputs (current ports + voltage sources)."""
        return len(self.current_ports) + len(self.voltage_sources)

    def output_count(self) -> int:
        """Number of outputs (current ports + explicit observations)."""
        return len(self.current_ports) + len(self.observations)

    def find_inductor(self, name: str) -> Optional[Inductor]:
        """Look up an inductor by name (``None`` if absent)."""
        return self._inductor_names.get(name)

    def stats(self) -> Dict[str, int]:
        """Element/unknown counts, for reports and sanity checks."""
        return {
            "nodes": self.node_count(),
            "states": self.state_size(),
            "resistors": len(self.resistors),
            "capacitors": len(self.capacitors),
            "inductors": len(self.inductors),
            "mutuals": len(self.mutuals),
            "ports": len(self.current_ports),
            "sources": len(self.voltage_sources),
            "observations": len(self.observations),
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"Netlist({self.title!r}, nodes={s['nodes']}, states={s['states']}, "
            f"R={s['resistors']}, C={s['capacitors']}, L={s['inductors']}, "
            f"ports={s['ports']})"
        )
