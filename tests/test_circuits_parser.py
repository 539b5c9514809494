"""Tests for the SPICE-like netlist parser."""

import numpy as np
import pytest

from repro.circuits import assemble, parse_netlist
from repro.circuits.parser import NetlistSyntaxError, parse_value


class TestValues:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("10", 10.0),
            ("1.5", 1.5),
            ("2e-12", 2e-12),
            ("10k", 1e4),
            ("1.5p", 1.5e-12),
            ("10pF", 10e-12),
            ("3n", 3e-9),
            ("2u", 2e-6),
            ("5m", 5e-3),
            ("4MEG", 4e6),
            ("1g", 1e9),
            ("2f", 2e-15),
            ("-3.5k", -3500.0),
        ],
    )
    def test_suffixes(self, token, expected):
        assert parse_value(token) == pytest.approx(expected)

    @pytest.mark.parametrize("token", ["", "abc", "1..2", "k10"])
    def test_invalid_values(self, token):
        with pytest.raises(ValueError):
            parse_value(token)

    @pytest.mark.parametrize("token", ["1e999", "-1e999", "1e300t", "inf", "nan"])
    def test_non_finite_values_refused(self, token):
        with pytest.raises(ValueError):
            parse_value(token)


NETLIST = """
* an RC divider
.title demo
R1 in mid 1k
R2 mid 0 1k   ; load
C1 mid gnd 1p
.port P1 in
.observe out mid
.end
this line is ignored after .end
"""


class TestParsing:
    def test_elements_parsed(self):
        net = parse_netlist(NETLIST)
        assert net.title == "demo"
        assert len(net.resistors) == 2
        assert net.resistors[0].value == pytest.approx(1000.0)
        assert len(net.capacitors) == 1
        assert net.capacitors[0].node_b == "0"  # gnd alias collapsed
        assert len(net.current_ports) == 1
        assert len(net.observations) == 1

    def test_assembles_and_solves(self):
        system = assemble(parse_netlist(NETLIST))
        # DC: port sees R1 + R2 = 2k.
        np.testing.assert_allclose(system.dc_gain()[0, 0], 2000.0, rtol=1e-12)

    def test_iterable_of_lines(self):
        net = parse_netlist(["R1 a 0 50", ".port P a"])
        assert net.resistors[0].value == 50.0

    def test_inductor_and_mutual(self):
        text = """
        R1 a 0 10
        L1 a b 1n
        L2 a c 1n
        K1 L1 L2 0.4
        C1 b 0 1p
        C2 c 0 1p
        .port P a
        """
        net = parse_netlist(text)
        assert len(net.inductors) == 2
        assert net.mutuals[0].coupling == pytest.approx(0.4)

    def test_voltage_source(self):
        net = parse_netlist(["V1 in 0", "R1 in out 1k", "C1 out 0 1p", ".observe y out"])
        assert len(net.voltage_sources) == 1
        system = assemble(net)
        np.testing.assert_allclose(system.dc_gain()[0, 0], 1.0, rtol=1e-12)


class TestErrors:
    def test_unknown_element(self):
        with pytest.raises(NetlistSyntaxError, match="unknown element"):
            parse_netlist(["Q1 a b c"])

    def test_unknown_directive(self):
        with pytest.raises(NetlistSyntaxError, match="unknown directive"):
            parse_netlist([".foo bar"])

    def test_missing_fields(self):
        with pytest.raises(NetlistSyntaxError, match="expected at least"):
            parse_netlist(["R1 a b"])

    def test_bad_value_reports_line_number(self):
        with pytest.raises(NetlistSyntaxError) as excinfo:
            parse_netlist(["* comment", "R1 a b notanumber"])
        assert excinfo.value.line_number == 2

    @pytest.mark.parametrize("line, reason", [
        ("R1 a 0 1e999", "not finite"),
        ("C1 a 0 1e999", "not finite"),
        ("R1 a 0 5 extra junk", "trailing field(s) 'extra junk'"),
        ("K1 L1 L2 0.4 0.5", "trailing field(s) '0.5'"),
        ("V1 in 0 extra", "trailing field(s) 'extra'"),
        (".port in a b c", "trailing field(s) 'b c'"),
        (".observe out a b", "trailing field(s) 'b'"),
    ])
    def test_refusals_are_one_line_naming_the_line(self, line, reason):
        with pytest.raises(NetlistSyntaxError) as excinfo:
            parse_netlist(["* header", line])
        message = str(excinfo.value)
        assert excinfo.value.line_number == 2
        assert reason in message and repr(line) in message
        assert "\n" not in message

    def test_duplicate_name_propagates(self):
        with pytest.raises(NetlistSyntaxError, match="duplicate"):
            parse_netlist(["R1 a 0 1", "R1 b 0 1"])
