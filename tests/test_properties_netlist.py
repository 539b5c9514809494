"""Netlist text at the trust boundary: parsed, or refused in one line.

A netlist arrives as text -- from a file on the command line or inside
a served job document -- so :func:`~repro.circuits.parse_netlist` sits
on a trust boundary.  This suite draws netlist text line by line: R, C,
L, K and V cards and ``.port`` / ``.observe`` / ``.title`` / ``.end``
lines (plus unknown cards and directives), each with its fields
dropped or extra ones appended; node names including the ground
aliases and non-ASCII names; ``*`` comment lines and ``;`` trailing
comments.  Values carry SPICE suffixes and unit letters, signs,
``nan`` / ``inf`` / ``1e999``, long digit strings and non-ASCII digits.

``parse_netlist`` must return a :class:`~repro.circuits.netlist.Netlist`
whose element values are finite (and positive for R, C and L), or raise
:class:`~repro.circuits.parser.NetlistSyntaxError` with a one-line
message naming the line; it may raise nothing else.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits.netlist import Netlist
from repro.circuits.parser import NetlistSyntaxError, parse_netlist

SETTINGS = settings(
    deadline=None, max_examples=40,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

NODES = st.sampled_from(
    ["0", "gnd", "GND", "ground", "n1", "n2", "a", "B", "n_3", "ñ", "узел", "0x"]
)
DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=6)
NON_ASCII_DIGITS = st.text(alphabet="٠١٢٣٤٥٦٧٨٩０１２３４５６７８９", min_size=1, max_size=4)


@st.composite
def spice_numbers(draw):
    """A SPICE-style number: sign, digits, fraction, exponent, suffix."""
    text = draw(st.sampled_from(["", "+", "-"])) + draw(DIGITS)
    if draw(st.booleans()):
        text += "." + draw(st.sampled_from(["", "5", "25", "000001"]))
    if draw(st.booleans()):
        text += draw(st.sampled_from(["e", "E"])) + draw(
            st.sampled_from(["", "-", "+"])) + draw(DIGITS)
    return text + draw(st.sampled_from(
        ["", "f", "p", "n", "u", "m", "k", "meg", "MEG", "g", "t", "K", "pF",
         "kohm", "x", "megx", "e"]))


VALUES = st.one_of(
    spice_numbers(),
    st.sampled_from(["nan", "NaN", "inf", "-inf", "1e999", "-1e999", "1e-999",
                     "0", "-0", "0.0p", "1e308meg", ".", "-", "e5", "1..2",
                     "1e", "", "10k10"]),
    st.text(alphabet="9", min_size=300, max_size=600),
    st.builds(lambda digits, suffix: digits + suffix, NON_ASCII_DIGITS,
              st.sampled_from(["", "k", "p"])),
    st.text(max_size=6).filter(lambda text: text.strip() == text and " " not in text),
)

CARD_FIELDS = {"R": 4, "C": 4, "L": 4, "K": 4, "V": 3, "X": 4}


@st.composite
def element_lines(draw):
    """One element card, its field count off by up to two either way."""
    kind = draw(st.sampled_from(sorted(CARD_FIELDS)))
    name = draw(st.sampled_from([kind, kind.lower()])) + draw(
        st.sampled_from(["1", "2", "a", "_x"]))
    if kind == "K":
        fields = [draw(st.sampled_from(["L1", "l1", "L2", "Lx"])) for _ in range(2)]
    else:
        fields = [draw(NODES), draw(NODES)]
    if CARD_FIELDS[kind] == 4:
        fields.append(draw(VALUES))
    count = max(0, len(fields) + draw(st.integers(-2, 2)))
    fields = (fields + [draw(VALUES) for _ in range(2)])[:count]
    return " ".join([name, *fields])


@st.composite
def directive_lines(draw):
    """A ``.port`` / ``.observe`` / ``.title`` / ``.end`` (or unknown)
    directive, its field count off by up to two either way."""
    directive = draw(st.sampled_from(
        [".port", ".PORT", ".observe", ".title", ".end", ".END", ".option"]))
    fields = [draw(st.sampled_from(["p", "out", "in"])), draw(NODES)]
    if directive.lower() == ".title":
        fields = [draw(st.text(max_size=12))]
    count = max(0, len(fields) + draw(st.integers(-2, 2)))
    fields = (fields + [draw(NODES) for _ in range(2)])[:count]
    return " ".join([directive, *fields])


LINES = st.one_of(
    element_lines(),
    directive_lines(),
    st.builds(lambda text: "*" + text, st.text(max_size=12)),
    st.just(""),
    st.text(max_size=16),
)


@st.composite
def netlists(draw):
    lines = draw(st.lists(LINES, max_size=12))
    comments = draw(st.lists(st.booleans(), min_size=len(lines), max_size=len(lines)))
    return "\n".join(
        line + (" ; note" if comment else "") for line, comment in zip(lines, comments)
    )


@SETTINGS
@given(text=netlists())
def test_netlist_text_parses_or_is_refused_in_one_line(text):
    try:
        net = parse_netlist(text)
    except NetlistSyntaxError as exc:
        message = str(exc)
        assert message.startswith("line ") and len(message.splitlines()) == 1, message
        return
    assert isinstance(net, Netlist)
    for element in (*net.resistors, *net.capacitors, *net.inductors):
        assert math.isfinite(element.value) and element.value > 0, element
    for mutual in net.mutuals:
        assert math.isfinite(mutual.coupling), mutual
