"""A small SPICE-like netlist parser.

Supports the subset of SPICE syntax needed to describe the passive
interconnect structures this package models, plus two directives for
declaring the MOR ports/outputs:

```
* comment (also ';' at end of line)
R<name> <node+> <node-> <value>
C<name> <node+> <node-> <value>
L<name> <node+> <node-> <value>
K<name> <Lname1> <Lname2> <k>
V<name> <node+> <node->            (voltage-source input)
.port <name> <node>                (current-driven port, B = L column)
.observe <name> <node>             (voltage output, extra L column)
.title <text>
.end
```

Values accept standard SPICE suffixes (``f p n u m k meg g t``) and
plain scientific notation, and must be finite.  Parsing is
case-insensitive for element keys and suffixes, and whitespace
separated; every element and port line takes exactly the fields shown.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Union

from repro.circuits.netlist import Netlist


class NetlistSyntaxError(ValueError):
    """Raised with a line number when a netlist line cannot be parsed."""

    def __init__(self, line_number: int, line: str, reason: str):
        super().__init__(f"line {line_number}: {reason}: {line.strip()!r}")
        self.line_number = line_number
        self.line = line
        self.reason = reason


_SUFFIXES = {
    "t": 1e12,
    "g": 1e9,
    "meg": 1e6,
    "k": 1e3,
    "m": 1e-3,
    "u": 1e-6,
    "n": 1e-9,
    "p": 1e-12,
    "f": 1e-15,
}

_VALUE_RE = re.compile(
    r"^([+-]?\d+\.?\d*(?:[eE][+-]?\d+)?)(meg|[tgkmunpf])?[a-z]*$", re.IGNORECASE
)


def parse_value(token: str) -> float:
    """Parse a SPICE value token like ``10k``, ``1.5p``, ``2e-12``.

    Trailing unit letters after the suffix are ignored (``10pF`` ==
    ``10p``), as in SPICE.  A value that overflows to infinity
    (``1e999``) is refused like the literals ``inf`` and ``nan``.
    """
    match = _VALUE_RE.match(token.strip())
    if not match:
        raise ValueError(f"cannot parse value {token!r}")
    value = float(match.group(1))
    suffix = match.group(2)
    if suffix is not None:
        value *= _SUFFIXES[suffix.lower()]
    if not math.isfinite(value):
        raise ValueError(f"value {token!r} is not finite")
    return value


def parse_netlist(source: Union[str, Iterable[str]], title: str = "netlist") -> Netlist:
    """Parse netlist text (string or iterable of lines) into a :class:`Netlist`."""
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = list(source)

    net = Netlist(title)
    for number, raw in enumerate(lines, start=1):
        line = raw.split(";", 1)[0].strip()
        if not line or line.startswith("*"):
            continue
        tokens = line.split()
        key = tokens[0]
        lowered = key.lower()
        try:
            if lowered == ".end":
                break
            if lowered == ".title":
                net.title = " ".join(tokens[1:]) or net.title
                continue
            if lowered == ".port":
                _expect(tokens, 3, number, raw)
                net.current_port(tokens[1], tokens[2])
                continue
            if lowered == ".observe":
                _expect(tokens, 3, number, raw)
                net.observe(tokens[1], tokens[2])
                continue
            if lowered.startswith("."):
                raise NetlistSyntaxError(number, raw, f"unknown directive {key!r}")
            kind = lowered[0]
            if kind == "r":
                _expect(tokens, 4, number, raw)
                net.resistor(key, tokens[1], tokens[2], parse_value(tokens[3]))
            elif kind == "c":
                _expect(tokens, 4, number, raw)
                net.capacitor(key, tokens[1], tokens[2], parse_value(tokens[3]))
            elif kind == "l":
                _expect(tokens, 4, number, raw)
                net.inductor(key, tokens[1], tokens[2], parse_value(tokens[3]))
            elif kind == "k":
                _expect(tokens, 4, number, raw)
                net.mutual(key, tokens[1], tokens[2], parse_value(tokens[3]))
            elif kind == "v":
                _expect(tokens, 3, number, raw)
                net.voltage_source(key, tokens[1], tokens[2])
            else:
                raise NetlistSyntaxError(number, raw, f"unknown element type {key[0]!r}")
        except NetlistSyntaxError:
            raise
        except ValueError as exc:
            raise NetlistSyntaxError(number, raw, str(exc)) from exc
    return net


def _expect(tokens, count: int, number: int, raw: str) -> None:
    """Require exactly ``count`` fields on the line."""
    if len(tokens) < count:
        raise NetlistSyntaxError(
            number, raw, f"expected at least {count} fields, got {len(tokens)}"
        )
    if len(tokens) > count:
        raise NetlistSyntaxError(
            number, raw,
            f"unexpected trailing field(s) {' '.join(tokens[count:])!r}",
        )
