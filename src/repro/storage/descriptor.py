"""Layout-description language.

The paper notes that extractor functions "can be implemented manually, or
generated automatically from layout description languages [17]" (Weng et
al.'s automatic data virtualization; BinX [3] is a similar tool).  This
module implements a small such language so the repository supports the
automatic path end to end.

A descriptor is plain text::

    layout reservoir_t1 {
        order: row_major;
        field x     float32 coordinate;
        field y     float32 coordinate;
        field z     float32 coordinate;
        field oilp  float32;
    }

``order`` names a registered chunk layout (``row_major``, ``column_major``
or ``blocked(N)``); each ``field`` line declares an attribute, in physical
order, with an optional ``coordinate`` marker.  ``#`` starts a comment.

:func:`parse_layout_descriptor` turns the text into a
:class:`LayoutDescriptor`; :func:`repro.storage.extractor.build_extractor`
compiles a descriptor into a working extractor.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Tuple

from repro.datamodel.schema import Attribute, Schema
from repro.storage.layout import ChunkLayout, layout_by_name

__all__ = ["LayoutDescriptor", "parse_layout_descriptor"]

_HEADER_RE = re.compile(r"^layout\s+([A-Za-z_]\w*)\s*\{$")
_ORDER_RE = re.compile(r"^order\s*:\s*([A-Za-z_]\w*(?:\(\d+\))?)\s*;$")
_FIELD_RE = re.compile(r"^field\s+([A-Za-z_]\w*)\s+([A-Za-z_]\w*)(\s+coordinate)?\s*;$")


@dataclass(frozen=True)
class LayoutDescriptor:
    """Parsed form of one ``layout`` block."""

    name: str
    order: str
    schema: Schema

    def layout(self) -> ChunkLayout:
        return layout_by_name(self.order)


class DescriptorSyntaxError(ValueError):
    """Raised on malformed descriptor text, with a line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def parse_layout_descriptor(text: str) -> Tuple[LayoutDescriptor, ...]:
    """Parse descriptor text into one :class:`LayoutDescriptor` per block."""
    descriptors = []
    name = None
    order = None
    fields: list[Attribute] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if name is None:
            m = _HEADER_RE.match(line)
            if not m:
                raise DescriptorSyntaxError(lineno, f"expected 'layout <name> {{', got {line!r}")
            name = m.group(1)
            order = None
            fields = []
            continue
        if line == "}":
            if order is None:
                raise DescriptorSyntaxError(lineno, f"layout {name!r} has no 'order:' line")
            if not fields:
                raise DescriptorSyntaxError(lineno, f"layout {name!r} declares no fields")
            try:
                layout_by_name(order)
            except KeyError as exc:
                raise DescriptorSyntaxError(lineno, str(exc)) from None
            try:
                schema = Schema(fields)
            except ValueError as exc:
                raise DescriptorSyntaxError(lineno, str(exc)) from None
            descriptors.append(LayoutDescriptor(name=name, order=order, schema=schema))
            name = None
            continue
        m = _ORDER_RE.match(line)
        if m:
            if order is not None:
                raise DescriptorSyntaxError(lineno, "duplicate 'order:' line")
            order = m.group(1)
            continue
        m = _FIELD_RE.match(line)
        if m:
            fname, dtype, coord = m.group(1), m.group(2), m.group(3)
            try:
                fields.append(Attribute(fname, dtype, coordinate=bool(coord)))
            except ValueError as exc:
                raise DescriptorSyntaxError(lineno, str(exc)) from None
            continue
        raise DescriptorSyntaxError(lineno, f"unrecognised line {line!r}")
    if name is not None:
        raise DescriptorSyntaxError(len(text.splitlines()), f"unterminated layout block {name!r}")
    return tuple(descriptors)
