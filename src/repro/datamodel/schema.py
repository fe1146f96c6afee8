"""Table schemas.

A virtual table exposed by a Basic Data Source is a relation over a fixed,
ordered set of attributes.  The paper's motivating datasets carry coordinate
attributes (``x, y, z``) plus scalar physical properties (oil pressure, water
pressure, saturation, velocity components, ... — 21 attributes per dataset in
the oil-reservoir studies of Section 2).

:class:`Schema` is deliberately thin: ordered :class:`Attribute` list, name
lookup, record size, and conversion to a NumPy structured dtype.  Record size
(``RS_R``/``RS_S`` in Table 1 of the paper) is what the cost models consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

__all__ = ["Attribute", "Schema"]

#: dtypes an attribute may take; 4-byte types match the paper's "each
#: attribute was of size 4 bytes" experimental setup.
_SUPPORTED_KINDS = {"i", "u", "f"}

#: dtype spelling -> (normalised name, NumPy dtype), for every string
#: spelling an attribute accepted: ``np.dtype`` and ``dtype.name`` run once
#: per spelling, not once per attribute
_RESOLVED: Dict[str, Tuple[str, np.dtype]] = {}


def _resolve(spelling) -> Tuple[str, np.dtype]:
    """The normalised name and NumPy dtype of ``spelling``; refuses any
    kind but int/uint/float."""
    resolved = _RESOLVED.get(spelling) if isinstance(spelling, str) else None
    if resolved is None:
        np_dtype = np.dtype(spelling)
        if np_dtype.kind not in _SUPPORTED_KINDS:
            raise ValueError(f"unsupported attribute dtype {spelling!r} (need int/uint/float)")
        resolved = (np_dtype.name, np_dtype)
        if isinstance(spelling, str):
            _RESOLVED[spelling] = resolved
    return resolved


@dataclass(frozen=True)
class Attribute:
    """A single named, typed column.

    ``coordinate=True`` marks the attributes the dataset is partitioned on
    (and that joins typically use); the MetaData Service indexes chunk
    bounding boxes on coordinate attributes.
    """

    name: str
    dtype: str = "float32"
    coordinate: bool = False
    #: ``dtype`` as a NumPy dtype, resolved once: every sub-table built
    #: over this attribute casts its column to it
    np_dtype: np.dtype = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise ValueError(f"attribute name must be a valid identifier, got {self.name!r}")
        name, np_dtype = _resolve(self.dtype)
        # normalise the dtype spelling so equality is structural
        object.__setattr__(self, "dtype", name)
        object.__setattr__(self, "np_dtype", np_dtype)

    @property
    def itemsize(self) -> int:
        """Size of one value in bytes."""
        return self.np_dtype.itemsize


class Schema:
    """An ordered collection of :class:`Attribute` with unique names.

    A schema is immutable, so its names, record size and structured dtype
    are computed once, not on each of the many sub-tables that share it.
    """

    __slots__ = ("_attributes", "_index", "_names", "_record_size", "_np_dtype")

    def __init__(self, attributes: Iterable[Attribute]):
        attrs: List[Attribute] = list(attributes)
        if not attrs:
            raise ValueError("a schema needs at least one attribute")
        index: Dict[str, int] = {}
        for i, attr in enumerate(attrs):
            if not isinstance(attr, Attribute):
                raise TypeError(f"expected Attribute, got {type(attr).__name__}")
            if attr.name in index:
                raise ValueError(f"duplicate attribute name {attr.name!r}")
            index[attr.name] = i
        self._attributes: Tuple[Attribute, ...] = tuple(attrs)
        self._index: Dict[str, int] = index
        self._names: Tuple[str, ...] = tuple(index)
        self._record_size = sum(a.itemsize for a in attrs)
        self._np_dtype = None

    # -- construction helpers -----------------------------------------------

    @classmethod
    def of(cls, *names: str, dtype: str = "float32", coordinates: Sequence[str] = ()) -> "Schema":
        """Shorthand: ``Schema.of("x", "y", "z", "wp", coordinates=("x","y","z"))``."""
        coord = set(coordinates)
        unknown = coord - set(names)
        if unknown:
            raise ValueError(f"coordinate attributes not in schema: {sorted(unknown)}")
        return cls(Attribute(n, dtype=dtype, coordinate=n in coord) for n in names)

    # -- protocol --------------------------------------------------------------

    @property
    def attributes(self) -> Tuple[Attribute, ...]:
        return self._attributes

    @property
    def names(self) -> Tuple[str, ...]:
        return self._names

    @property
    def coordinate_names(self) -> Tuple[str, ...]:
        return tuple(a.name for a in self._attributes if a.coordinate)

    @property
    def record_size(self) -> int:
        """Bytes per record — ``RS`` in the paper's cost models."""
        return self._record_size

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, name: str) -> Attribute:
        try:
            return self._attributes[self._index[name]]
        except KeyError:
            raise KeyError(f"no attribute {name!r} in schema {self.names}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:
        cols = ", ".join(
            f"{a.name}:{a.dtype}{'*' if a.coordinate else ''}" for a in self._attributes
        )
        return f"Schema({cols})"

    # -- derived schemas -----------------------------------------------------------

    def project(self, names: Sequence[str]) -> "Schema":
        """Schema restricted to ``names``, in the given order."""
        return Schema(self[name] for name in names)

    def join(self, other: "Schema", on: Sequence[str], suffix: str = "_r") -> "Schema":
        """Schema of the equi-join result: this schema, then ``other`` minus
        the join attributes; clashing non-join names on the right get
        ``suffix`` appended (mirroring SQL join output conventions)."""
        on_set = set(on)
        for name in on:
            if name not in self or name not in other:
                raise ValueError(f"join attribute {name!r} missing from one side")
        out: List[Attribute] = list(self._attributes)
        taken = set(self.names)
        for attr in other:
            if attr.name in on_set:
                continue
            if attr.name in taken:
                name = attr.name + suffix
                if name in taken:
                    raise ValueError(f"cannot disambiguate joined attribute {attr.name!r}")
                attr = Attribute(name, attr.dtype, attr.coordinate)
            taken.add(attr.name)
            out.append(attr)
        return Schema(out)

    # -- numpy interop -----------------------------------------------------------

    def to_numpy_dtype(self) -> np.dtype:
        """Structured dtype with one field per attribute, in schema order."""
        if self._np_dtype is None:
            self._np_dtype = np.dtype([(a.name, a.dtype) for a in self._attributes])
        return self._np_dtype
