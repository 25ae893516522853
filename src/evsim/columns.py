"""Records kept as numbers: one typed array per field, not one object each."""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from operator import index


class Columns(Sequence):
    """A read-only sequence of records stored field by field in typed arrays.

    A subclass names one array typecode per field (``typecodes``), how to read
    a record's field values (``values_of``) and how to build a record from
    them (``element``). Indexing and iteration build the records on demand,
    so a long sequence holds 8 bytes per field and record. It takes int
    indices only, compares equal only to an instance of its own type with
    equal records, and pickles as its arrays.
    """

    __slots__ = ("columns",)
    typecodes: str

    def __init__(self, *columns: array):
        self.columns = columns or tuple(array(code) for code in self.typecodes)

    @classmethod
    def of(cls, records) -> Columns:
        """``records`` as an instance: itself if it is one, else a copy of
        their field values."""
        if isinstance(records, cls):
            return records
        out = cls()
        for record in records:
            out.add(*cls.values_of(record))
        return out

    def add(self, *values) -> None:
        """Append one record given as its field values; for the code that
        builds the sequence."""
        for column, value in zip(self.columns, values):
            column.append(value)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, k: int):
        k = index(k)
        return self.element(*[column[k] for column in self.columns])

    def __iter__(self):
        return map(self.element, *self.columns)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.columns == other.columns

    __hash__ = None

    def __reduce__(self):
        return type(self), self.columns

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"
