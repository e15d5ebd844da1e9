"""Located diagnostics and `Record`, the base class of every node and record: shared by all.

A `SourceLoc` is a file, line and column. `LineIndex.locate` makes one that keeps the
index and an offset; the line is found only when it is read, as when a diagnostic is
printed. Lines end at '\\n' only; columns count from 1. This module imports no other
tecsrust module, so `bindgen-lite`, which reads no CDL, loads no compiler stage.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_right
from enum import Enum
from reprlib import recursive_repr
from typing import Tuple


class SourceLoc:
    """`file`, `line` and `column` from 1, equal and hashed as that triple: given, or read from
    `lines.where(offset)` for `SourceLoc.at(lines, offset)`, which `LineIndex.locate` makes."""

    __slots__ = ("_lines", "_at")

    def __init__(self, file: str = "<unknown>", line: int = 0, column: int = 0):
        self._lines, self._at = None, (file, line, column)

    @classmethod
    def at(cls, lines, offset: int) -> "SourceLoc":
        loc = object.__new__(cls)
        loc._lines, loc._at = lines, offset
        return loc

    def _triple(self) -> tuple:
        return self._at if self._lines is None else self._lines.where(self._at)

    file = property(lambda self: self._triple()[0])
    line = property(lambda self: self._triple()[1])
    column = property(lambda self: self._triple()[2])

    def __eq__(self, other):
        return self._triple() == other._triple() if isinstance(other, SourceLoc) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._triple())

    def __repr__(self) -> str:
        return "SourceLoc(file=%r, line=%r, column=%r)" % self._triple()

    def __str__(self) -> str:
        return "%s:%s:%s" % self._triple()


class LineIndex:
    """One source text and its line starts, shared by its tokens and locations. The text is
    kept, not copied; the line starts are found at the first `where`, which a clean build
    never calls."""

    __slots__ = ("source_name", "text", "_starts")

    def __init__(self, text: str, source_name: str):
        self.source_name, self.text, self._starts = source_name, text, None

    def offset_array(self) -> array:
        """An empty array for offsets into the text: 4 bytes each where they fit."""
        return array("I" if len(self.text) < 1 << 32 else "q")

    def locate(self, offset: int) -> SourceLoc:
        """The location of `offset`; `where` resolves it when it is read."""
        return SourceLoc.at(self, offset)

    def where(self, offset: int) -> Tuple[str, int, int]:
        if self._starts is None:
            self._starts = self.offset_array()
            self._starts.extend(m.start() for m in re.finditer("^", self.text, re.MULTILINE))
        line = bisect_right(self._starts, offset)
        return self.source_name, line, offset - self._starts[line - 1] + 1

    def __repr__(self) -> str:  # as part of a node's repr: the same for each parse of a file
        return "<LineIndex of %r>" % self.source_name


_CONTROL = re.compile(r"[\x00-\x1f\x7f]")  # C0 and DEL


def printable(text: str) -> str:
    """CDL text as a message quotes it: each control character as its escape (a newline as
    `\\n`), so that a diagnostic stays one line."""
    return _CONTROL.sub(lambda c: repr(c[0])[1:-1], text)


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


class Record:
    """A plain slotted record: `__slots__` names its fields in constructor order. A class with
    fields and no `__init__` of its own is given one that stores each argument in its field,
    one statement per field, as a hand-written one would. A field named in `_defaults` or
    `_fresh`, each merged from the class and its bases, may be left out: `_defaults` gives an
    immutable value, shared by every record; `_fresh` a callable, such as `dict`, called for
    each record whose argument is None. It equals a record of its class whose fields are equal
    but for those named in `_uncompared`, if any, and shows as `Name(field=value, ...)`. Not a
    dataclass: where bytecode is not cached, each build would compile `dataclasses`,
    `inspect`, `ast` and `dis`, then generate every class's methods."""

    __slots__ = ()
    _uncompared = frozenset()

    def __init_subclass__(cls):
        fields = vars(cls).get("__slots__")
        if not fields or "__init__" in vars(cls):
            return
        name = f"{cls.__qualname__}.__init__"
        defaults, fresh = ({k: v for c in cls.__mro__[::-1] for k, v in vars(c).get(t, {}).items()}
                           for t in ("_defaults", "_fresh"))
        params = ", ".join(f"{f}=None" if f in fresh else f"{f}=_d[{f!r}]" if f in defaults
                           else f for f in fields)
        body = "".join(f"\n    self.{f} = _f[{f!r}]() if {f} is None else {f}" if f in fresh
                       else f"\n    self.{f} = {f}" for f in fields)  # slot names are identifiers
        scope = {"__name__": cls.__module__, "_d": defaults, "_f": fresh}
        exec(compile(f"def __init__(self, {params}):{body}", f"<{cls.__module__}.{name}>",
                     "exec"), scope)
        cls.__init__ = scope["__init__"]
        cls.__init__.__qualname__ = name

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__ if f not in self._uncompared)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    @recursive_repr()  # '...' for a record inside itself, as in a cycle of linked cells
    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__,
                           ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__))


class Value(Record):
    """A record hashed as it compares."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key())


class Diagnostic(Value):
    """A severity, code and message at a location; equal and hashed by all four."""

    __slots__ = ("severity", "code", "message", "location")

    def __str__(self) -> str:
        return f"{self.location}: {self.severity.value}[{self.code}]: {self.message}"


def error(code: str, message: str, location: SourceLoc) -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, message, location)


def warning(code: str, message: str, location: SourceLoc) -> Diagnostic:
    return Diagnostic(Severity.WARNING, code, message, location)


def has_errors(diags) -> bool:
    return any(d.severity is Severity.ERROR for d in diags)
