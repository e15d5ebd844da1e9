"""What `dataclasses.fields`, `replace` and `is_dataclass` gave the tests, for tecsrust's
model nodes and pipeline records: plain classes whose `__slots__` name their fields in
constructor order (see `tecsrust.diagnostics.Record`)."""

from tecsrust.diagnostics import Record


def _class(record_or_class) -> type:
    return record_or_class if isinstance(record_or_class, type) else type(record_or_class)


def is_record(record_or_class) -> bool:
    return issubclass(_class(record_or_class), Record)


def fields(record_or_class) -> tuple:
    """The field names, in constructor order."""
    return _class(record_or_class).__slots__


def replace(record, **changes):
    """A new record of `record`'s class with its fields, but for `changes`."""
    return type(record)(**{**{f: getattr(record, f) for f in fields(record)}, **changes})
