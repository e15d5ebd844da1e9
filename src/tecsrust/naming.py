"""Identifier, type, and file-name mapping rules for the emitted Rust code.

All functions are pure and total: they never raise. The names and var types
they cannot map well (signature and celltype names of one character or with no
Rust identifier form, member names in `header_const.NOT_RAW`, unrecognized manglings) are
rejected with located diagnostics by `linker.resolve` before any emitter runs.
"""

from __future__ import annotations

import functools
import re
from typing import List, Optional

from .header_const import rust_name
from .model import C_SCALARS, CelltypeDef, ParamSpecifier


def _camel(name: str) -> str:
    parts = [p for p in name.split("_") if p]
    return "".join(p[0].upper() + p[1:] for p in parts)


def contract_name(signature_name: str) -> str:
    """sSensor -> SSensor, sTask_body -> STaskBody."""
    return _camel(signature_name)


def record_name(celltype_name: str) -> str:
    """tSensor -> TSensor, tTask_rs -> TTaskRs."""
    return _camel(celltype_name)


_LOWER_UPPER = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")
_UPPER_WORD = re.compile(r"(?<=[A-Z])(?=[A-Z][a-z])")
_UNDERSCORES = re.compile(r"__+")


@functools.cache  # the emitters map each signature and celltype name several times
def snake_case(name: str) -> str:
    s = _LOWER_UPPER.sub("_", name)
    s = _UPPER_WORD.sub("_", s)
    return _UNDERSCORES.sub("_", s).lower()


def field_name(port_name: str) -> str:
    """cPowerdown -> c_powerdown, Type -> r#type."""
    return rust_name(snake_case(port_name))


def entry_impl_name(entry_port: str, celltype: str) -> str:
    """(eSensor, tSensor) -> ESensorForTSensor."""
    return _camel(entry_port) + "For" + record_name(celltype)


def static_entry_name(entry_port: str, cell_name: str) -> str:
    return entry_port.upper() + "FOR" + cell_name.upper()


def cell_statics(ct: CelltypeDef, cell_name: str) -> List[str]:
    """The statics `ct`'s definition declares for a cell: Sensor -> SENSOR (its record), then
    ESENSORFORSENSOR per entry port, then SENSORVAR (its var record) if `ct` has vars."""
    name = cell_name.upper()
    return [name, *[static_entry_name(p.port_name, cell_name) for p in ct.entry_ports],
            *[name + "VAR"] * bool(ct.vars)]


_FILE_SUFFIX = {"contract": ".rs", "definition": ".rs", "skeleton": "_impl.rs"}


def file_name(kind: str, name: str) -> str:
    """(contract, sSensor) -> s_sensor.rs; (skeleton, tSensor) -> t_sensor_impl.rs."""
    return snake_case(name) + _FILE_SUFFIX[kind]


def module_name(name: str) -> str:
    return snake_case(name)


def map_base_type(c_type: str) -> str:
    return C_SCALARS[c_type][0] if c_type in C_SCALARS else c_type


def map_param_type(c_type: str, specifier: ParamSpecifier) -> str:
    """[in] T -> &T, [out] T* -> &mut T; one pointer level is consumed by the borrow."""
    base = map_base_type(c_type)
    if specifier is ParamSpecifier.OUT:
        return "&mut " + base
    return "&" + base


_REF_A_MUT = re.compile(r"^Ref_a_mut__(.+)__$")
_OPTION_WRAPPERS = re.compile(r"^(Option_)*")


def demangle_var_type(mangled: str) -> str:
    """Option_Ref_a_mut__pup_device_t__ -> Option<&'a mut pup_device_t>; else verbatim."""
    if mangled.startswith("Option_"):
        return "Option<" + demangle_var_type(mangled[len("Option_"):]) + ">"
    m = _REF_A_MUT.match(mangled)
    return "&'a mut " + m.group(1) if m else mangled


def unrecognized_mangling(mangled: str) -> Optional[str]:
    """The part under the Option_ wrappers that looks mangled yet does not demangle."""
    inner = _OPTION_WRAPPERS.sub("", mangled)
    looks_mangled = "__" in inner or inner.startswith("Ref_")
    return inner if looks_mangled and not _REF_A_MUT.match(inner) else None
