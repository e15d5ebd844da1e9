"""Identifier, type, and file-name mapping rules for the emitted Rust code.

All functions are pure and total: they never raise. The names and var types
they cannot map well (signature and celltype names of one character or with no
Rust identifier form, member names in NOT_RAW, unrecognized manglings) are
rejected with located diagnostics by `linker.resolve` before any emitter runs.
"""

from __future__ import annotations

import re
from typing import Optional

from .model import ParamSpecifier


# Fixed C -> Rust scalar table; unknown names pass through verbatim on the
# assumption that an external binding layer defines them.
SCALAR_TYPES = {
    "int8_t": "i8",
    "int16_t": "i16",
    "int32_t": "i32",
    "int64_t": "i64",
    "uint8_t": "u8",
    "uint16_t": "u16",
    "uint32_t": "u32",
    "uint64_t": "u64",
    "float": "f32",
    "double": "f64",
    "void": "()",
}


RUST_KEYWORDS = frozenset("""as async await break const continue crate dyn else enum extern
    false fn for if impl in let loop match mod move mut pub ref return self Self static struct
    super trait true type unsafe use where while abstract become box do final macro override
    priv try typeof unsized virtual yield""".split())
NOT_RAW = frozenset({"self", "Self", "super", "crate", "_"})  # no Rust identifier spells these


def rust_name(name: str) -> str:
    """match -> r#match: a Rust 2021 strict or reserved keyword is written raw."""
    return "r#" + name if name in RUST_KEYWORDS else name


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


def static_instance_name(cell_name: str) -> str:
    return cell_name.upper()


def static_var_name(cell_name: str) -> str:
    return cell_name.upper() + "VAR"


def static_entry_name(entry_port: str, cell_name: str) -> str:
    return entry_port.upper() + "FOR" + cell_name.upper()


_FILE_SUFFIX = {"contract": ".rs", "definition": ".rs", "skeleton": "_impl.rs"}


def file_name(kind: str, name: str) -> str:
    """(contract, sSensor) -> s_sensor.rs; (skeleton, tSensor) -> t_sensor_impl.rs."""
    return snake_case(name) + _FILE_SUFFIX[kind]


def module_name(name: str) -> str:
    return snake_case(name)


def map_base_type(c_type: str) -> str:
    return SCALAR_TYPES.get(c_type, c_type)


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
