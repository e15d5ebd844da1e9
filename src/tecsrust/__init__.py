"""Batch generator for TECS-style component descriptions: parses a CDL
subset, links the component graph, and deterministically emits Rust
interface contracts, component definitions, impl skeletons, RTOS
configuration lines, and kernel-header constant bindings."""

from .emit_core import GeneratedFile, WritePolicy, emit_contract, emit_definition, emit_skeleton
from .emit_rtos import MacroEnv, run_factory, substitute_macros
from .frontend import ParseResult, parse_unit, tokenize
from .header_const import convert_defines
from .linker import EmissionPlan, ResolvedModel, plan_emission, resolve
from .model import CdlUnit, Diagnostic, Severity, validate_unit

__version__ = "0.1.0"

__all__ = [
    "CdlUnit", "Diagnostic", "EmissionPlan", "GeneratedFile",
    "MacroEnv", "ParseResult", "ResolvedModel", "Severity", "WritePolicy",
    "convert_defines", "emit_contract", "emit_definition", "emit_skeleton",
    "parse_unit", "plan_emission", "resolve", "run_factory",
    "substitute_macros", "tokenize", "validate_unit",
]
