"""Resolve parsed units into a linked component graph and plan the output file set."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import naming
from .model import (
    Binding, CdlUnit, CellDef, CelltypeDef, Diagnostic, FactoryScope,
    PortDecl, PortDirection, SignatureDef, error,
)


@dataclass
class ResolvedBinding:
    call_port: PortDecl
    target_cell: "ResolvedCell"
    target_entry: PortDecl


@dataclass
class ResolvedCell:
    cell: CellDef
    celltype: CelltypeDef
    bindings: Dict[str, ResolvedBinding] = field(default_factory=dict)


@dataclass
class ResolvedModel:
    units: List[CdlUnit]
    cells: List[ResolvedCell]
    signature_index: Dict[str, SignatureDef]
    celltype_index: Dict[str, CelltypeDef]
    plugin_by_celltype: Dict[str, str]  # celltype name -> plugin name
    cells_by_celltype: Dict[str, List[ResolvedCell]]  # in declaration order

    def cells_of(self, celltype_name: str) -> List[ResolvedCell]:
        return self.cells_by_celltype.get(celltype_name, [])


def resolve(units: List[CdlUnit], default_plugin: Optional[str] = None
            ) -> Tuple[Optional[ResolvedModel], List[Diagnostic]]:
    """Link units into a ResolvedModel.

    Resolution keeps going after a failure so one pass reports every
    problem; the model is returned only when no errors were found.
    `default_plugin` stands in for absent [generate(...)] directives.
    """
    diags: List[Diagnostic] = []
    sig_index: Dict[str, SignatureDef] = {}
    ct_index: Dict[str, CelltypeDef] = {}

    for unit in units:
        for sig in unit.signatures:
            if sig.name in sig_index:
                diags.append(error("duplicate-definition",
                                   f"signature '{sig.name}' already defined", sig.location))
            else:
                sig_index[sig.name] = sig
        for ct in unit.celltypes:
            if ct.name in ct_index:
                diags.append(error("duplicate-definition",
                                   f"celltype '{ct.name}' already defined", ct.location))
            else:
                ct_index[ct.name] = ct

    # port signatures must exist
    for ct in ct_index.values():
        for port in ct.ports:
            if port.signature_name not in sig_index:
                diags.append(error(
                    "unknown-signature",
                    f"port '{port.port_name}' of celltype '{ct.name}' references "
                    f"unknown signature '{port.signature_name}'", port.location))

    cell_index: Dict[str, ResolvedCell] = {}
    cells: List[ResolvedCell] = []
    cells_by_ct: Dict[str, List[ResolvedCell]] = {name: [] for name in ct_index}
    for unit in units:
        for cell in unit.cells:
            if cell.name in cell_index:
                diags.append(error("duplicate-cell",
                                   f"cell '{cell.name}' already defined", cell.location))
                continue
            ct = ct_index.get(cell.celltype_name)
            if ct is None:
                diags.append(error(
                    "unknown-celltype",
                    f"cell '{cell.name}' has unknown celltype '{cell.celltype_name}'",
                    cell.location))
                continue
            rc = ResolvedCell(cell, ct)
            cell_index[cell.name] = rc
            cells.append(rc)
            cells_by_ct[ct.name].append(rc)

    for rc in cells:
        ct = rc.celltype
        call_ports = {p.port_name: p for p in ct.call_ports}
        entry_names = {p.port_name for p in ct.entry_ports}
        for b in rc.cell.bindings:
            if b.call_port_name not in call_ports:
                code = ("not-a-call-port" if b.call_port_name in entry_names
                        else "unknown-call-port")
                diags.append(error(
                    code,
                    f"cell '{rc.cell.name}' binds unknown call port '{b.call_port_name}'",
                    b.location))
                continue
            target = cell_index.get(b.target_cell_name)
            if target is None:
                diags.append(error(
                    "unknown-cell",
                    f"binding target cell '{b.target_cell_name}' does not exist",
                    b.location))
                continue
            entry = next((p for p in target.celltype.entry_ports
                          if p.port_name == b.target_entry_port_name), None)
            if entry is None:
                diags.append(error(
                    "unknown-entry-port",
                    f"cell '{b.target_cell_name}' has no entry port "
                    f"'{b.target_entry_port_name}'", b.location))
                continue
            call_port = call_ports[b.call_port_name]
            if call_port.signature_name != entry.signature_name:
                diags.append(error(
                    "signature-mismatch",
                    f"call port '{b.call_port_name}' ({call_port.signature_name}) cannot "
                    f"bind entry port '{b.target_entry_port_name}' ({entry.signature_name})",
                    b.location))
                continue
            rc.bindings[b.call_port_name] = ResolvedBinding(call_port, target, entry)
        for port_name in call_ports:
            if rc.cell.binding_for(port_name) is None:
                diags.append(error(
                    "unbound-call-port",
                    f"call port '{port_name}' of cell '{rc.cell.name}' is not bound",
                    rc.cell.location))
        for init in rc.cell.attr_inits:
            if not any(a.name == init.attr_name for a in ct.attrs):
                diags.append(error(
                    "unknown-attribute",
                    f"cell '{rc.cell.name}' initializes unknown attr '{init.attr_name}'",
                    init.location))

    # all cells of one celltype must bind a call port to entry ports of one
    # target celltype, so definition files can use a concrete entry type
    for ct in ct_index.values():
        for port in ct.call_ports:
            targets = {rc.bindings[port.port_name].target_cell.celltype.name
                       for rc in cells_by_ct[ct.name] if port.port_name in rc.bindings}
            if len(targets) > 1:
                names = ", ".join(sorted(targets))
                diags.append(error(
                    "heterogeneous-binding-unsupported",
                    f"call port '{port.port_name}' of celltype '{ct.name}' binds cells "
                    f"of different celltypes ({names})", port.location))

    plugin_by_ct = _assign_plugins(ct_index, cells, default_plugin, diags)

    if any(d.severity.value == "error" for d in diags):
        return None, diags
    return ResolvedModel(list(units), cells, sig_index, ct_index, plugin_by_ct,
                         cells_by_ct), diags


def _assign_plugins(ct_index, cells, default_plugin, diags) -> Dict[str, str]:
    plugin_by_ct: Dict[str, str] = {}
    for ct in ct_index.values():
        if ct.generate_directive is not None:
            plugin_by_ct[ct.name] = ct.generate_directive.plugin_name
    for rc in cells:
        d = rc.cell.generate_directive
        if d is None:
            continue
        current = plugin_by_ct.get(rc.celltype.name)
        if current is None:
            plugin_by_ct[rc.celltype.name] = d.plugin_name
        elif current != d.plugin_name:
            diags.append(error(
                "conflicting-plugin-directives",
                f"cell '{rc.cell.name}' requests plugin '{d.plugin_name}' but "
                f"celltype '{rc.celltype.name}' uses '{current}'", d.location))
    if default_plugin is not None:
        for ct in ct_index.values():
            plugin_by_ct.setdefault(ct.name, default_plugin)
    return plugin_by_ct


@dataclass
class PlannedWrite:
    celltype: CelltypeDef
    cell: Optional[CellDef]  # None for per-celltype FACTORY writes
    target_template: str
    line_template: str
    location: object


@dataclass
class GenerationReport:
    file_lines: Dict[str, int] = field(default_factory=dict)
    skeleton_files: set = field(default_factory=set)

    @property
    def auto_total(self) -> int:
        return sum(n for p, n in self.file_lines.items()
                   if p not in self.skeleton_files)

    @property
    def skeleton_total(self) -> int:
        return sum(n for p, n in self.file_lines.items()
                   if p in self.skeleton_files)


@dataclass
class EmissionPlan:
    contract_sigs: List[SignatureDef]
    definition_cts: List[CelltypeDef]
    skeleton_cts: List[CelltypeDef]
    config_writes: List[PlannedWrite]
    report: GenerationReport = field(default_factory=GenerationReport)

    def contract_files(self) -> List[str]:
        return [naming.file_name("contract", s.name) for s in self.contract_sigs]

    def definition_files(self) -> List[str]:
        return [naming.file_name("definition", ct.name) for ct in self.definition_cts]

    def skeleton_files(self) -> List[str]:
        return [naming.file_name("skeleton", ct.name) for ct in self.skeleton_cts]


def plan_emission(model: ResolvedModel) -> EmissionPlan:
    """Decide which files a resolved model owes, before rendering anything.

    Contracts: one per signature referenced from a generating celltype's
    ports. Definitions: one per generating celltype. Skeletons: one per
    generating celltype with at least one entry port. Config writes:
    per-celltype FACTORY writes first, then per-cell factory writes in
    cell declaration order.
    """
    generating = [ct for ct in _declaration_order(model)
                  if ct.name in model.plugin_by_celltype]

    contract_sigs: List[SignatureDef] = []
    seen = set()
    for ct in generating:
        for port in ct.ports:
            if port.signature_name not in seen:
                seen.add(port.signature_name)
                contract_sigs.append(model.signature_index[port.signature_name])

    definition_cts = list(generating)
    skeleton_cts = [ct for ct in generating if ct.entry_ports]

    writes: List[PlannedWrite] = []
    for ct in generating:
        for block in ct.factory_blocks:
            if block.scope is FactoryScope.PER_CELLTYPE:
                for w in block.writes:
                    writes.append(PlannedWrite(ct, None, w.target_file, w.template,
                                               w.location))
    for rc in model.cells:
        ct = rc.celltype
        if ct.name not in model.plugin_by_celltype:
            continue
        for block in ct.factory_blocks:
            if block.scope is FactoryScope.PER_CELL:
                for w in block.writes:
                    writes.append(PlannedWrite(ct, rc.cell, w.target_file, w.template,
                                               w.location))

    return EmissionPlan(contract_sigs, definition_cts, skeleton_cts, writes)


def _declaration_order(model: ResolvedModel):
    for unit in model.units:
        for ct in unit.celltypes:
            yield ct
