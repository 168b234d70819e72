"""``repro.lint`` -- pass-manager static analysis over the three IRs.

A veripass-style pipeline: every analysis and diagnostic rule is a
:class:`~repro.lint.manager.Pass` with declared dependencies, run once in
dependency order by the :class:`~repro.lint.manager.PassManager`, sharing
results (dataflow graph, constant propagation, cones of influence)
through a :class:`~repro.lint.manager.LintContext` and timed per pass.

Three IRs are covered:

* **RTL** -- the :class:`~repro.rtl.hdl.RtlModule` tree and its
  elaborated :class:`~repro.rtl.netlist.FlatDesign` (undriven nets,
  read-before-write registers, width truncation, static tristate
  conflicts, unused nets, constant-foldable logic, registers outside
  every monitor's cone of influence, unsynchronized K/K# crossings);
* **PSL** -- the property suite (vacuous antecedents via the BDD engine,
  tautological checkers);
* **ASM** -- the abstract state machine (dead ``require`` guards,
  conflicting update sets).

The cone-of-influence analysis is shared with :mod:`repro.mc`, which uses
:func:`~repro.lint.coi.reduce_design` to prune the netlist to a
property's cone before building the transition relation.

Run ``python -m repro.lint`` for the CLI (text or JSON report; exit code
1 on any unwaived error, for CI).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..rtl.hdl import HdlError, RtlModule
from ..rtl.netlist import FlatDesign, elaborate
from .analyses import (
    ConstPropPass,
    CoiAnalysis,
    CoiPass,
    DataflowGraph,
    DataflowPass,
    fold_expr,
    pure_fold,
)
from .asm_rules import AsmRulesPass, sweep_states
from .coi import cone_of_influence, net_reads, reduce_design
from .diagnostics import (
    ERROR,
    INFO,
    WARNING,
    Diagnostic,
    LintConfig,
    LintReport,
    Waiver,
)
from .manager import LintContext, LintError, Pass, PassManager
from .psl_rules import (
    PslTautologyPass,
    PslVacuityPass,
    satisfiable,
    sere_can_match,
)
from .rtl_rules import (
    CdcPass,
    ModuleStructurePass,
    NetlistRulesPass,
    ObservabilityPass,
)
from .sat_rules import (
    AsmSatRequirePass,
    CecPass,
    SatConstNetPass,
    SatPslTautologyPass,
    SatPslVacuityPass,
    sat_satisfiable,
)

__all__ = [
    "ERROR",
    "WARNING",
    "INFO",
    "Diagnostic",
    "Waiver",
    "LintConfig",
    "LintReport",
    "LintError",
    "Pass",
    "LintContext",
    "PassManager",
    "DataflowGraph",
    "DataflowPass",
    "ConstPropPass",
    "CoiAnalysis",
    "CoiPass",
    "ModuleStructurePass",
    "NetlistRulesPass",
    "ObservabilityPass",
    "CdcPass",
    "PslVacuityPass",
    "PslTautologyPass",
    "AsmRulesPass",
    "SatConstNetPass",
    "SatPslVacuityPass",
    "SatPslTautologyPass",
    "AsmSatRequirePass",
    "CecPass",
    "fold_expr",
    "pure_fold",
    "satisfiable",
    "sat_satisfiable",
    "sere_can_match",
    "sweep_states",
    "net_reads",
    "cone_of_influence",
    "reduce_design",
    "default_rtl_passes",
    "lint_design",
    "lint_properties",
    "lint_machine",
    "lint_la1",
]


def default_rtl_passes(semantic: bool = False) -> list[Pass]:
    """The full RTL pipeline: foundation analyses plus every rule.

    ``semantic=True`` appends the SAT-backed passes (proved-constant
    nets, dead tristate drivers, codegen equivalence).
    """
    passes: list[Pass] = [
        DataflowPass(),
        ConstPropPass(),
        CoiPass(),
        ModuleStructurePass(),
        NetlistRulesPass(),
        ObservabilityPass(),
        CdcPass(),
    ]
    if semantic:
        passes += [SatConstNetPass(), CecPass()]
    return passes


def lint_design(
    top: RtlModule,
    config: Optional[LintConfig] = None,
    design: Optional[FlatDesign] = None,
    subject: Optional[str] = None,
    semantic: bool = False,
) -> LintReport:
    """Lint an RTL module tree.

    Elaborates ``top`` unless a flat design is supplied; an elaboration
    failure becomes an ``elaboration-error`` diagnostic (the structural
    module-tree rules still run, usually pinpointing the cause).
    """
    report = LintReport(subject or top.name)
    failure = None
    if design is None:
        try:
            design = elaborate(top)
        except HdlError as exc:
            failure = str(exc)
    ctx = LintContext(config=config, report=report, top=top, design=design)
    if failure is not None:
        ctx.emit(
            "elaboration-error", ERROR, top.name,
            f"design does not elaborate: {failure}",
        )
    PassManager(default_rtl_passes(semantic=semantic)).run(ctx)
    return report


def lint_properties(
    properties: Sequence[tuple],
    config: Optional[LintConfig] = None,
    subject: str = "properties",
    semantic: bool = False,
) -> LintReport:
    """Lint a named PSL property suite (``[(name, Property), ...]``).

    ``semantic=True`` swaps the BDD deciders for the proof-logging SAT
    engine (same rule ids, certified verdicts).
    """
    report = LintReport(subject)
    ctx = LintContext(config=config, report=report, properties=properties)
    if semantic:
        passes = [SatPslVacuityPass(), SatPslTautologyPass()]
    else:
        passes = [PslVacuityPass(), PslTautologyPass()]
    PassManager(passes).run(ctx)
    return report


def lint_machine(
    machine, config: Optional[LintConfig] = None,
    semantic: bool = False,
) -> LintReport:
    """Lint an :class:`~repro.asm.machine.AsmMachine`."""
    report = LintReport(machine.name)
    ctx = LintContext(config=config, report=report, machine=machine)
    passes: list[Pass] = [AsmRulesPass()]
    if semantic:
        passes.append(AsmSatRequirePass())
    PassManager(passes).run(ctx)
    return report


def lint_la1(
    banks: int = 2,
    config: Optional[LintConfig] = None,
    semantic: bool = False,
) -> LintReport:
    """Lint the full shipped LA-1 stack at one bank count.

    Covers the OVL-instrumented RTL top (simulation scale), the device
    PSL property suite and the ASM model, merged into one report.  The
    RTL run declares the model-checking label nets as observation points
    so the labeling taps are not flagged as unused.
    """
    from ..core.asm_model import La1AsmConfig, build_la1_asm
    from ..core.ovl_bindings import build_la1_top_with_ovl
    from ..core.properties import device_property_suite, rtl_labels
    from ..core.rtl_model import la1_netlist
    from ..core.spec import la1_config

    la1 = la1_config(banks)
    top = build_la1_top_with_ovl(la1)
    sinks = tuple(
        path for path, __ in rtl_labels(top.name, banks).values()
    )
    base = config or LintConfig()
    rtl_config = LintConfig(
        disabled_rules=base.disabled_rules,
        waivers=base.waivers,
        extra_sinks=tuple(base.extra_sinks) + sinks,
        asm_state_cap=base.asm_state_cap,
    )
    report = lint_design(top, config=rtl_config,
                         design=la1_netlist(la1, ovl=True),
                         subject=f"la1[{banks} banks]",
                         semantic=semantic)
    report.extend(
        lint_properties(device_property_suite(banks), config=base,
                        semantic=semantic)
    )
    report.extend(
        lint_machine(build_la1_asm(La1AsmConfig(banks=banks)), config=base,
                     semantic=semantic)
    )
    return report
