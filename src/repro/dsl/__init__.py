"""``repro.dsl`` -- an embedded design-language frontend.

A design is a handful of decorated Python classes: typed ports,
fixed-width registers and register arrays with write-once-per-cycle
semantics, guarded update rules, and ready/valid channels composing
modules.  One :func:`elaborate` call lowers a design to all three model
levels of the methodology -- an :class:`repro.asm.AsmMachine`, a flat
:class:`repro.rtl.hdl.RtlModule` netlist and a ``repro.sysc`` module
tree -- so the same ~50-line description runs through lint, BDD/SAT
model checking, ABV, functional coverage, fault campaigns and the
verification service unchanged, with a cross-level conformance harness
asserting the three models agree trace for trace.

``repro.dsl.zoo`` ships elaboration-ready designs (FIFO, round-robin
arbiter, QDR-II-style burst controller, 2x2 NoC router);
``python -m repro.dsl verify <design>`` runs the full flow on one.
"""

from __future__ import annotations

from .elab import (
    ElaboratedDesign,
    RtlDslImplementation,
    SyscDslImplementation,
    check_dsl_conformance,
    elaborate,
    netlist_fingerprint,
)
from .flow import run_dsl_flow
from .lang import (
    C,
    Array,
    Channel,
    Design,
    DslError,
    DslInterp,
    DslModule,
    Sig,
    cat,
    design_step,
    initial_state,
    module,
    mux,
    ule,
    ult,
)

__all__ = [
    "Array",
    "C",
    "Channel",
    "Design",
    "DslError",
    "DslInterp",
    "DslModule",
    "ElaboratedDesign",
    "RtlDslImplementation",
    "SyscDslImplementation",
    "Sig",
    "cat",
    "check_dsl_conformance",
    "design_step",
    "elaborate",
    "initial_state",
    "module",
    "mux",
    "netlist_fingerprint",
    "run_dsl_flow",
    "ule",
    "ult",
]
