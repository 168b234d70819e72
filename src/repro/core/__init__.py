"""``repro.core`` -- the LA-1 interface at every abstraction level.

The paper's contribution: the Look-Aside (LA-1) interface modelled as

* a UML specification (:mod:`uml_spec`) with Figure 3's clock-annotated
  sequence diagrams,
* an N-bank ASM model (:mod:`asm_model`) with the embedded light
  simulator,
* a SystemC-level executable model (:mod:`sysc_model`) with host driver,
* a synthesizable RTL model (:mod:`rtl_model`) with DDR pipelines and
  tristate bank multiplexing,

verified by the PSL property suite (:mod:`properties`) through
exploration-based model checking, RuleBase-style symbolic model checking
(:mod:`rulebase`), external assertion monitors (:mod:`monitors`) and OVL
checkers (:mod:`ovl_bindings`), tied together by the Figure 2 flow
driver (:mod:`flow`), the ASM/SystemC conformance check
(:mod:`conformance`) and the validation-unit mode
(:mod:`validation_unit`).
"""

from .spec import (
    BEAT_DATA_BITS,
    BEAT_PARITY_BITS,
    BEATS_PER_WORD,
    BYTE_LANES_PER_BEAT,
    READ_LATENCY_HALF_CYCLES,
    READ_SECOND_BEAT_HALF_CYCLES,
    WRITE_ADDR_HALF_CYCLES,
    WRITE_COMMIT_HALF_CYCLES,
    La1Config,
    even_parity_int,
    merge_byte_lanes,
)
from .asm_model import La1AsmAtoms, La1AsmConfig, build_la1_asm
from .properties import (
    asm_labeling,
    device_property_suite,
    read_latency_property,
    read_mode_property,
    read_mode_suite,
    rtl_labels,
)
from .sysc_model import (
    La1Bank,
    La1Device,
    La1Host,
    ReadPort,
    ReadResult,
    SramMemory,
    WritePort,
    build_la1_system,
)
from .rtl_model import (
    build_bank_rtl,
    build_la1_top_rtl,
    build_read_port_rtl,
    build_sram_rtl,
    build_write_port_rtl,
    la1_netlist,
)
from .rtl_testbench import RtlHost
from .rulebase import MC_SCALE_CONFIG, check_read_mode_rtl
from .monitors import EdgeSampler, attach_read_mode_monitors
from .ovl_bindings import attach_read_mode_ovl, build_la1_top_with_ovl
from .conformance import (
    La1SyscImplementation,
    check_la1_conformance,
    observables_for,
)
from .refinement import La1RtlImplementation, check_asm_rtl_refinement
from .uml_spec import (
    extracted_properties,
    la1_class_diagram,
    la1_use_cases,
    read_mode_sequence,
    write_mode_sequence,
)
from .flow import FlowConfig, FlowReport, StageResult, run_flow
from .validation_unit import (
    ComplianceReport,
    DutInterface,
    FaultyDut,
    La1ValidationUnit,
    RtlDut,
    Violation,
)

__all__ = [
    "La1Config",
    "even_parity_int",
    "merge_byte_lanes",
    "BEAT_DATA_BITS",
    "BEAT_PARITY_BITS",
    "BEATS_PER_WORD",
    "BYTE_LANES_PER_BEAT",
    "READ_LATENCY_HALF_CYCLES",
    "READ_SECOND_BEAT_HALF_CYCLES",
    "WRITE_ADDR_HALF_CYCLES",
    "WRITE_COMMIT_HALF_CYCLES",
    "La1AsmConfig",
    "La1AsmAtoms",
    "build_la1_asm",
    "device_property_suite",
    "read_mode_suite",
    "read_mode_property",
    "read_latency_property",
    "asm_labeling",
    "rtl_labels",
    "SramMemory",
    "ReadPort",
    "WritePort",
    "La1Bank",
    "La1Device",
    "La1Host",
    "ReadResult",
    "build_la1_system",
    "build_sram_rtl",
    "build_read_port_rtl",
    "build_write_port_rtl",
    "build_bank_rtl",
    "build_la1_top_rtl",
    "la1_netlist",
    "RtlHost",
    "check_read_mode_rtl",
    "MC_SCALE_CONFIG",
    "EdgeSampler",
    "attach_read_mode_monitors",
    "attach_read_mode_ovl",
    "build_la1_top_with_ovl",
    "La1SyscImplementation",
    "check_la1_conformance",
    "observables_for",
    "La1RtlImplementation",
    "check_asm_rtl_refinement",
    "la1_class_diagram",
    "la1_use_cases",
    "read_mode_sequence",
    "write_mode_sequence",
    "extracted_properties",
    "FlowConfig",
    "FlowReport",
    "StageResult",
    "run_flow",
    "DutInterface",
    "La1ValidationUnit",
    "ComplianceReport",
    "Violation",
    "RtlDut",
    "FaultyDut",
]
