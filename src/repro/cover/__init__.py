"""``repro.cover`` -- unified cross-level coverage.

The paper's methodology verifies the LA-1 interface at four levels (ASM
model checking, SystemC simulation with external PSL monitors, RTL
simulation with OVL checkers, plus the static analyses); this package
answers the question all of them share: *how much of the design did
that run actually exercise?*  One mergeable, serializable
:class:`~repro.cover.db.CoverageDB` collects

* structural RTL toggle coverage (:mod:`rtl_cov`, both simulator
  backends, codegen'd probes on the compiled backend),
* functional covergroups at the LA-1 transactor (:mod:`functional`),
* ASM rule-fired and state-predicate coverage (:mod:`asm_cov`),
* assertion activation/fire/vacuity counts for PSL monitors and OVL
  checkers (:mod:`assertion`),

under one dotted point namespace (``rtl.* / func.* / asm.* /
assert.*``).  Merges are lossless (hits add, goals max, points union),
so parallel shards equal a sequential run.  On top of the DB sit
coverage-driven test generation (:mod:`testgen`: greedy incremental
ranking with target/plateau stopping) and the ``python -m repro.cover``
CLI (collect / merge / report / diff with threshold gating).
"""

from .asm_cov import AsmCoverage, la1_state_predicates
from .assertion import (
    OVL_ACTIVATION_PORTS,
    OvlAssertionCoverage,
    PslAssertionCoverage,
    activation_guards,
)
from .db import CoverageDB, CoverageDiff, CoverPoint
from .functional import Covergroup, Coverpoint, Cross, La1FunctionalCoverage
from .la1 import (
    collect_asm_coverage,
    collect_la1_coverage,
    collect_rtl_coverage,
    collect_sysc_coverage,
    random_asm_walk,
    random_traffic,
)
from .rtl_cov import ToggleCollector, compile_toggle_probe
from .rtl_walk import RtlWalkModel, WalkCase
from .testgen import (
    CoverageDrivenResult,
    coverage_driven_suite,
    replay_coverage,
    undirected_suite,
)

__all__ = [
    "CoverPoint",
    "CoverageDB",
    "CoverageDiff",
    "ToggleCollector",
    "compile_toggle_probe",
    "RtlWalkModel",
    "WalkCase",
    "Coverpoint",
    "Cross",
    "Covergroup",
    "La1FunctionalCoverage",
    "AsmCoverage",
    "la1_state_predicates",
    "PslAssertionCoverage",
    "OvlAssertionCoverage",
    "OVL_ACTIVATION_PORTS",
    "activation_guards",
    "CoverageDrivenResult",
    "coverage_driven_suite",
    "undirected_suite",
    "replay_coverage",
    "collect_la1_coverage",
    "collect_sysc_coverage",
    "collect_rtl_coverage",
    "collect_asm_coverage",
    "random_traffic",
    "random_asm_walk",
]
