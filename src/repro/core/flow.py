"""The end-to-end design & verification flow -- the paper's Figure 2.

:func:`run_flow` executes every stage of the methodology in order:

1. **UML level** -- build the class / use-case / modified sequence
   diagrams, validate their consistency, extract the latency properties.
2. **ASM level** -- build the N-bank ASM model and model check the full
   PSL property suite by guided exploration (Table 1's procedure).  A
   failure carries a counterexample path back ("when the verification
   terminates with an error, we update UML specification and re-capture").
3. **Translation** -- construct the SystemC-level model (the ASM -> SystemC
   syntax transformation) and run the ASM/SystemC conformance co-execution.
4. **ABV** -- simulate random host traffic on the kernel model with the
   external PSL monitors attached.
5. **RTL refinement** -- build the synthesizable RTL, emit Verilog text.
6. **RTL model checking** -- re-verify the Read-Mode property with the
   RuleBase-style symbolic checker (Table 2's procedure).
7. **OVL** -- simulate the same traffic on the RTL with the OVL checker
   modules loaded (Table 3's right-hand side).

Each stage's outcome lands in a :class:`FlowReport`; :func:`run_stages`
times the stages and stops at the first failing one (the Figure 2
feedback edge).  The zoo-design flow (:mod:`repro.dsl.flow`) runs
through the same report and runner, and ``repro.cover.la1`` collects
its kernel-level and RTL coverage through this flow's ABV and OVL runs
(:func:`run_abv`, :func:`run_ovl`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Tuple

from ..abv import summarize
from ..asm import AsmModelChecker, ExplorationConfig
from ..cli import check_mc_choice
from ..mc import sweep_rtl_properties
from ..rtl import RtlSimulator, elaborate, emit_verilog
from .asm_model import La1AsmConfig, build_la1_asm
from .conformance import check_la1_conformance
from .monitors import attach_read_mode_monitors
from .ovl_bindings import build_la1_top_with_ovl
from .properties import asm_labeling, device_property_suite, read_mode_suite
from .rtl_testbench import RtlHost
from .spec import La1Config, la1_config
from .sysc_model import build_la1_system
from .traffic import queue_traffic
from .uml_spec import (
    extracted_properties,
    la1_class_diagram,
    la1_use_cases,
    read_mode_sequence,
    write_mode_sequence,
)

__all__ = ["FlowConfig", "StageResult", "FlowReport", "run_stages",
           "run_flow", "la1_config", "run_abv", "run_ovl"]

#: coverage fraction the merged DB must reach for the coverage stage to
#: pass; structural toggle points (every SRAM bit has a rose and a fell
#: target) dominate the denominator, so short flows sit low even when
#: the behavioural levels are closed
COVERAGE_THRESHOLD = 0.10

#: one stage's outcome: (passed, detail text, result object)
Outcome = Tuple[bool, str, object]


@dataclass
class FlowConfig:
    """Parameters of one flow run."""

    banks: int = 2
    #: random host transactions driven during the ABV and OVL stages
    traffic: int = 40
    seed: int = 2004
    #: conformance co-execution depth (half-cycles)
    conformance_depth: int = 4
    #: run the RTL symbolic MC stage on the control abstraction (fast)
    #: or the full datapath ("full", minutes) or skip it (None)
    rtl_mc: Optional[str] = "control"
    #: engine of the RTL MC stage: "bdd" (RuleBase-style reachability)
    #: or "sat" (CNF-unrolled BMC + k-induction, repro.sat -- proves
    #: the 4-bank suite the BDD engine explodes on)
    mc_engine: str = "bdd"
    #: run the static-analysis stage (repro.lint) over the refined RTL,
    #: the PSL suite and the ASM model before model checking
    static_lint: bool = True
    #: collect cross-level coverage (repro.cover) during the ASM, ABV
    #: and OVL stages and append a merged closure stage to the report
    coverage: bool = True
    #: process-pool width for the parallelizable stages (repro.par):
    #: the RTL model-checking stage sweeps the read-mode conjuncts one
    #: property per shard at every jobs, inline at jobs=1 and one
    #: process per property at jobs > 1, so the stage reports the same
    #: detail and statistics at every jobs
    jobs: int = 1
    #: service-grade supervision knobs for the sharded stages
    #: (repro.par.supervise): attempts each shard gets before
    #: quarantine, and (jobs > 1 only) the per-shard wall-clock after
    #: which a hung worker is killed and the shard retried.  A quarantined
    #: MC property degrades the stage to inconclusive (FAIL), never to
    #: a silent pass
    shard_attempts: int = 2
    shard_deadline_s: Optional[float] = None

    def __post_init__(self):
        # refused before any stage runs, not at the RTL MC stage
        check_mc_choice(self.mc_engine, self.rtl_mc)


@dataclass
class StageResult:
    """Outcome of one flow stage."""

    name: str
    ok: bool
    detail: str = ""
    cpu_time: float = 0.0
    data: object = None

    def __repr__(self):
        flag = "ok" if self.ok else "FAILED"
        return f"StageResult({self.name}: {flag}, {self.cpu_time:.2f}s)"


@dataclass
class FlowReport:
    """All stage results of a flow run: the LA-1 flow fills in
    ``config`` and ``verilog``, a zoo-design flow ``design`` and
    ``fingerprint``."""

    title: str
    stages: list[StageResult] = field(default_factory=list)
    config: Optional[FlowConfig] = None
    verilog: str = ""
    design: str = ""
    fingerprint: str = ""

    @property
    def ok(self) -> bool:
        """True when every executed stage passed."""
        return all(stage.ok for stage in self.stages)

    def stage(self, name: str) -> Optional[StageResult]:
        """Look up a stage by name."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        return None

    def render(self) -> str:
        """Human-readable flow summary."""
        lines = [self.title + (f" fingerprint {self.fingerprint}"
                               if self.fingerprint else "")]
        for stage in self.stages:
            flag = "PASS" if stage.ok else "FAIL"
            lines.append(
                f"  [{flag}] {stage.name:<24} {stage.cpu_time:7.2f}s  "
                f"{stage.detail}"
            )
        lines.append(f"  overall: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def run_stages(report: FlowReport,
               stages: Iterable[Tuple[str, Callable[[], Outcome]]]
               ) -> FlowReport:
    """Run ``(name, fn)`` stages in order, where ``fn()`` returns
    ``(ok, detail, data)``: time each one, append its
    :class:`StageResult`, and stop after the first failing stage."""
    for name, fn in stages:
        start = time.perf_counter()
        ok, detail, data = fn()
        report.stages.append(StageResult(
            name, ok, detail, time.perf_counter() - start, data))
        if not ok:
            break
    return report


def _harvest(collectors, db) -> None:
    """Detach every coverage collector, then harvest each into ``db``."""
    for collector in collectors:
        collector.detach()
    for collector in collectors:
        collector.harvest(db)


def run_abv(la1: La1Config, traffic: int, seed: int, db=None):
    """The kernel-level ABV run: the read-mode PSL monitors watch
    ``traffic`` seeded host transactions for ``traffic * 20 + 200``
    time units.  With a coverage ``db``, functional and PSL-assertion
    coverage are harvested into it.  Returns ``(abv_report, host)``."""
    sim, clocks, device, host = build_la1_system(la1)
    monitors = attach_read_mode_monitors(sim, device, clocks)
    collectors = ()
    if db is not None:
        from ..cover import La1FunctionalCoverage, PslAssertionCoverage

        collectors = (La1FunctionalCoverage(host),
                      PslAssertionCoverage(monitors))
    queue_traffic(host, la1, traffic, seed)
    sim.run(traffic * 20 + 200)
    abv = summarize(monitors).finish()
    _harvest(collectors, db)
    return abv, host


def run_ovl(sim: RtlSimulator, la1: La1Config, traffic: int, seed: int,
            db=None) -> RtlHost:
    """The OVL run: a host on the OVL-instrumented ``sim`` drives
    ``traffic`` seeded transactions until idle.  With a coverage ``db``,
    toggle and OVL-assertion coverage are harvested into it."""
    host = RtlHost(sim, la1)
    collectors = ()
    if db is not None:
        from ..cover import OvlAssertionCoverage, ToggleCollector

        collectors = (ToggleCollector(sim), OvlAssertionCoverage(sim))
    queue_traffic(host, la1, traffic, seed)
    host.run_until_idle()
    _harvest(collectors, db)
    return host


# ----------------------------------------------------------------------
# the stages; each returns (ok, detail, data)
# ----------------------------------------------------------------------
def _uml() -> Outcome:
    classes = la1_class_diagram()
    problems = classes.validate()
    problems += la1_use_cases().validate()
    problems += read_mode_sequence(classes).validate()
    problems += write_mode_sequence(classes).validate()
    extracted = extracted_properties()
    return (not problems,
            f"{len(classes.classes)} classes, {len(extracted)} extracted "
            f"properties" + (f"; problems: {problems}" if problems else ""),
            extracted)


def _asm_model_checking(banks: int, db) -> Outcome:
    machine = build_la1_asm(La1AsmConfig(banks=banks))
    collectors = ()
    if db is not None:
        from ..cover import AsmCoverage, la1_state_predicates

        # exploration fires the machine's rules, so the observer sees
        # every transition the model checker takes
        collectors = (AsmCoverage(machine, la1_state_predicates(banks)),)
    suite = device_property_suite(banks)
    checker = AsmModelChecker(machine, asm_labeling(banks),
                              ExplorationConfig())
    result = checker.check_combined([p for __, p in suite], name="suite")
    _harvest(collectors, db)
    return (result.holds is True,
            f"{len(suite)} properties, {result.num_nodes} nodes, "
            f"{result.num_transitions} transitions",
            result)


def _conformance(config: FlowConfig) -> Outcome:
    result = check_la1_conformance(
        La1AsmConfig(banks=min(config.banks, 2)),
        max_depth=config.conformance_depth,
    )
    return (result.conformant,
            f"{result.paths_checked} paths, {result.steps_executed} steps"
            + ("" if result.conformant else f"; {result.divergence}"),
            result)


def _systemc_abv(la1: La1Config, config: FlowConfig, db) -> Outcome:
    abv, host = run_abv(la1, config.traffic, config.seed, db)
    return (abv.passed,
            f"{len(abv.monitors)} monitors, {abv.monitors[0].samples} "
            f"samples, {len(host.results)} reads completed",
            abv)


def _rtl_refinement(la1: La1Config, report: FlowReport) -> Outcome:
    from .rtl_model import build_la1_top_rtl

    top = build_la1_top_rtl(la1)
    report.verilog = emit_verilog(top)
    stats = elaborate(top).stats()
    return (True,
            f"{stats['regs']} regs, {stats['nets']} nets, "
            f"{len(report.verilog.splitlines())} Verilog lines",
            stats)


def _static_lint(banks: int) -> Outcome:
    from ..lint import lint_la1

    report = lint_la1(banks=banks)
    counts = report.counts()
    return (report.ok,
            f"{len(report.pass_order)} passes, {counts['error']} errors, "
            f"{counts['warning']} warnings, {counts['waived']} waived",
            report)


def _rtl_model_checking(config: FlowConfig) -> Outcome:
    # the read-mode conjuncts, swept one property per shard; their
    # conjunction is the Read-Mode property of Table 2
    datapath = config.rtl_mc == "full"
    sweep = sweep_rtl_properties(
        config.banks,
        read_mode_suite(1),
        datapath=datapath,
        jobs=config.jobs,
        shard_attempts=config.shard_attempts,
        shard_deadline_s=config.shard_deadline_s,
        engine=config.mc_engine,
    )
    mc = sweep.combined(f"read_mode[{config.banks}banks]")
    # degraded-run visibility: a sweep that needed the supervision
    # ladder says so instead of passing silently
    par = sweep.par_stats
    notes = []
    if par.get("retries"):
        notes.append(f"{par['retries']} retries")
    if par.get("killed_workers"):
        notes.append(f"{par['killed_workers']} workers reaped")
    if sweep.quarantined:
        notes.append(f"quarantined: {', '.join(sweep.quarantined)}")
    cache = ""
    if mc.bdd_stats and config.mc_engine != "sat":
        hits = mc.bdd_stats.get("cache_hits", 0)
        misses = mc.bdd_stats.get("cache_misses", 0)
        cache = (f", computed-table {hits}/{hits + misses} hits"
                 f" ({mc.bdd_stats.get('cache_clears', 0)} clears)")
    size_label = (
        f"{mc.peak_nodes} clauses, k={mc.iterations}"
        if config.mc_engine == "sat"
        else f"{mc.peak_nodes} BDDs, {mc.iterations} iterations"
    )
    return (mc.holds is True,
            f"{'full datapath' if datapath else 'control'} model, "
            + size_label + cache
            + (" [STATE EXPLOSION]" if mc.exploded else "")
            + (" [TRUNCATED]" if mc.truncated else "")
            + (f" [DEGRADED: {'; '.join(notes)}]" if notes else ""),
            mc)


def _rtl_ovl_simulation(la1: La1Config, config: FlowConfig,
                        db) -> Outcome:
    sim = RtlSimulator(elaborate(build_la1_top_with_ovl(la1)),
                       backend="compiled")
    host = run_ovl(sim, la1, config.traffic, config.seed, db)
    return (sim.ok,
            f"{sim.backend} backend, {len(sim.design.monitors)} OVL "
            f"monitors, {sim.edge_count} edges, {len(host.results)} reads"
            + ("" if sim.ok else f"; failures: {sim.failures[:3]}"),
            sim.stats())


def _coverage(db) -> Outcome:
    covered, total = db.counts()
    per_level = ", ".join(
        f"{level} {db.coverage(level):.0%}" for level in db.levels())
    return (db.coverage() >= COVERAGE_THRESHOLD,
            f"{db.coverage():.1%} ({covered}/{total} points; {per_level})",
            db)


def run_flow(config: Optional[FlowConfig] = None) -> FlowReport:
    """Execute the Figure 2 flow; stops at the first failing stage."""
    config = config or FlowConfig()
    report = FlowReport(f"LA-1 flow ({config.banks} banks):", config=config)
    la1 = la1_config(config.banks)
    db = None
    if config.coverage:
        from ..cover import CoverageDB

        db = CoverageDB(meta={"flow": f"la1_{config.banks}banks",
                              "seed": config.seed})
    stages = [
        ("uml", _uml),
        ("asm_model_checking",
         lambda: _asm_model_checking(config.banks, db)),
        ("asm_to_systemc_conformance", lambda: _conformance(config)),
        ("systemc_abv", lambda: _systemc_abv(la1, config, db)),
        ("rtl_refinement", lambda: _rtl_refinement(la1, report)),
    ]
    if config.static_lint:
        stages.append(("static_lint", lambda: _static_lint(config.banks)))
    if config.rtl_mc is not None:
        stages.append(("rtl_model_checking",
                       lambda: _rtl_model_checking(config)))
    stages.append(("rtl_ovl_simulation",
                   lambda: _rtl_ovl_simulation(la1, config, db)))
    if db is not None:
        stages.append(("coverage", lambda: _coverage(db)))
    return run_stages(report, stages)
