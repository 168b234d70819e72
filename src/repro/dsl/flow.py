"""``repro.dsl.flow`` -- the full verification flow for a zoo design.

:func:`run_dsl_flow` drives one frontend design through every engine of
the methodology, unchanged from the LA-1 stack:

1. **elaborate** -- lower to the ASM / RTL / SystemC model trio;
2. **lint** -- ``repro.lint`` over the elaborated netlist, the PSL
   property set and the per-rule ASM view (probe and cover nets are
   declared observation points so taps are not flagged dead; frontend
   ``src_loc`` decoration makes any finding point at the DSL line);
3. **conformance** -- BFS co-execution of the ASM model against the RTL
   and SystemC lowerings, bit-identical observations required;
4. **model checking** -- every design property through the SAT engine
   (BMC + k-induction; definitive verdicts) or the RuleBase-style BDD
   reachability engine;
5. **coverage** -- the design's covergroup sampled over a seeded RTL
   run;
6. **campaign** -- a fault-injection smoke campaign (stuck-ats + one
   SEU per register) that must detect at least one fault and complete
   without engine errors.

The flow reports into :class:`repro.core.flow.FlowReport` through
:func:`repro.core.flow.run_stages`, so it reads and stops exactly like
the LA-1 flow: at the first failing stage.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..core.flow import FlowReport, run_stages
from ..lint import LintConfig, lint_design, lint_machine, lint_properties
from ..mc.sweep import PropertySweepReport, check_property
from ..rtl.simulator import RtlSimulator
from .elab import check_dsl_conformance, netlist_fingerprint
from .zoo import build_elaborated, conformance_budget, zoo_properties

__all__ = ["DSL_STAGES", "run_dsl_flow"]

#: the stages after ``elaborate``, in canonical order
DSL_STAGES = ("lint", "conformance", "model_checking", "coverage",
              "campaign")

#: the RTL backend of the conformance, coverage and campaign stages
RTL_BACKEND = "interp"
#: SAT induction depth bound of the model-checking stage (the BDD
#: engine runs under check_property's default node budgets)
MC_MAX_K = 40
#: seeded RTL cycles of the coverage run, and the fraction of the
#: covergroup's bins it must hit
COVERAGE_CYCLES = 64
COVERAGE_THRESHOLD = 0.25
#: RTL cycles per fault and fault-list cap of the campaign smoke
CAMPAIGN_CYCLES = 32
CAMPAIGN_MAX_FAULTS = 16


def _lint(name: str, elab):
    # probe, cover and monitor wires exist to be observed by engines the
    # dataflow pass cannot see (PSL labels, covergroup sampling), so
    # they are observation points, not dead logic
    sinks = tuple(elab.probes.values()) + tuple(
        path for path, __ in elab.covers.values())
    report = lint_design(elab.rtl, config=LintConfig(extra_sinks=sinks),
                         design=elab.flat, subject=f"dsl:{name}")
    props = [(pname, prop) for pname, prop, __ in zoo_properties(name, elab)]
    report.extend(lint_properties(props, subject=f"dsl:{name}:properties"))
    report.extend(lint_machine(elab.rule_machine()))
    counts = report.counts()
    return (report.ok,
            f"{len(report.pass_order)} passes, {counts['error']} errors, "
            f"{counts['warning']} warnings, {counts['waived']} waived",
            report)


def _conformance(name: str, elab):
    results = check_dsl_conformance(
        elab, levels=("rtl", "sysc"), backend=RTL_BACKEND,
        **conformance_budget(name))
    detail = ", ".join(
        f"{level} {'ok' if r.conformant else 'DIVERGED'} "
        f"({r.paths_checked} paths)"
        for level, r in results.items()
    )
    bad = [r.divergence for r in results.values()
           if not r.conformant and r.divergence]
    if bad:
        detail += f"; {bad[0]}"
    return all(r.conformant for r in results.values()), detail, results


def _model_checking(name: str, elab, engine: str):
    results = [
        (pname, check_property(elab.flat, prop, labels, pname, engine,
                               max_k=MC_MAX_K))
        for pname, prop, labels in zoo_properties(name, elab)
    ]
    outcomes = "; ".join(f"{pname}: {_verdict(r)}" for pname, r in results)
    suite = PropertySweepReport(results)
    return (suite.holds is True, f"{engine} engine; {outcomes}",
            suite.combined(name))


def _verdict(result) -> str:
    if result.holds is False:
        return "FAILS"
    if result.holds is None:
        return "UNDECIDED"
    k = result.bdd_stats.get("k")
    return (f"proved k={k}" if k is not None
            else f"holds ({result.iterations} iters)")


def _coverage(name: str, elab, seed: int):
    from ..cover.functional import Covergroup

    group = Covergroup(f"dsl_{name}")
    points = {}
    for cname, (path, width) in sorted(elab.covers.items()):
        bins = [str(v) for v in range(1 << width)]
        points[cname] = (group.coverpoint(cname, bins), path)
    sim = RtlSimulator(elab.flat, backend=RTL_BACKEND)
    sim.reset()
    rng = random.Random(seed)
    inputs = [(net.path, net.width) for net in elab.flat.inputs]
    for __ in range(COVERAGE_CYCLES):
        for path, width in inputs:
            sim.set_input(path, rng.getrandbits(width))
        for point, path in points.values():
            point.sample(str(sim.read(path)))
        sim.step("K")
    fraction = group.coverage()
    return (not sim.failures and fraction >= COVERAGE_THRESHOLD,
            f"{fraction:.0%} of {sum(len(p.bins) for p in group.points)} "
            f"bins over {COVERAGE_CYCLES} cycles"
            + (f"; monitors fired: {[f.name for f in sim.failures[:3]]}"
               if sim.failures else ""),
            group)


def _campaign(name: str, seed: int):
    from ..fault.campaign import CampaignConfig, FaultCampaign

    report = FaultCampaign(CampaignConfig(
        design=name, seed=seed, backend=RTL_BACKEND,
        rtl_cycles=CAMPAIGN_CYCLES, max_faults=CAMPAIGN_MAX_FAULTS,
    )).run()
    counts = report.counts()
    ok = (counts.get("detected", 0) >= 1
          and counts.get("error", 0) == 0
          and counts.get("truncated", 0) == 0)
    return (ok,
            f"{len(report.verdicts)} faults: {counts['detected']} detected, "
            f"{counts['masked']} masked, {counts['silent']} silent, "
            f"{counts['error']} errors",
            report)


def run_dsl_flow(name: str, seed: int = 2004, mc_engine: str = "sat",
                 stages: Optional[List[str]] = None) -> FlowReport:
    """Run the verification flow for the zoo design ``name``.

    ``stages`` restricts execution to a subset of :data:`DSL_STAGES`
    (run in canonical order); elaboration always runs.  Execution stops
    at the first failing stage, like the LA-1 flow."""
    report = FlowReport(f"dsl flow [{name}]", design=name)
    wanted = DSL_STAGES if stages is None else stages

    def elaborate():
        elab = build_elaborated(name)
        stats = elab.flat.stats()
        report.fingerprint = netlist_fingerprint(elab)
        return (True,
                f"{len(elab.design.modules)} modules, "
                f"{len(elab.asm.rules)} ASM rules, {stats['regs']} regs, "
                f"{stats['nets']} nets, {stats['monitors']} monitors",
                elab)

    def elab():
        # every later stage works on the elaborate stage's design
        return report.stages[0].data

    bodies = {
        "lint": lambda: _lint(name, elab()),
        "conformance": lambda: _conformance(name, elab()),
        "model_checking": lambda: _model_checking(name, elab(), mc_engine),
        "coverage": lambda: _coverage(name, elab(), seed),
        "campaign": lambda: _campaign(name, seed),
    }
    return run_stages(report, [("elaborate", elaborate)] + [
        (stage, bodies[stage]) for stage in DSL_STAGES if stage in wanted])
