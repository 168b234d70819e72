"""Static analysis: lint pass times and the cone-of-influence ablation.

Part 1 times every pass of ``repro.lint`` over the shipped LA-1 stack
(OVL-instrumented RTL netlist, device PSL suite, ASM machine) per bank
count -- the per-pass wall-clock budget the CI lint job spends.

Part 2 quantifies what the cone-of-influence reduction buys the Table-2
model-checking run: the 2-bank full-datapath Read-Mode check with
``coi=True`` (the default everywhere outside the Table-2 baseline)
against the full-netlist encoding RuleBase-era flows used.  The full
baseline needs ~5 CPU-minutes of pure-Python BDD time, so by default it
runs under a 1,000,000-node transient BDD budget, which it exhausts
after 8 image steps on any host -- the peak BDD count it records by
then is already orders of magnitude above the COI run's, which is the
comparison that matters.  Set ``LA1_BENCH_FULL=1`` to run the baseline
to completion; the verdicts then agree exactly (both HOLDS, no
counterexample).
"""

import pytest

from conftest import FULL, record_bench, record_row
from repro.core import check_read_mode_rtl
from repro.core.properties import read_mode_property, rtl_labels
from repro.core.rtl_model import build_la1_top_rtl
from repro.core.rulebase import MC_SCALE_CONFIG
from repro.lint import lint_la1
from repro.lint.coi import reduce_design
from repro.rtl import elaborate

BANKS = [1, 2, 4]

#: quick mode bounds the full-netlist baseline; FULL runs it to the end
BASELINE_BUDGETS = {} if FULL else {"transient_node_budget": 1_000_000}


def _mc_metrics(result):
    return {
        "holds": result.holds,
        "cpu_s": round(result.cpu_time, 3),
        "peak_nodes": result.peak_nodes,
        "iterations": result.iterations,
        "memory_mb": round(result.memory_mb, 2),
        "truncated": result.truncated,
        "exploded": result.exploded,
    }


@pytest.mark.parametrize("banks", BANKS)
def test_lint_pass_times(benchmark, banks):
    box = {}

    def run():
        box["report"] = lint_la1(banks=banks)

    benchmark.pedantic(run, rounds=1, iterations=1)
    report = box["report"]
    counts = report.counts()
    assert report.ok, report.render()
    total = sum(report.pass_times.values())
    record_row(
        "Lint: per-pass wall time",
        f"banks={banks}  passes={len(report.pass_order):2d}  "
        f"total={total * 1e3:7.1f}ms  waived={counts['waived']:2d}",
    )
    for name in report.pass_order:
        record_row(
            "Lint: per-pass wall time",
            f"banks={banks}    {name:<22s} {report.pass_times[name] * 1e3:7.1f}ms",
        )
    record_bench("BENCH_lint.json", f"lint[banks={banks}]", {
        "pass_order": report.pass_order,
        "pass_times_ms": {
            name: round(t * 1e3, 2) for name, t in report.pass_times.items()
        },
        "total_ms": round(total * 1e3, 2),
        "counts": counts,
        "ok": report.ok,
    })


def test_coi_design_reduction(benchmark):
    """Static size of the reduction feeding the model checker: how much
    of the 2-bank MC-scale netlist lies outside the Read-Mode cone."""
    box = {}

    def run():
        design = elaborate(build_la1_top_rtl(MC_SCALE_CONFIG(2)))
        used = read_mode_property(0).atoms()
        roots = sorted(
            path for atom, (path, __) in rtl_labels("la1_top", 2).items()
            if atom in used
        )
        box["design"] = design
        box["reduced"] = reduce_design(design, roots)

    benchmark.pedantic(run, rounds=1, iterations=1)
    design, reduced = box["design"], box["reduced"]
    dropped = reduced.coi_dropped
    assert dropped["regs"] > 0 and dropped["state_bits"] > 0
    record_row(
        "COI reduction: 2-bank MC-scale netlist",
        f"nets {len(design.nets)} -> {len(reduced.nets)}  "
        f"regs {len(design.regs)} -> {len(reduced.regs)}  "
        f"state bits dropped {dropped['state_bits']}",
    )
    record_bench("BENCH_lint.json", "coi_reduction[banks=2]", {
        "nets_full": len(design.nets),
        "nets_reduced": len(reduced.nets),
        "regs_full": len(design.regs),
        "regs_reduced": len(reduced.regs),
        "dropped": dropped,
        "roots": len(reduced.coi_roots),
    })


def test_coi_mc_ablation(benchmark):
    """The Table-2 2-bank point with and without the COI reduction."""
    box = {}

    def run():
        box["with_coi"] = check_read_mode_rtl(2)
        box["without_coi"] = check_read_mode_rtl(
            2, coi=False, **BASELINE_BUDGETS)

    benchmark.pedantic(run, rounds=1, iterations=1)
    with_coi, without_coi = box["with_coi"], box["without_coi"]
    assert with_coi.holds is True
    # the reduction must be measurable even on the exploded baseline
    assert with_coi.peak_nodes * 10 < without_coi.peak_nodes
    if FULL:
        assert without_coi.holds is True
        assert without_coi.counterexample_depth == \
            with_coi.counterexample_depth
    factor = without_coi.peak_nodes / max(1, with_coi.peak_nodes)
    for tag, result in (("coi", with_coi), ("full", without_coi)):
        verdict = ("STATE EXPLOSION" if result.exploded else
                   {True: "HOLDS", False: "FAILS", None: "UNKNOWN"}[result.holds])
        record_row(
            "COI ablation: Table 2 read mode, 2 banks",
            f"{tag:<5s} cpu={result.cpu_time:8.2f}s  "
            f"bdds={result.peak_nodes:9d}  verdict={verdict}",
        )
    record_row(
        "COI ablation: Table 2 read mode, 2 banks",
        f"peak-node reduction: {factor:,.0f}x"
        + ("" if FULL else "  (baseline cut by its node budget; "
           "LA1_BENCH_FULL=1 for the complete ~5-minute run)"),
    )
    record_bench("BENCH_lint.json", "coi_ablation[banks=2]", {
        "with_coi": _mc_metrics(with_coi),
        "without_coi": _mc_metrics(without_coi),
        "peak_node_reduction_factor": round(factor, 1),
        "baseline_complete": without_coi.holds is not None,
    })
