"""The design zoo through the full methodology (repro.dsl, DESIGN.md §10).

A plain script (not a pytest benchmark): for every zoo design it
records elaboration time, cross-level conformance cost (paths/sec over
the BFS co-execution), per-property time-to-verdict on the SAT engine
(and, unless ``--smoke``, the BDD engine next to it), and the verdict
of the full verification flow -- lint, conformance, model checking,
coverage, fault-injection smoke campaign.

The acceptance gates are asserted on every run:

* every design elaborates to all three model levels;
* conformance is bit-identical at every level (zero divergences);
* lint is clean -- no unwaived errors, every waiver justified;
* the SAT engine returns a definitive verdict for every property;
* the smoke campaign detects >= 1 fault with zero engine errors;
* the full flow passes end to end.

``--smoke`` (CI) skips the BDD comparison column and writes the same
JSON shape.

Usage::

    python benchmarks/bench_dsl.py [--smoke] [--json PATH]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.dsl import check_dsl_conformance, elaborate, netlist_fingerprint  # noqa: E402
from repro.dsl.flow import run_dsl_flow  # noqa: E402
from repro.dsl.zoo import (  # noqa: E402
    build_design,
    conformance_budget,
    zoo_names,
    zoo_properties,
)
from repro.sat.bmc import SatModelChecker  # noqa: E402


def bench_design(name: str, smoke: bool) -> dict:
    point: dict = {"design": name}

    start = time.perf_counter()
    elab = elaborate(build_design(name))
    point["elaborate_s"] = round(time.perf_counter() - start, 4)
    stats = elab.flat.stats()
    point["stats"] = {
        "modules": len(elab.design.modules),
        "asm_rules": len(elab.asm.rules),
        "regs": stats["regs"],
        "nets": stats["nets"],
        "monitors": stats["monitors"],
    }
    point["fingerprint"] = netlist_fingerprint(elab)

    start = time.perf_counter()
    results = check_dsl_conformance(elab, **conformance_budget(name))
    elapsed = time.perf_counter() - start
    assert all(r.conformant for r in results.values()), (
        f"{name}: conformance diverged")
    paths = sum(r.paths_checked for r in results.values())
    point["conformance"] = {
        "levels": sorted(results),
        "paths": paths,
        "cpu_s": round(elapsed, 4),
        "paths_per_s": round(paths / elapsed) if elapsed else None,
    }

    # per-engine time-to-verdict, property by property
    point["properties"] = []
    for pname, prop, labels in zoo_properties(name, elab):
        entry: dict = {"name": pname}
        start = time.perf_counter()
        result = SatModelChecker(elab.flat, prop, labels,
                                 name=pname).prove(max_k=10)
        entry["sat_s"] = round(time.perf_counter() - start, 4)
        assert result.holds is True, f"{name}.{pname}: SAT did not prove"
        entry["sat_k"] = result.k
        if not smoke:
            from repro.mc import SymbolicModel, SymbolicModelChecker

            roots = sorted({path for path, __ in labels.values()})
            start = time.perf_counter()
            bdd = SymbolicModelChecker(
                SymbolicModel(elab.flat, coi_roots=roots)
            ).check_property(prop, labels, name=pname)
            entry["bdd_s"] = round(time.perf_counter() - start, 4)
            entry["bdd_holds"] = bdd.holds
        point["properties"].append(entry)

    # the full flow: lint / conformance / MC / coverage / campaign gates
    start = time.perf_counter()
    flow = run_dsl_flow(name)
    point["flow_s"] = round(time.perf_counter() - start, 4)
    assert flow.ok, f"{name}: flow failed\n{flow.render()}"
    lint = flow.stage("lint").data
    counts = lint.counts()
    assert counts["error"] == 0, f"{name}: unwaived lint errors"
    assert all(d.waived_reason for d in lint.diagnostics if d.waived)
    campaign = flow.stage("campaign").data
    ccounts = campaign.counts()
    assert ccounts["detected"] >= 1 and ccounts["error"] == 0
    point["flow"] = {
        stage.name: {"ok": stage.ok, "cpu_s": round(stage.cpu_time, 4)}
        for stage in flow.stages
    }
    point["lint"] = counts
    point["campaign"] = ccounts
    return point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="skip the BDD comparison column (CI)")
    parser.add_argument("--json", default=os.path.join(
        os.path.dirname(__file__), "BENCH_dsl.json"))
    args = parser.parse_args(argv)

    points = []
    for name in zoo_names():
        point = bench_design(name, smoke=args.smoke)
        points.append(point)
        props = "; ".join(
            f"{p['name']} sat={p['sat_s']}s k={p['sat_k']}"
            + (f" bdd={p['bdd_s']}s" if "bdd_s" in p else "")
            for p in point["properties"])
        print(f"[{name}] elaborate {point['elaborate_s']}s | "
              f"conformance {point['conformance']['paths']} paths "
              f"@ {point['conformance']['paths_per_s']}/s | {props}")
        print(f"[{name}] flow PASS in {point['flow_s']}s | "
              f"lint {point['lint']} | campaign {point['campaign']}")

    from bench_schema import write_bench

    write_bench(
        args.json, "dsl",
        config={"smoke": bool(args.smoke)},
        metrics={"points": {p["design"]: p for p in points}},
        gates={"flow_pass": all(
            stage["ok"] for p in points for stage in p["flow"].values())},
    )
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
