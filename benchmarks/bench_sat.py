"""SAT engine vs BDD engine on the Read-Mode property set (repro.sat).

A plain script (not a pytest benchmark), in the bench_par.py mould.
Three panels per run:

* **bmc curve** -- bounded model checking wall-clock and clause count at
  increasing unroll depths on the N-bank netlist, the depth/time curve
  that shows the encoding scales linearly where BDD image computation
  does not.
* **k-induction** -- per-property prove times for the full Read-Mode
  suite (every bank), with the inductive depth ``k`` and DRAT-style
  proof checking on.
* **bdd comparison** -- the same property set on the BDD engine.  Small
  configurations run live; the 4-bank full-netlist point is the
  documented BDD wall (paper Table 2 regime): it is measured live only
  with ``--wall``, otherwise the pinned explosion baseline measured on
  the reference runner is reported (``"pinned": true``) so CI does not
  burn minutes reproducing a known blow-up.

``--smoke`` (CI) runs banks 1 and 2 with a short depth axis; the
default runs banks 2 and 4.

Usage::

    python benchmarks/bench_sat.py [--smoke] [--wall] [--json PATH]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.properties import read_mode_suite  # noqa: E402
from repro.core.rulebase import check_read_mode_rtl  # noqa: E402
from repro.sat.bmc import check_read_mode_sat  # noqa: E402

# BDD-engine 4-bank full-netlist explosion (transient node budget 12M),
# measured once with --wall on a 2-vCPU runner (2.8 GB max RSS): the
# run the SAT engine exists to get past.  Re-measure live with --wall.
PINNED_BDD_WALL = {
    "banks": 4,
    "coi": False,
    "exploded": True,
    "wall_s": 516.5,
    "peak_nodes": 8_427_369,
    "pinned": True,
}


def bmc_curve(banks: int, depths: list[int]) -> list[dict]:
    points = []
    for depth in depths:
        start = time.perf_counter()
        result = check_read_mode_sat(
            banks, method="bmc", max_depth=depth)
        wall = time.perf_counter() - start
        stats = result.bdd_stats
        points.append({
            "depth": depth,
            "wall_s": round(wall, 3),
            "clauses": stats.get("clauses", 0),
            "conflicts": stats.get("conflicts", 0),
            "clean": result.holds is None and not result.truncated,
        })
        print(f"  bmc banks={banks} depth={depth}: "
              f"{points[-1]['wall_s']}s, "
              f"{points[-1]['clauses']} clauses", flush=True)
    return points


def k_induction(banks: int, check_proofs: bool) -> list[dict]:
    rows = []
    for name, prop in read_mode_suite(banks):
        start = time.perf_counter()
        result = check_read_mode_sat(
            banks, prop=prop, property_name=name,
            max_k=20, check_proofs=check_proofs)
        wall = time.perf_counter() - start
        stats = result.bdd_stats
        rows.append({
            "property": name,
            "proved": result.holds is True,
            "k": stats.get("k"),
            "wall_s": round(wall, 3),
            "clauses": stats.get("clauses", 0),
            "proof_lemmas": stats.get("proof_lemmas", 0),
        })
        print(f"  prove banks={banks} {name}: "
              f"k={rows[-1]['k']} {rows[-1]['wall_s']}s", flush=True)
    return rows


def bdd_rows(banks: int) -> list[dict]:
    rows = []
    for name, prop in read_mode_suite(banks):
        start = time.perf_counter()
        result = check_read_mode_rtl(
            banks, prop=prop, property_name=name)
        wall = time.perf_counter() - start
        rows.append({
            "property": name,
            "proved": result.holds is True,
            "exploded": result.exploded,
            "wall_s": round(wall, 3),
            "peak_nodes": result.peak_nodes,
        })
        print(f"  bdd banks={banks} {name}: "
              f"{rows[-1]['wall_s']}s, "
              f"peak {rows[-1]['peak_nodes']} nodes", flush=True)
    return rows


def measure_bdd_wall() -> dict:
    """Live re-measurement of the 4-bank full-netlist BDD explosion."""
    name, prop = read_mode_suite(4)[0]
    start = time.perf_counter()
    result = check_read_mode_rtl(
        4, prop=prop, property_name=name, coi=False)
    return {
        "banks": 4,
        "coi": False,
        "exploded": result.exploded,
        "wall_s": round(time.perf_counter() - start, 3),
        "peak_nodes": result.peak_nodes,
        "pinned": False,
    }


def sat_wall_point() -> dict:
    """The SAT engine at the exact BDD-wall configuration: 4 banks,
    full netlist, no cone-of-influence reduction."""
    rows = []
    start = time.perf_counter()
    for name, prop in read_mode_suite(4):
        result = check_read_mode_sat(
            4, prop=prop, property_name=name, coi=False, max_k=20)
        rows.append({
            "property": name,
            "proved": result.holds is True,
            "k": result.bdd_stats.get("k"),
            "clauses": result.bdd_stats.get("clauses", 0),
        })
    return {
        "banks": 4,
        "coi": False,
        "all_proved": all(r["proved"] for r in rows),
        "wall_s": round(time.perf_counter() - start, 3),
        "properties": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--smoke", action="store_true",
                        help="CI shape: banks 1-2, short depth axis")
    parser.add_argument("--wall", action="store_true",
                        help="re-measure the 4-bank BDD explosion live "
                             "instead of reporting the pinned baseline")
    parser.add_argument("--json", dest="json_path",
                        default=os.path.join(os.path.dirname(__file__),
                                             "BENCH_sat.json"))
    args = parser.parse_args(argv)

    banks_axis = [1, 2] if args.smoke else [2, 4]
    depths = [4, 8, 16] if args.smoke else [4, 8, 16, 32]

    result: dict = {"banks_axis": banks_axis, "panels": {}}
    ok = True

    for banks in banks_axis:
        print(f"bmc curve: banks={banks}", flush=True)
        curve = bmc_curve(banks, depths)
        ok = ok and all(p["clean"] for p in curve)
        result["panels"][f"bmc banks={banks}"] = curve

    for banks in banks_axis:
        print(f"k-induction: banks={banks}", flush=True)
        rows = k_induction(banks, check_proofs=True)
        ok = ok and all(r["proved"] for r in rows)
        result["panels"][f"k-induction banks={banks}"] = rows

    bdd_banks = banks_axis[0]
    print(f"bdd engine: banks={bdd_banks}", flush=True)
    result["panels"][f"bdd banks={bdd_banks}"] = bdd_rows(bdd_banks)

    print("bdd wall: 4 banks, full netlist", flush=True)
    wall = measure_bdd_wall() if args.wall else dict(PINNED_BDD_WALL)
    result["panels"]["bdd wall"] = wall
    print(f"  bdd: exploded={wall['exploded']} "
          f"{wall['wall_s']}s, peak {wall['peak_nodes']} nodes"
          f"{' (pinned)' if wall['pinned'] else ''}", flush=True)

    print("sat at the wall: 4 banks, full netlist, no coi", flush=True)
    sat_wall = sat_wall_point()
    ok = ok and sat_wall["all_proved"]
    result["panels"]["sat at the wall"] = sat_wall
    print(f"  sat: all_proved={sat_wall['all_proved']} "
          f"{sat_wall['wall_s']}s", flush=True)

    result["past_the_wall"] = bool(
        sat_wall["all_proved"] and wall["exploded"])

    from bench_schema import write_bench

    write_bench(
        args.json_path, "sat",
        config={"banks_axis": banks_axis, "depths": depths,
                "smoke": bool(args.smoke)},
        metrics={"sat": result},
        gates={"all_proved": ok,
               "past_the_wall": result["past_the_wall"]},
    )
    print(f"wrote {args.json_path} "
          f"(past_the_wall={result['past_the_wall']})")
    if not ok:
        print("FAIL: a property was not proved / a BMC run not clean",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
