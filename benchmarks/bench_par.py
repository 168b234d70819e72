"""Speedup curve of the parallel fault campaign (repro.par).

A plain script (not a pytest benchmark): runs the same campaign at
``--jobs 1, 2, 4`` and records, per point, the measured wall-clock, the
worker-measured per-shard times and the *critical-path speedup* -- the
speedup the shard plan supports given enough free cores
(``total_shard_s / critical_path_s``).  On a single-core runner the
measured wall-clock cannot beat jobs=1 (the pool adds fork/pickle
overhead instead); the critical-path estimate is the honest
machine-independent number, and ``cpus`` in the JSON records which
regime produced the measurements.

The determinism contract is asserted on every run: all jobs settings
must produce identical campaign signatures.

``--smoke`` (CI) uses the 2-bank campaign; the default is the 4-bank
campaign whose three ASM faults dominate the cost and set the critical
path.

Usage::

    python benchmarks/bench_par.py [--smoke] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import zlib

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.fault.campaign import CampaignConfig, FaultCampaign  # noqa: E402


def run_point(banks: int, traffic: int, jobs: int) -> dict:
    config = CampaignConfig(banks=banks, traffic=traffic)
    start = time.perf_counter()
    report = FaultCampaign(config).run(jobs=jobs)
    wall = time.perf_counter() - start
    point = {
        "jobs": jobs,
        "wall_s": round(wall, 3),
        "cpu_time_s": round(report.cpu_time, 3),
        "faults": len(report.verdicts),
        # a CRC, unlike ``hash`` of strings, is equal in every process,
        # so committed values compare across runs
        "signature": zlib.crc32(json.dumps(report.signature()).encode()),
        "counts": report.counts(),
    }
    par = report.engine_stats.get("par")
    if par:
        point["par"] = par
        point["speedup_estimate"] = par["speedup_estimate"]
    return point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--smoke", action="store_true",
                        help="CI shape: 2 banks, jobs 1 and 2")
    parser.add_argument("--json", dest="json_path",
                        default=os.path.join(os.path.dirname(__file__),
                                             "BENCH_par.json"))
    args = parser.parse_args(argv)

    banks = 2 if args.smoke else 4
    traffic = 24
    jobs_axis = [1, 2] if args.smoke else [1, 2, 4]

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1

    points = []
    for jobs in jobs_axis:
        print(f"campaign: banks={banks} jobs={jobs} ...", flush=True)
        point = run_point(banks, traffic, jobs)
        print(f"  wall={point['wall_s']}s"
              + (f"  critical-path speedup x{point['speedup_estimate']}"
                 if "speedup_estimate" in point else ""))
        points.append(point)

    signatures = {p["signature"] for p in points}
    deterministic = len(signatures) == 1
    baseline = points[0]["wall_s"]
    for p in points[1:]:
        p["measured_speedup"] = round(baseline / p["wall_s"], 3)

    result = {
        "banks": banks,
        "traffic": traffic,
        "cpus": cpus,
        "deterministic": deterministic,
        "points": points,
    }
    from bench_schema import write_bench

    write_bench(
        args.json_path, "par",
        config={"banks": banks, "traffic": traffic, "cpus": cpus,
                "jobs_axis": jobs_axis, "smoke": bool(args.smoke)},
        metrics={f"par banks={banks}": result},
        gates={"deterministic": deterministic},
    )
    print(f"wrote {args.json_path} (cpus={cpus}, "
          f"deterministic={deterministic})")
    if not deterministic:
        print("FAIL: jobs settings disagree on the campaign signature",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
