"""Command-line campaign driver.

``python -m repro.fault --smoke`` runs the 2-bank smoke campaign used by
CI: the default fault list under the default workload, a report printed
to stdout and written as JSON, exit status 1 if any engine crashed or
the protocol-mutation detection coverage drops below the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ..cli import BACKENDS, JOBS_RANGE, LANES_RANGE, PATTERNS_RANGE, bounded_int
from .campaign import CampaignConfig, FaultCampaign

#: CI gate: fraction of expected-detectable protocol mutations that must
#: be caught by a monitor (ISSUE acceptance: >= 90%)
COVERAGE_GATE = 0.9


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fault",
        description="run an LA-1 fault-injection campaign",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="CI smoke shape: 2 banks, default fault list")
    parser.add_argument("--banks", type=int, default=2)
    parser.add_argument("--traffic", type=int, default=24)
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--backend", default="compiled", choices=BACKENDS)
    parser.add_argument("--deadline", type=float, default=None,
                        help="whole-campaign wall-clock budget (seconds)")
    parser.add_argument("--checkpoint", default=None,
                        help="JSON state file for kill/resume")
    parser.add_argument("--max-faults", type=int, default=None)
    parser.add_argument("--jobs", type=bounded_int("--jobs", *JOBS_RANGE),
                        default=1,
                        help="process-pool width (repro.par); the merged "
                             "report is identical to --jobs 1")
    parser.add_argument("--lanes", type=bounded_int("--lanes", *LANES_RANGE),
                        default=1,
                        help="PPSFP lane width: batch compatible faults "
                             "into bit-parallel passes (repro.fault."
                             "ppsfp); verdicts are identical to "
                             "--lanes 1 and multiply with --jobs")
    parser.add_argument("--patterns",
                        type=bounded_int("--patterns", *PATTERNS_RANGE),
                        default=1,
                        help="stimulus patterns per fault (PPSFP's "
                             "second axis: shared command schedule, "
                             "re-drawn addr/data); verdicts merge across "
                             "patterns and are identical at any lane "
                             "count")
    parser.add_argument("--patterns-per-pass",
                        type=bounded_int("--patterns-per-pass", 1, 1024),
                        default=None,
                        help="cap pattern groups tiled per bitpar pass "
                             "(default: auto-fit the lane budget; "
                             "execution knob, never changes verdicts)")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write the report JSON here "
                             "(default: benchmarks/BENCH_fault_campaign.json)")
    args = parser.parse_args(argv)

    config = CampaignConfig(
        banks=2 if args.smoke else args.banks,
        traffic=args.traffic,
        seed=args.seed,
        backend=args.backend,
        campaign_deadline_s=args.deadline,
        checkpoint_path=args.checkpoint,
        max_faults=args.max_faults,
        patterns=args.patterns,
    )
    report = FaultCampaign(config).run(
        on_verdict=lambda v: print(f"  [{v.outcome:>9}] {v.fault_id}"
                                   + (f"  <- {', '.join(v.detected_by)}"
                                      if v.detected_by else "")),
        jobs=args.jobs,
        lanes=args.lanes,
        patterns_per_pass=args.patterns_per_pass,
    )
    print(report.render())
    par = report.engine_stats.get("par")
    if par:
        print(f"par: jobs={par['jobs']} shards={par['shards']} "
              f"mode={par['mode']} wall={par['wall_s']}s "
              f"critical-path speedup x{par['speedup_estimate']}")

    json_path = args.json_path
    if json_path is None:
        here = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))))
        json_path = os.path.join(here, "benchmarks",
                                 "BENCH_fault_campaign.json")
    os.makedirs(os.path.dirname(json_path), exist_ok=True)
    # same envelope shape as benchmarks/bench_schema.py, so the CLI and
    # the benchmark suite produce interchangeable files
    payload = {
        "name": "fault_campaign",
        "config": {
            "banks": config.banks, "traffic": config.traffic,
            "seed": config.seed, "backend": config.backend,
            "patterns": config.patterns, "jobs": args.jobs,
            "lanes": args.lanes, "smoke": bool(args.smoke),
        },
        "metrics": {f"banks={config.banks}": report.to_dict()},
        "gates": {"errors": report.counts()["error"],
                  "protocol_coverage": round(report.coverage("sysc"), 4),
                  "coverage_gate": COVERAGE_GATE},
    }
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"wrote {json_path}")

    errors = report.counts()["error"]
    protocol_coverage = report.coverage("sysc")
    if errors:
        print(f"FAIL: {errors} campaign run(s) crashed", file=sys.stderr)
        return 1
    if protocol_coverage < COVERAGE_GATE:
        print(
            f"FAIL: protocol detection coverage {protocol_coverage:.0%} "
            f"below the {COVERAGE_GATE:.0%} gate", file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
