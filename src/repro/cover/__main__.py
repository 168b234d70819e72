"""Command-line coverage driver.

``python -m repro.cover --smoke`` is the CI entry point: it collects
coverage from all four methodology levels under two different seeds (as
two independent "parallel" shards), checks the lossless-merge invariant
(merged hits must equal the sum of the shards'), prints the closure
report, optionally writes/diffs JSON databases, and exits 1 when the
merged coverage misses the threshold.

Subcommand-free modes:

* default / ``--smoke``  -- collect + merge + report + threshold gate
* ``--merge a.json b.json ...``  -- merge saved DBs into ``--json``
* ``--report a.json``  -- render a saved DB
* ``--diff current.json --baseline base.json``  -- regression gate
"""

from __future__ import annotations

import argparse
import os
import sys

from ..cli import JOBS_RANGE, LANES_RANGE, bounded_int
from .db import CoverageDB
from .la1 import collect_la1_coverage

#: CI gate: merged all-level coverage the smoke collection must reach.
#: The denominator is dominated by structural toggle points on the SRAM
#: arrays (every memory bit has a rose and a fell target), which short
#: random traffic cannot close -- the functional/asm/assert levels reach
#: 100% well before the structural level moves past ~25%.
DEFAULT_THRESHOLD = 0.20


def _write_json(db: CoverageDB, path: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    db.save(path)
    print(f"wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cover",
        description="collect / merge / report LA-1 cross-level coverage",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="CI shape: 2 banks, two-seed shard collection "
                             "with a lossless-merge check")
    parser.add_argument("--banks", type=int, default=2)
    parser.add_argument("--traffic", type=int, default=24)
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--backend", default="compiled",
                        choices=("compiled", "interp"))
    parser.add_argument("--asm-steps", type=int, default=64)
    parser.add_argument("--lanes", type=bounded_int("--lanes", *LANES_RANGE),
                        default=1,
                        help="bit-parallel lane width for the RTL stage "
                             "(backend='bitpar', lane 0 harvested); the "
                             "collected DB is identical to --lanes 1")
    parser.add_argument("--jobs", type=bounded_int("--jobs", *JOBS_RANGE),
                        default=1,
                        help="collect the per-seed shards on a process "
                             "pool (repro.par); the merged DB is "
                             "identical to --jobs 1")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="exit 1 when merged coverage is below this "
                             f"(default {DEFAULT_THRESHOLD})")
    parser.add_argument("--holes", type=int, default=10,
                        help="uncovered keys to list in the report")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write the collected/merged DB JSON here")
    parser.add_argument("--baseline", default=None,
                        help="saved DB JSON to diff against (exit 1 on "
                             "coverage regression)")
    parser.add_argument("--merge", nargs="+", default=None,
                        metavar="DB_JSON",
                        help="merge saved DBs instead of collecting")
    parser.add_argument("--report", default=None, metavar="DB_JSON",
                        help="render a saved DB instead of collecting")
    parser.add_argument("--diff", default=None, metavar="DB_JSON",
                        help="diff a saved DB against --baseline")
    args = parser.parse_args(argv)

    # ---------------------------------------------- offline DB modes
    if args.report is not None:
        db = CoverageDB.load(args.report)
        print(db.render(holes=args.holes))
        return 0 if db.coverage() >= args.threshold else 1

    if args.diff is not None:
        if args.baseline is None:
            parser.error("--diff requires --baseline")
        diff = CoverageDB.load(args.diff).diff(CoverageDB.load(args.baseline))
        print(diff.render())
        return 0 if diff.ok else 1

    if args.merge is not None:
        shards = [CoverageDB.load(path) for path in args.merge]
        merged = CoverageDB.merged(shards)
        expected = sum(db.total_hits() for db in shards)
        if merged.total_hits() != expected:
            print(f"FAIL: merge lost hits ({merged.total_hits()} != "
                  f"{expected})", file=sys.stderr)
            return 1
        print(merged.render(holes=args.holes))
        if args.json_path:
            _write_json(merged, args.json_path)
        return 0 if merged.coverage() >= args.threshold else 1

    # ---------------------------------------------- collection modes
    banks = 2 if args.smoke else args.banks
    seeds = [args.seed, args.seed + 1] if args.smoke else [args.seed]
    shard_args = [
        (banks, args.traffic, seed, args.backend, args.asm_steps, args.lanes)
        for seed in seeds
    ]
    for seed in seeds:
        print(f"collecting: {banks} banks, traffic={args.traffic}, "
              f"seed={seed}, backend={args.backend}")
    if args.jobs > 1 and len(shard_args) > 1:
        from ..par import ShardError, run_supervised

        results, stats = run_supervised(
            collect_la1_coverage, shard_args, jobs=args.jobs)
        # a quarantined shard is collected again inline: the same
        # answer, or the same exception, a --jobs 1 run would give
        shards = [
            collect_la1_coverage(*shard) if isinstance(result, ShardError)
            else result
            for shard, result in zip(shard_args, results)
        ]
        print(f"par: jobs={stats.jobs} mode={stats.mode} "
              f"wall={stats.wall_s:.2f}s")
    else:
        shards = [collect_la1_coverage(*shard) for shard in shard_args]
    merged = CoverageDB.merged(shards)

    if len(shards) > 1:
        expected = sum(db.total_hits() for db in shards)
        if merged.total_hits() != expected:
            print(f"FAIL: merge lost hits ({merged.total_hits()} != "
                  f"{expected})", file=sys.stderr)
            return 1
        print(f"merge: lossless ({len(shards)} shards, "
              f"{merged.total_hits()} hits, {len(merged)} points)")

    print(merged.render(holes=args.holes))

    if args.json_path:
        _write_json(merged, args.json_path)

    if args.baseline is not None:
        diff = merged.diff(CoverageDB.load(args.baseline))
        print(diff.render())
        if not diff.ok:
            print("FAIL: coverage regressed against baseline",
                  file=sys.stderr)
            return 1

    if merged.coverage() < args.threshold:
        print(f"FAIL: coverage {merged.coverage():.1%} below threshold "
              f"{args.threshold:.1%}", file=sys.stderr)
        return 1
    print(f"PASS: coverage {merged.coverage():.1%} >= "
          f"{args.threshold:.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
