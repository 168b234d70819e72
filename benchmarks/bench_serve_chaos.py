"""Chaos determinism bench: the failure ladder must not change verdicts.

A plain script (not a pytest benchmark).  It drives the supervised
campaign/testgen stack through every containment tier of the failure
model -- an injected worker kill, an injected worker hang (reaped by
the per-shard deadline), and a coordinator kill + restart resuming from
the campaign checkpoint -- and asserts the *determinism contract* after
each: the chaotic run's campaign signature is bit-identical to the
undisturbed ``jobs=1`` baseline, retries/reaps show up only in the
timing stats, and a resumed coordinator adopts the verdicts the
checkpoint holds instead of recomputing them.  The coordinator dies
at a fixed count of collected verdicts, so the resume check has the
same strength on every run: once half of the fault list has been
collected at 4 banks, and right after the first shard is collected at
1 bank, whose two shards would otherwise take the half-list kill in the
last one and leave the resume nothing to run.  The resumed run must
adopt every decided verdict collected before the kill -- at least the
kill count when the baseline decides every fault -- no adopted fault
reaches ``on_verdict`` again, and the faults left over are re-planned
onto the pool.  Coverage-driven testgen rides along with a jobs=2 vs
jobs=1 parity check on the full coverage DB.

Worker chaos is injected by wrapping the campaign's shard task before
the fork (:func:`repro.serve.__main__.strike_first_shard`) with an
exactly-once marker file (O_CREAT|O_EXCL): the first worker to claim
the kill marker dies with ``os._exit(137)``, the first to claim the
hang marker sleeps for an hour and must be killed by the supervisor.
Everything is therefore deterministic: the bench either proves the
contract or fails loudly.

``--smoke`` (CI) uses the 1-bank campaign; the default adds the 4-bank
campaign whose heavy ASM shards make the retry/reap windows realistic.

Usage::

    python benchmarks/bench_serve_chaos.py [--smoke] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
import zlib

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cover.asm_cov import build_la1_testgen_model  # noqa: E402
from repro.cover.testgen import undirected_suite  # noqa: E402
from repro.fault.campaign import CampaignConfig, FaultCampaign  # noqa: E402
from repro.serve.__main__ import strike_first_shard  # noqa: E402


#: the outcomes a campaign checkpoint keeps
DECIDED = ("detected", "silent", "masked")


class Killed(Exception):
    """Stands in for the coordinator process dying mid-run."""


def _signature(report) -> int:
    """A CRC of the campaign signature: unlike ``hash`` of its strings,
    equal in every process, so committed records compare across runs."""
    return zlib.crc32(json.dumps(report.signature()).encode())


def _run(config: CampaignConfig, jobs: int, on_verdict=None) -> tuple:
    start = time.perf_counter()
    report = FaultCampaign(config).run(jobs=jobs, on_verdict=on_verdict)
    return report, round(time.perf_counter() - start, 3)


def chaos_campaign(banks: int, traffic: int, rtl_cycles: int,
                   max_faults, jobs: int, workdir: str,
                   hang_deadline_s=15.0, kill_after=None) -> dict:
    """The three chaos tiers on one campaign; the coordinator dies once
    ``kill_after`` verdicts are collected (default: half the list)."""
    base = dict(banks=banks, traffic=traffic, rtl_cycles=rtl_cycles,
                max_faults=max_faults)
    print(f"campaign banks={banks}: baseline jobs=1 ...", flush=True)
    collected_at_baseline = []
    golden, golden_wall = _run(CampaignConfig(**base), jobs=1,
                               on_verdict=collected_at_baseline.append)
    want = _signature(golden)
    scenarios = {"baseline": {"wall_s": golden_wall, "signature": want,
                              "faults": len(golden.verdicts)}}

    # -- tier 1: a worker killed mid-shard is retried ------------------
    print(f"campaign banks={banks}: worker kill ...", flush=True)
    marker = os.path.join(workdir, f"kill.{banks}")
    with strike_first_shard(marker, lambda: os._exit(137)):
        report, wall = _run(CampaignConfig(**base), jobs)
    par = report.engine_stats["par"]
    assert os.path.exists(marker), "chaos kill was never claimed"
    assert par["retries"] >= 1, "the killed shard was not retried"
    assert _signature(report) == want, "worker kill changed verdicts"
    scenarios["worker_kill"] = {"wall_s": wall, "signature":
                                _signature(report), "par": par}

    # -- tier 2: a hung worker is reaped at the shard deadline ---------
    # only at scales where an honest shard finishes far inside the
    # deadline even on a loaded 1-cpu runner: a deadline tight enough
    # to bound a 3600s hang must never reap legitimate work
    if hang_deadline_s is not None:
        print(f"campaign banks={banks}: worker hang + reap ...",
              flush=True)
        marker = os.path.join(workdir, f"hang.{banks}")
        with strike_first_shard(marker, lambda: time.sleep(3600)):
            report, wall = _run(CampaignConfig(
                **base, shard_deadline_s=hang_deadline_s,
                shard_attempts=3), jobs)
        par = report.engine_stats["par"]
        assert os.path.exists(marker), "chaos hang was never claimed"
        assert par["killed_workers"] >= 1, \
            "the hung worker was not reaped"
        assert _signature(report) == want, "worker hang changed verdicts"
        scenarios["worker_hang"] = {"wall_s": wall, "signature":
                                    _signature(report), "par": par}

    # -- tier 3: coordinator killed mid-list, then resumed -------------
    print(f"campaign banks={banks}: coordinator kill + restart ...",
          flush=True)
    checkpoint = os.path.join(workdir, f"restart.{banks}.json")
    config = CampaignConfig(**base, checkpoint_path=checkpoint)
    if kill_after is None:
        kill_after = (len(collected_at_baseline) + 1) // 2
    collected = []

    def die(verdict):
        collected.append(verdict)
        if len(collected) >= kill_after:
            raise Killed(verdict.fault_id)

    start = time.perf_counter()
    try:
        FaultCampaign(config).run(jobs=jobs, on_verdict=die)
        raise AssertionError("the injected coordinator kill misfired")
    except Killed:
        pass
    with open(checkpoint) as fh:
        adopted = set(json.load(fh)["verdicts"])
    rerun = []
    report, __ = _run(config, jobs, on_verdict=lambda v: rerun.append(
        v.fault_id))
    wall = round(time.perf_counter() - start, 3)
    decided = {v.fault_id for v in collected if v.outcome in DECIDED}
    assert decided <= adopted, \
        "the checkpoint lost decided verdicts collected before the kill"
    if all(v.outcome in DECIDED for v in collected_at_baseline):
        assert len(adopted) >= kill_after, \
            "resume adopted fewer verdicts than were collected"
    assert adopted.isdisjoint(rerun), \
        "resume recomputed verdicts the checkpoint already held"
    assert _signature(report) == want, "coordinator restart changed verdicts"
    par = report.engine_stats.get("par") or {}
    assert len(rerun) >= 1, "the kill left the resumed run nothing to do"
    assert par.get("mode") == "pool", \
        "the resumed run did not re-plan its faults onto the pool"
    scenarios["coordinator_restart"] = {
        "wall_s": wall, "signature": _signature(report),
        "adopted_verdicts": len(adopted), "recomputed": len(rerun),
        "par": report.engine_stats.get("par"),
    }
    return scenarios


def testgen_parity(banks: int, jobs: int) -> dict:
    print(f"testgen banks={banks}: jobs=1 vs jobs={jobs} ...", flush=True)
    machine, predicates = build_la1_testgen_model(banks)

    def run(n):
        start = time.perf_counter()
        result = undirected_suite(machine, predicates, num_tests=6,
                                  walk_steps=16, seed=11, jobs=n)
        return result, round(time.perf_counter() - start, 3)

    golden, base_wall = run(1)
    parallel, par_wall = run(jobs)
    assert parallel.history == golden.history, \
        "parallel testgen diverged from the jobs=1 baseline"
    assert parallel.db.to_dict() == golden.db.to_dict(), \
        "parallel testgen produced a different coverage DB"
    return {
        "baseline_wall_s": base_wall,
        "parallel_wall_s": par_wall,
        "coverage": round(golden.coverage, 4),
        "identical": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--smoke", action="store_true",
                        help="CI shape: 1 bank, jobs=2")
    parser.add_argument("--json", dest="json_path",
                        default=os.path.join(os.path.dirname(__file__),
                                             "BENCH_serve_chaos.json"))
    args = parser.parse_args(argv)

    result = {}
    with tempfile.TemporaryDirectory(prefix="la1-chaos-") as workdir:
        # the 1-bank list runs in two shards: the coordinator dies as
        # the first one is collected
        if args.smoke:
            result["campaign banks=1"] = chaos_campaign(
                1, 8, 120, None, jobs=2, workdir=workdir, kill_after=1)
            result["testgen banks=1"] = testgen_parity(1, jobs=2)
        else:
            result["campaign banks=1"] = chaos_campaign(
                1, 8, 120, None, jobs=2, workdir=workdir, kill_after=1)
            result["campaign banks=4"] = chaos_campaign(
                4, 24, 160, None, jobs=4, workdir=workdir,
                hang_deadline_s=None)
            result["testgen banks=2"] = testgen_parity(2, jobs=4)

    from bench_schema import write_bench

    write_bench(
        args.json_path, "serve_chaos",
        config={"smoke": bool(args.smoke)},
        metrics=result,
        gates={"identical": all(
            scenario.get("identical", True) for scenario in result.values())},
    )
    print(f"wrote {args.json_path} -- every chaos scenario reproduced "
          "the jobs=1 verdicts bit-identically")
    return 0


if __name__ == "__main__":
    sys.exit(main())
