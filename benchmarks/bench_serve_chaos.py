"""Chaos determinism bench: the failure ladder must not change verdicts.

A plain script (not a pytest benchmark).  It drives the supervised
campaign/testgen stack through every containment tier of the failure
model -- an injected worker kill, an injected worker hang (reaped by
the per-shard deadline), and a coordinator kill + restart resuming from
the shard journal -- and asserts the *determinism contract* after each:
the chaotic run's campaign signature is bit-identical to the
undisturbed ``jobs=1`` baseline, retries/reaps show up only in the
timing stats, and a resumed coordinator replays completed shards from
the journal instead of recomputing them (the journal hit count is
asserted, not just reported).  Coverage-driven testgen rides along with
a jobs=2 vs jobs=1 parity check on the full coverage DB.

Chaos is injected with exactly-once marker files (O_CREAT|O_EXCL): the
first worker to claim the kill marker dies with ``os._exit(137)``
mid-shard, the first to claim the hang marker sleeps for an hour and
must be killed by the supervisor.  Everything is therefore
deterministic: the bench either proves the contract or fails loudly.

``--smoke`` (CI) uses the 1-bank campaign; the default adds the 4-bank
campaign whose heavy ASM shards make the retry/reap windows realistic.

Usage::

    python benchmarks/bench_serve_chaos.py [--smoke] [--json PATH]
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cover.testgen import undirected_suite  # noqa: E402
from repro.fault.campaign import CampaignConfig, FaultCampaign  # noqa: E402
from repro.par.workers import la1_model_spec  # noqa: E402


class Killed(Exception):
    """Stands in for the coordinator process dying mid-run."""


def _signature(report) -> int:
    return hash(report.signature()) & 0xFFFFFFFF


def _run(config: CampaignConfig, jobs: int, on_verdict=None) -> tuple:
    start = time.perf_counter()
    report = FaultCampaign(config).run(jobs=jobs, on_verdict=on_verdict)
    return report, round(time.perf_counter() - start, 3)


def chaos_campaign(banks: int, traffic: int, rtl_cycles: int,
                   max_faults, jobs: int, workdir: str,
                   hang_deadline_s=15.0) -> dict:
    base = dict(banks=banks, traffic=traffic, rtl_cycles=rtl_cycles,
                max_faults=max_faults)
    print(f"campaign banks={banks}: baseline jobs=1 ...", flush=True)
    golden, golden_wall = _run(CampaignConfig(**base), jobs=1)
    want = _signature(golden)
    scenarios = {"baseline": {"wall_s": golden_wall, "signature": want,
                              "faults": len(golden.verdicts)}}

    # -- tier 1: a worker killed mid-shard is retried ------------------
    print(f"campaign banks={banks}: worker kill ...", flush=True)
    marker = os.path.join(workdir, f"kill.{banks}")
    report, wall = _run(CampaignConfig(
        **base, chaos_kill_marker=marker,
        journal_path=os.path.join(workdir, f"kill.{banks}.wal")), jobs)
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
        report, wall = _run(CampaignConfig(
            **base, chaos_hang_marker=marker,
            shard_deadline_s=hang_deadline_s, shard_attempts=3), jobs)
        par = report.engine_stats["par"]
        assert os.path.exists(marker), "chaos hang was never claimed"
        assert par["killed_workers"] >= 1, \
            "the hung worker was not reaped"
        assert _signature(report) == want, "worker hang changed verdicts"
        scenarios["worker_hang"] = {"wall_s": wall, "signature":
                                    _signature(report), "par": par}

    # -- tier 3: coordinator killed between callbacks, then resumed ----
    print(f"campaign banks={banks}: coordinator kill + restart ...",
          flush=True)
    journal = os.path.join(workdir, f"restart.{banks}.wal")

    def die_on_first(verdict):
        raise Killed(verdict.fault_id)

    start = time.perf_counter()
    try:
        FaultCampaign(CampaignConfig(
            **base, journal_path=journal)).run(
            jobs=jobs, on_verdict=die_on_first)
        raise AssertionError("the injected coordinator kill misfired")
    except Killed:
        pass
    report, __ = _run(CampaignConfig(**base, journal_path=journal), jobs)
    wall = round(time.perf_counter() - start, 3)
    par = report.engine_stats["par"]
    assert par["journal_hits"] >= 1, \
        "resume recomputed shards the journal already held"
    assert _signature(report) == want, "coordinator restart changed verdicts"
    scenarios["coordinator_restart"] = {
        "wall_s": wall, "signature": _signature(report),
        "journal_hits": par["journal_hits"], "par": par,
    }
    return scenarios


def testgen_parity(banks: int, jobs: int) -> dict:
    print(f"testgen banks={banks}: jobs=1 vs jobs={jobs} ...", flush=True)
    spec = la1_model_spec(banks)
    machine, predicates = spec.build()

    def run(n):
        start = time.perf_counter()
        result = undirected_suite(machine, predicates, num_tests=6,
                                  walk_steps=16, seed=11, jobs=n,
                                  model_spec=spec)
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
        if args.smoke:
            result["campaign banks=1"] = chaos_campaign(
                1, 8, 120, None, jobs=2, workdir=workdir)
            result["testgen banks=1"] = testgen_parity(1, jobs=2)
        else:
            result["campaign banks=1"] = chaos_campaign(
                1, 8, 120, None, jobs=2, workdir=workdir)
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
