"""CLI for the verification service: ``python -m repro.serve``.

Two modes:

* default -- bind the HTTP front-end and serve until interrupted::

      PYTHONPATH=src python -m repro.serve --root /tmp/la1-serve --port 8642

* ``--smoke`` -- the CI end-to-end check: start an ephemeral server,
  submit a 1-bank fault campaign (with an induced worker kill mid-run)
  and a coverage job over real HTTP, stream the campaign's verdict
  events, and assert both final reports are bit-identical to inline
  ``jobs=1`` goldens computed in-process.  Exercises the whole ladder:
  HTTP parsing, job adapters, supervised retry after a worker crash,
  the content-addressed store (a resubmission must be a cache hit) and
  event streaming.  The server runs in this process, so the kill is
  injected with :func:`strike_first_shard`, which the chaos bench and
  the tests use too.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import sys
import tempfile
import time
import urllib.error
import urllib.request
from typing import Callable


def _http(method: str, url: str, payload: dict | None = None) -> dict:
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=120) as response:
        return json.loads(response.read().decode())


def _wait_terminal(base: str, job_id: str, timeout_s: float = 180.0) -> dict:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        record = _http("GET", f"{base}/jobs/{job_id}")
        if record["status"] in ("done", "cached", "error", "interrupted"):
            return record
        time.sleep(0.1)
    raise SystemExit(f"smoke: job {job_id} did not finish in {timeout_s}s")


def _campaign_signature(report: dict) -> list:
    """Timing-independent identity of a campaign report dict."""
    return sorted(
        (v["fault_id"], v["outcome"], tuple(v["detected_by"]))
        for v in report["faults"]
    )


def _check(label: str, ok: bool) -> None:
    print(f"  [{'ok' if ok else 'FAIL'}] {label}")
    if not ok:
        raise SystemExit(f"smoke failed: {label}")


@contextlib.contextmanager
def strike_first_shard(marker: str, strike: Callable[[], None]):
    """Inject one worker failure into the campaigns run in this block.

    Wraps :func:`repro.par.workers.campaign_shard`, which a campaign
    looks up when it fans out, so the shard workers it forks inherit
    the wrapper.  The first worker to claim ``marker`` (an
    ``O_CREAT|O_EXCL`` file: exactly one claimant across workers and
    attempts) calls ``strike`` before its shard runs -- ``os._exit`` for
    a killed worker, a long sleep for a hung one -- so the retried
    attempt runs normally.  The coordinator process never strikes.
    """
    from ..par import workers

    shard, coordinator = workers.campaign_shard, os.getpid()

    def struck(*args):
        if os.getpid() != coordinator:
            try:
                os.close(os.open(marker,
                                 os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                pass
            else:
                strike()
        return shard(*args)

    workers.campaign_shard = struck
    try:
        yield
    finally:
        workers.campaign_shard = shard


def smoke() -> int:
    from ..cover.asm_cov import build_la1_testgen_model
    from ..fault.campaign import CampaignConfig, FaultCampaign
    from .server import serve_in_thread

    print("serve smoke: computing inline goldens (jobs=1, no chaos)")
    campaign_spec = {"banks": 1, "traffic": 10, "seed": 2004,
                     "rtl_cycles": 120}
    golden_campaign = FaultCampaign(CampaignConfig(
        banks=1, traffic=10, seed=2004, rtl_cycles=120)).run(jobs=1)

    from ..cover.testgen import undirected_suite
    cover_spec = {"banks": 1, "mode": "undirected", "seed": 7,
                  "max_tests": 4, "walk_steps": 12}
    machine, predicates = build_la1_testgen_model(1)
    golden_cover = undirected_suite(machine, predicates, num_tests=4,
                                    walk_steps=12, seed=7, jobs=1)

    with tempfile.TemporaryDirectory(prefix="la1-serve-smoke-") as root:
        server, stop = serve_in_thread(root, max_workers=2)
        base = f"http://127.0.0.1:{server.port}"
        try:
            health = _http("GET", f"{base}/healthz")
            _check("healthz responds", health.get("ok") is True)

            # campaign over HTTP, parallel, with one induced worker
            # kill: the first shard worker to claim the marker dies with
            # os._exit(137) and supervision must retry its shard
            kill_marker = os.path.join(root, "chaos.kill")
            with strike_first_shard(kill_marker, lambda: os._exit(137)):
                submitted = _http("POST", f"{base}/jobs", {
                    "kind": "campaign",
                    "spec": {**campaign_spec, "jobs": 2},
                })
                record = _wait_terminal(base, submitted["id"])
            _check("campaign finished clean",
                   record["status"] == "done")
            report = record["result"]
            _check("induced worker kill was claimed",
                   os.path.exists(kill_marker))
            _check("the killed shard was retried",
                   report["engine_stats"]["par"]["retries"] >= 1)
            _check("campaign verdicts match inline golden",
                   _campaign_signature(report)
                   == _campaign_signature(golden_campaign.to_dict()))
            _check("campaign counts match inline golden",
                   report["counts"] == golden_campaign.counts())

            # the event stream must carry one verdict per fault
            events = urllib.request.urlopen(
                f"{base}/jobs/{submitted['id']}/events",
                timeout=60).read().decode().splitlines()
            parsed = [json.loads(line) for line in events]
            _check("event stream terminates with done",
                   parsed[-1]["type"] == "done")
            _check("event stream carries every verdict",
                   sum(1 for e in parsed if e.get("type") == "verdict")
                   == len(report["faults"]))

            # resubmission of identical content must hit the store
            again = _http("POST", f"{base}/jobs", {
                "kind": "campaign", "spec": dict(campaign_spec)})
            _check("identical resubmission is a store hit",
                   again["status"] == "cached"
                   and again["key"] == submitted["key"])

            # coverage testgen over HTTP, parallel
            submitted = _http("POST", f"{base}/jobs", {
                "kind": "cover", "spec": {**cover_spec, "jobs": 2}})
            record = _wait_terminal(base, submitted["id"])
            _check("cover job finished clean", record["status"] == "done")
            _check("cover coverage matches inline golden",
                   record["result"]["history"] == golden_cover.history)
            _check("cover db matches inline golden",
                   record["result"]["db"] == golden_cover.db.to_dict())

            # malformed work is a 400, not a server death
            try:
                _http("POST", f"{base}/jobs", {"kind": "nope", "spec": {}})
                bad = False
            except urllib.error.HTTPError as exc:
                bad = exc.code == 400
            _check("unknown job kind is a 400", bad)
            _check("server survived it all",
                   _http("GET", f"{base}/healthz")["ok"] is True)
        finally:
            stop()
    print("serve smoke: all checks passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="fault-tolerant verification-as-a-service front-end",
    )
    parser.add_argument("--root", default=None,
                        help="state directory (store + journal + spool); "
                             "default: a temporary directory")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642)
    parser.add_argument("--max-workers", type=int, default=2,
                        help="concurrent jobs executed server-side")
    parser.add_argument("--smoke", action="store_true",
                        help="run the end-to-end CI smoke check and exit")
    args = parser.parse_args(argv)

    if args.smoke:
        return smoke()

    from .server import VerificationServer

    async def run() -> None:
        root = args.root or tempfile.mkdtemp(prefix="la1-serve-")
        server = VerificationServer(args.root or root, args.host,
                                    args.port,
                                    max_workers=args.max_workers)
        await server.start()
        print(f"repro.serve listening on http://{args.host}:{server.port} "
              f"(state: {root})")
        try:
            await asyncio.Event().wait()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("repro.serve: interrupted, shutting down")
    return 0


if __name__ == "__main__":
    sys.exit(main())
