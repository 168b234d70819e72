"""``serve``: short fault-campaign jobs through the HTTP service.

Set-up starts ``python -m repro.serve --root DIR --port 0`` as a
subprocess and waits for ``/healthz``.  One client submits in sequence
(closed loop): each task is a fresh 1-bank campaign ``{"banks": 1,
"traffic": 24, "seed": s, "lanes": 64, "jobs": 2}``, and every second
task also resubmits an earlier spec picked by a seeded RNG, which the
store answers.  Each submission is timed from its POST to the ``done``
line of its NDJSON event stream.  The server checks a job's state for
its stream every 50 ms, so the client opens the stream a seeded 0-50 ms
after the POST: the poll phase then varies from job to job, and the
median latency moves smoothly with job time instead of jumping by a
whole poll period.  Sessions are short, so forking shard
workers, IPC, journal fsyncs, the per-worker bitpar compile and the
server's 50 ms event polling dominate; the resubmissions exercise the
store's read path beside its write path.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

import repro
from repro.fault.campaign import CampaignConfig, FaultCampaign

from . import OUT
from . import Workload as Base
from . import median, percentiles

TASK_S = 0.36
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
SERVE_HOST = os.path.join(os.path.dirname(OUT), "serve_host.py")
#: every ORACLE_EVERY-th fresh job is re-run inline as the oracle
ORACLE_EVERY = 5
#: the server's event-stream polling period
POLL_S = 0.05
HTTP_TIMEOUT_S = 120


def _spec(seed: int) -> dict:
    return {"banks": 1, "traffic": 24, "seed": seed, "lanes": 64, "jobs": 2}


def _signature(report: dict) -> list:
    """Timing-independent identity of a campaign report."""
    return sorted((v["fault_id"], v["outcome"], tuple(v["detected_by"]))
                  for v in report["faults"])


def _request(method: str, url: str, payload=None) -> tuple[int, bytes]:
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=HTTP_TIMEOUT_S) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


class Workload(Base):
    def __init__(self, seed: int, tracer):
        super().__init__(tracer)
        os.makedirs(OUT, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="serve-", dir=OUT)
        args = ["--root", self.root, "--port", "0"]
        if tracer.active:
            command = [sys.executable, SERVE_HOST, tracer.spool, "--", *args]
        else:
            command = [sys.executable, "-m", "repro.serve", *args]
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=os.pathsep.join(
                       p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     text=True, env=env)
        banner = self.proc.stdout.readline()
        match = re.search(r"http://([\w.]+):(\d+)", banner)
        if match is None:
            self.close()
            raise RuntimeError(f"repro.serve did not start: {banner!r}")
        self.base = f"http://{match.group(1)}:{match.group(2)}"
        status, body = _request("GET", f"{self.base}/healthz")
        if status != 200 or not json.loads(body).get("ok"):
            self.close()
            raise RuntimeError(f"repro.serve is not healthy: {body!r}")
        self.rng = random.Random(seed)
        self.specs: list[dict] = []
        self.oracle_jobs: list[tuple[dict, list]] = []
        self.problems: list[str] = []
        #: (error verdicts, verdicts) over the fresh jobs' results
        self.verdicts = [0, 0]

    def _submit(self, spec: dict, expect: str,
                delay: float = 0.0) -> tuple[float, str]:
        """POST one campaign, wait ``delay``, and read its event stream
        to the end; returns (latency, job id)."""
        self.attempted += 1
        # one span from POST to the done line, so the server's spans of
        # the job fall inside it
        with self.tracer.span("serve.request"):
            start = time.perf_counter()
            with self.tracer.span("serve.post"):
                status, body = _request("POST", f"{self.base}/jobs",
                                        {"kind": "campaign", "spec": spec})
            if status != 200:
                self.failed += 1
                self.problems.append(
                    f"POST answered {status}: {body[:200]!r}")
                return time.perf_counter() - start, ""
            job_id = json.loads(body)["id"]
            time.sleep(delay)
            status, body = _request("GET",
                                    f"{self.base}/jobs/{job_id}/events")
            latency = time.perf_counter() - start
        done = json.loads(body.splitlines()[-1]) if body else {}
        if status != 200 or done.get("type") != "done" \
                or done.get("status") != expect:
            self.failed += 1
            self.problems.append(
                f"job {job_id} ({spec['seed']}): {status} {done}")
        return latency, job_id

    def task(self, seed: int) -> None:
        spec = _spec(seed)
        delay = self.rng.uniform(0.0, POLL_S)
        latency, job_id = self._submit(spec, "done", delay)
        self.record("task", latency, unscaled=delay)
        self.specs.append(spec)
        if job_id:
            status, body = _request("GET", f"{self.base}/jobs/{job_id}")
            result = json.loads(body).get("result") or {}
            outcomes = [v["outcome"] for v in result.get("faults", ())]
            self.verdicts[0] += outcomes.count("error")
            self.verdicts[1] += len(outcomes)
            par = result.get("engine_stats", {}).get("par", {})
            self.tracer.add("par.critical_path_s",
                            par.get("critical_path_s", 0.0))
            self.tracer.add("par.overhead_s", par.get("wall_s", 0.0)
                            - par.get("critical_path_s", 0.0))
            self.tracer.add("par.retries", par.get("retries", 0))
            self.tracer.add("par.quarantined",
                            len(par.get("quarantined", ())))
            if self.task_index % ORACLE_EVERY == 0 and result:
                self.oracle_jobs.append((spec, _signature(result)))
        if self.task_index % 2 == 1:
            again = self.rng.choice(self.specs[:-1])
            self.record("hit", self._submit(again, "cached")[0])

    def close(self) -> None:
        proc, self.proc = getattr(self, "proc", None), None
        if proc is not None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        shutil.rmtree(self.root, ignore_errors=True)

    def check(self):
        mismatches = []
        for spec, signature in self.oracle_jobs:
            inline = FaultCampaign(CampaignConfig(
                banks=spec["banks"], traffic=spec["traffic"],
                seed=spec["seed"])).run(jobs=1, lanes=1)
            if _signature(inline.to_dict()) != signature:
                mismatches.append(f"seed {spec['seed']}")
        self.failed += len(mismatches)
        return [
            ("every submission answers 2xx and ends done or cached",
             not self.problems, "; ".join(self.problems[:3])),
            (f"every {ORACLE_EVERY}th fresh job matches an inline "
             f"jobs=1, lanes=1 run", not mismatches, ", ".join(mismatches)),
        ]

    def metrics(self, scales) -> dict:
        fresh = percentiles(self.scaled("task", scales))
        errors, verdicts = self.verdicts
        metrics = {"serve_job_p50_s": fresh["p50"],
                   "serve_hit_p50_s": median(self.scaled("hit", scales)),
                   "error_verdict_ratio": errors / max(verdicts, 1)}
        if "p75" in fresh:
            metrics["serve_job_p75_s"] = fresh["p75"]
        return metrics
