"""The measurement loop of the end-to-end benchmark: one workload in
this process.

:func:`run_workload` measures set-up in fresh processes, then runs a
fixed number of the workload's tasks back to back (closed loop), then
runs its correctness oracles outside the timed region.  With a trace
directory it installs the :mod:`tracing` wrappers instead and reports
per-layer metrics.

Other tenants of a shared host slow everything in this process by
10-50% for 5-60 s at a time, and CPU time rises with wall time, so
measuring CPU time instead does not help.  Untraced runs therefore time
a fixed pure-Python loop before set-up and between tasks, and report
every timing scaled to the reference host speed: a timing measured
while the loop ran 20% slow counts 20% less.  The loop allocates
nothing, so the heap a task leaves behind does not change its speed.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from itertools import repeat
from typing import Optional

from tracing import NullTracer, Tracer, chrome_trace, layer_metrics, load_spool
from workloads import load, median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: fresh-process set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: seconds :func:`calibration_s` takes on the reference host, a quiet
#: 2-vCPU x86-64 VM running CPython 3.11
REFERENCE_CALIBRATION_S = 0.0081
#: longest a set-up probe may take before the run fails
SETUP_TIMEOUT_S = 120


def child_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` and
    this directory on the import path."""
    path = [SRC, HERE]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


#: a full-period walk over 0..255 (x -> 97x + 13 mod 256)
_WALK = tuple((97 * x + 13) % 256 for x in range(256))


def _calibration_loop() -> int:
    walk = _WALK
    x = mixed = 0
    # every value stays below 256, where CPython keeps one shared int
    # object each, so the loop allocates nothing
    for __ in repeat(None, 400_000):
        x = walk[x]
        mixed ^= x
    return mixed


def calibration_s() -> float:
    """The host's current speed: the best of three runs of a fixed
    loop."""
    best = float("inf")
    for __ in range(3):
        start = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """Factor taking a timing made between two calibrations to the
    reference host speed."""
    return 2 * REFERENCE_CALIBRATION_S / (before + after)


def setup_once(name: str, seed: int) -> None:
    """Body of a set-up probe: build the workload in this fresh process
    (its engine imports included) and print the scaled seconds."""
    before = calibration_s()
    start = time.perf_counter()
    workload = load(name).Workload(seed, NullTracer())
    elapsed = time.perf_counter() - start
    after = calibration_s()
    workload.close()
    print(elapsed * scale(before, after))


def measure_setup(name: str, seed: int) -> list[float]:
    """Cold set-up times of ``name``, one fresh interpreter each."""
    code = f"import harness; harness.setup_once({name!r}, {seed})"
    samples = []
    for __ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], cwd=HERE,
                              env=child_env(), capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe of {name} failed:\n"
                               f"{done.stderr}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


def peak_rss_mb() -> float:
    """Peak resident set of the largest process: this one, or a waited
    child or grandchild (probes, the server, its shard workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def task_count(name: str, seconds: float) -> int:
    """Tasks a run of about ``seconds`` makes, from the workload's
    nominal task time (at least one).  The count depends on nothing
    measured, so two commits run at the same ``seconds`` see the same
    seeds."""
    return max(1, round(seconds / load(name).TASK_S))


def run_workload(name: str, seed: int, seconds: float,
                 trace_dir: Optional[str] = None) -> dict:
    """Measure workload ``name``: :func:`task_count` tasks, task *i*
    with seed ``seed + i``.  Returns the result record :mod:`run`
    prints."""
    module = load(name)
    tasks = task_count(name, seconds)
    setup = [] if trace_dir else measure_setup(name, seed)
    tracer = NullTracer()
    if trace_dir:
        spool = os.path.join(trace_dir, f"spool-{name}-{os.getpid()}")
        shutil.rmtree(spool, ignore_errors=True)
        tracer = Tracer(spool)
        tracer.install()
    workload = None
    walls: list[float] = []
    scales: list[float] = []
    try:
        with tracer.span("bench.workload"):
            with tracer.span("bench.setup"):
                workload = module.Workload(seed, tracer)
            before = calibration_s() if not trace_dir else 0.0
            for index in range(tasks):
                workload.task_index = index
                with tracer.span("bench.task", iteration=index):
                    start = time.perf_counter()
                    workload.task(seed + index)
                    walls.append(time.perf_counter() - start)
                    if trace_dir:
                        tracer.harvest_sims()
                if not trace_dir:
                    after = calibration_s()
                    scales.append(scale(before, after))
                    before = after
    finally:
        if workload is not None:
            workload.close()
        if trace_dir:
            tracer.remove()
    oracles = workload.check()
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "tasks": len(walls),
        "task_mean_s": statistics.fmean(walls),
        "attempted": workload.attempted,
        "failed": workload.failed,
        "correct": all(ok for __, ok, __ in oracles),
        "oracles": [{"name": oracle, "ok": ok, "detail": detail}
                    for oracle, ok, detail in oracles],
        "notes": workload.notes,
    }
    if not trace_dir:
        latencies = workload.scaled("task", scales)
        result["samples"] = {"setup_s": setup, "task_s": latencies,
                             "task_raw_s": workload.raw("task"),
                             "scale": scales}
        result["metrics"] = {
            "setup_s": median(setup),
            "task_p50_s": median(latencies),
            "peak_rss_mb": peak_rss_mb(),
            "failed_ratio": workload.failed / max(workload.attempted, 1),
            **workload.metrics(scales),
        }
        return result
    spans, loose = load_spool(spool, tracer.spans, tracer.loose)
    shutil.rmtree(spool, ignore_errors=True)
    root = next(s for s in tracer.spans if s.name == "bench.workload")
    layers, by_layer = layer_metrics(spans, len(walls), root.start,
                                     root.end)
    path = os.path.join(trace_dir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(chrome_trace(spans, {"workload": name, "seed": seed,
                                       "tasks": len(walls),
                                       "counters_outside_spans": loose}), fh)
    result.update(layers=layers, self_by_layer=by_layer,
                  traced_wall_s=root.end - root.start, trace=path)
    return result
