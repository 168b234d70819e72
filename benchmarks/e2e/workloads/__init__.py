"""The five workloads of the end-to-end benchmark.

Each module defines ``TASK_S``, the seconds one task takes on the
reference host, from which the harness sizes a run (``--seconds 15``
makes 8 ``flow`` rounds, 7 ``table3`` plans, 4 campaigns, 42 ``serve``
jobs and 4 ``prove`` iterations), and a ``Workload`` class.
Constructing it is the
workload's set-up (imports of the engines happen when the module is
loaded, so a fresh process pays them there too); :meth:`Workload.task`
runs one timed iteration and records the latency of the operation a
user waits for as timing ``"task"``; :meth:`Workload.check` runs the
correctness oracles
after the timed loop; :meth:`Workload.metrics` returns the
workload-specific end-to-end metrics from the timings the tasks
recorded, scaled to the reference host speed.
"""

from __future__ import annotations

import importlib
import os
import statistics
from collections import defaultdict

NAMES = ("flow", "table3", "campaign", "serve", "prove")

#: scratch space inside the benchmark directory (server state, traces)
OUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "out")


def load(name: str):
    """The workload module ``name``."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    return importlib.import_module(f"workloads.{name}")


def median(samples) -> float:
    return statistics.median(samples) if samples else 0.0


def percentiles(samples) -> dict:
    """The median, plus each of p75/p90/p99 that has at least ten
    samples beyond it (fewer make a tail percentile noise)."""
    out = {"p50": median(samples)}
    for q in (75, 90, 99):
        if len(samples) * (100 - q) >= 10 * 100:
            out[f"p{q}"] = statistics.quantiles(samples, n=100)[q - 1]
    return out


class Workload:
    """Base class: counts operations and the failed ones."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        #: findings worth printing that are not failures
        self.notes: list[str] = []
        #: the task being run (set by the harness)
        self.task_index = 0
        #: timing name -> [(task index, seconds, unscaled seconds)]
        self.timings: dict = defaultdict(list)

    def record(self, name: str, seconds: float,
               unscaled: float = 0.0) -> None:
        """Note a timing of the current task; ``unscaled`` of its
        seconds are a deliberate wait that host speed does not change."""
        self.timings[name].append((self.task_index, seconds, unscaled))

    def raw(self, name: str) -> list[float]:
        return [seconds for __, seconds, __ in self.timings[name]]

    def scaled(self, name: str, scales: list[float]) -> list[float]:
        """The ``name`` timings, each times its task's host-speed scale
        (all but the deliberate wait)."""
        return [(seconds - wait) * scales[task] + wait
                for task, seconds, wait in self.timings[name]]

    def task(self, seed: int) -> None:
        raise NotImplementedError

    def check(self) -> list[tuple[str, bool, str]]:
        """``(oracle, ok, detail)`` per correctness oracle."""
        return []

    def metrics(self, scales: list[float]) -> dict:
        return {}

    def close(self) -> None:
        pass
