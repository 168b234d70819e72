"""Deterministic shard planning and the accounting of a fan-out run.

:func:`plan_shards` turns a work list into at most ``jobs`` shards with
a stable greedy longest-processing-time packing: items are considered in
descending weight (ties broken by original position) and each goes to
the currently lightest shard (ties broken by shard index).  Equal inputs
always produce equal plans, and within a shard the original submission
order is preserved -- both facts the determinism tests rely on.

The shards run on :func:`repro.par.supervise.run_supervised`, which
reports through :class:`ParStats`, in workers started by fork alone
(:func:`_mp_context`).  Per-shard wall-clock is measured
*inside* the worker (:func:`_timed_call`), so the stats report honest
compute times: ``critical_path_s`` is the longest shard and
``speedup_estimate`` the speedup the plan would deliver given at least
``jobs`` free cores.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence

__all__ = ["ParStats", "plan_shards"]


def plan_shards(
    items: Sequence,
    jobs: int,
    weight: Optional[Callable[[object], float]] = None,
) -> list[list]:
    """Pack ``items`` into at most ``jobs`` shards, deterministically.

    With no ``weight`` every item counts 1 (round-robin-like balance);
    with one, the classic greedy LPT heuristic keeps the heaviest items
    spread across shards, which is what makes the 4-bank fault campaign
    scale (three ASM faults carry ~90% of its cost).  Empty shards are
    dropped.  ``jobs <= 1`` returns a single shard with the original
    order.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [items] if items else []
    n_shards = min(jobs, len(items))
    weights = [1.0 if weight is None else float(weight(it)) for it in items]
    order = sorted(range(len(items)), key=lambda i: (-weights[i], i))
    loads = [0.0] * n_shards
    assigned: list[list[int]] = [[] for __ in range(n_shards)]
    for i in order:
        target = min(range(n_shards), key=lambda s: (loads[s], s))
        loads[target] += weights[i]
        assigned[target].append(i)
    # preserve submission order within each shard
    return [
        [items[i] for i in sorted(shard)] for shard in assigned if shard
    ]


class ParStats:
    """Execution accounting of one
    :func:`~repro.par.supervise.run_supervised` call."""

    def __init__(self, jobs: int, shards: int):
        self.jobs = jobs
        self.shards = shards
        #: "inline" | "pool" | "pool+inline" (degraded mid-flight)
        self.mode = "inline"
        #: why the pool was abandoned, when it was
        self.fallback_reason: Optional[str] = None
        #: worker-measured wall-clock per shard (shard order)
        self.shard_wall_s: list[float] = []
        #: shard indices never collected before ``timeout_s`` expired
        self.timed_out: list[int] = []
        #: overall wall-clock of the run
        self.wall_s = 0.0
        #: shard attempts beyond the first
        self.retries = 0
        #: shard indices quarantined after exhausting their attempt
        #: budget (each has a ShardError result)
        self.quarantined: list[int] = []
        #: worker processes forcibly terminated (hung-shard reaping and
        #: overall-timeout cleanup)
        self.killed_workers = 0

    @property
    def critical_path_s(self) -> float:
        """The longest shard: the plan's lower bound on wall-clock."""
        return max(self.shard_wall_s, default=0.0)

    @property
    def total_shard_s(self) -> float:
        """Sum of per-shard compute (the sequential-equivalent cost)."""
        return sum(self.shard_wall_s)

    @property
    def speedup_estimate(self) -> float:
        """Speedup the shard plan supports given >= ``jobs`` free cores
        (sequential-equivalent over critical path; 1.0 when degenerate)."""
        critical = self.critical_path_s
        if critical <= 0.0:
            return 1.0
        return self.total_shard_s / critical

    def to_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "shards": self.shards,
            "mode": self.mode,
            "fallback_reason": self.fallback_reason,
            "shard_wall_s": [round(s, 4) for s in self.shard_wall_s],
            "timed_out": list(self.timed_out),
            "wall_s": round(self.wall_s, 4),
            "critical_path_s": round(self.critical_path_s, 4),
            "speedup_estimate": round(self.speedup_estimate, 3),
            "retries": self.retries,
            "quarantined": list(self.quarantined),
            "killed_workers": self.killed_workers,
        }

    def __repr__(self):
        return (
            f"ParStats(jobs={self.jobs}, shards={self.shards}, "
            f"mode={self.mode}, wall={self.wall_s:.2f}s)"
        )


def _timed_call(task, args) -> tuple[float, object]:
    """Worker-side wrapper: execute and measure one shard."""
    start = time.perf_counter()
    value = task(*args)
    return time.perf_counter() - start, value


def _mp_context():
    """The fork context: a forked worker inherits the coordinator's
    memos and objects, so neither the task nor its arguments are
    pickled.  On a platform that cannot fork this raises, and
    :func:`~repro.par.supervise.run_supervised` finishes the run inline
    (``mode="pool+inline"``)."""
    import multiprocessing  # only a pool needs it, not inline runs

    return multiprocessing.get_context("fork")
