"""Per-layer tracing for the end-to-end benchmark, installed from outside.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces the public entry points of each layer (``TARGETS``) with
wrappers, wherever a loaded ``repro`` module or class binds them, and
:meth:`Tracer.remove` puts every original back.  Two kinds of wrapper:

* **spans** record name, start, end, parent span and the benchmark
  iteration they belong to;
* **hot calls** (simulator steps, host cycles, SAT solves) are too
  frequent for one record each, so their self time and call count are
  aggregated onto the nearest enclosing span.

Spans stay in memory until the run ends.  Forked shard workers and the
traced server process write theirs to a spool directory
(:meth:`Tracer.flush`); :func:`load_spool` merges them back, re-parenting
each foreign root span under the benchmark span that encloses it in
time (``perf_counter`` is the system-wide monotonic clock on Linux, so
timestamps of different processes compare directly).

:func:`attribute` turns the merged spans into self times.  A span's
self time is its duration minus the part of it its children cover.
When spans of different processes run at once (two shard workers), the
wall time of that stretch is shared equally among them, so the self
times of all layers add up to the wall time of the root span.
"""

from __future__ import annotations

import glob
import importlib
import itertools
import json
import os
import sys
import threading
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

__all__ = [
    "LAYER_METRICS",
    "NullTracer",
    "Span",
    "Tracer",
    "attribute",
    "chrome_trace",
    "layer_metrics",
    "load_spool",
]

_ORIGINAL = "__e2e_original__"


class Span:
    """One recorded call of a layer entry point."""

    __slots__ = ("name", "sid", "parent", "start", "end", "pid", "tid",
                 "iteration", "hot", "counts")

    def __init__(self, name: str, sid: str, parent: Optional[str],
                 pid: int, tid: int, iteration: Optional[int]):
        self.name = name
        self.sid = sid
        self.parent = parent
        self.pid = pid
        self.tid = tid
        self.iteration = iteration
        self.start = self.end = 0.0
        #: hot-call name -> [self seconds, calls] made directly under it
        self.hot: dict = {}
        #: counters recorded while this was the innermost span
        self.counts: dict = {}

    def to_list(self) -> list:
        return [self.name, self.sid, self.parent, self.start, self.end,
                self.pid, self.tid, self.iteration, self.hot, self.counts]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        name, sid, parent, start, end, pid, tid, iteration, hot, counts = row
        span = cls(name, sid, parent, pid, tid, iteration)
        span.start, span.end, span.hot, span.counts = start, end, hot, counts
        return span


class _HotFrame:
    __slots__ = ("span", "child")

    def __init__(self, span: Optional[Span]):
        self.span = span
        self.child = 0.0


class NullTracer:
    """The untraced run: spans cost one context-manager call, counters
    nothing."""

    active = False

    @contextmanager
    def span(self, name: str, iteration: Optional[int] = None):
        yield

    def add(self, name: str, value: float) -> None:
        pass


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    active = True

    def __init__(self, spool: Optional[str] = None):
        #: where forked workers and the traced server write their spans
        self.spool = spool
        self.home_pid = self.pid = os.getpid()
        self.spans: list[Span] = []
        #: counters recorded outside every span (an instrumentation gap)
        self.loose: dict = {}
        self._loose_lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple] = []
        # simulators created since the last harvest (strong refs, so a
        # simulator that dies mid-task still reports its work) and the
        # survivors with the counter values already harvested
        self._new_sims: list = []
        self._known_sims = weakref.WeakKeyDictionary()

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @staticmethod
    def _enclosing_span(stack: list) -> Optional[Span]:
        if not stack:
            return None
        top = stack[-1]
        return top if isinstance(top, Span) else top.span

    def _open(self, name: str, iteration: Optional[int]) -> Span:
        stack = self._stack()
        parent = self._enclosing_span(stack)
        if iteration is None and parent is not None:
            iteration = parent.iteration
        span = Span(name, f"{self.pid}.{next(self._ids)}",
                    parent.sid if parent is not None else None,
                    self.pid, threading.get_ident(), iteration)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, iteration: Optional[int] = None):
        """Record a span around benchmark-side code."""
        span = self._open(name, iteration)
        try:
            yield span
        finally:
            self._close(span)

    def add(self, name: str, value: float) -> None:
        """Add to a counter of the innermost open span of this thread."""
        span = self._enclosing_span(self._stack())
        if span is None:
            with self._loose_lock:
                self.loose[name] = self.loose.get(name, 0) + value
            return
        _merge_count(span.counts, name, value)

    # -- wrappers ------------------------------------------------------
    def span_wrapper(self, fn: Callable, name: str,
                     observe: Optional[Callable] = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name, None)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(tracer, args, kwargs, result)
                return result
            finally:
                tracer._close(span)

        return wrapper

    def hot_wrapper(self, fn: Callable, name: str,
                    before: Optional[Callable] = None,
                    after: Optional[Callable] = None) -> Callable:
        tracer = self
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = _HotFrame(tracer._enclosing_span(stack))
            token = before(args) if before is not None else None
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack and not isinstance(stack[-1], Span):
                    stack[-1].child += elapsed
                owner = frame.span
                if owner is not None:
                    record = owner.hot.get(name)
                    if record is None:
                        record = owner.hot[name] = [0.0, 0]
                    record[0] += elapsed - frame.child
                    record[1] += 1
                if after is not None:
                    after(tracer, args, token)

        return wrapper

    def call_wrapper(self, fn: Callable, after: Callable) -> Callable:
        """Untimed: run ``after`` on every call (instance registries,
        counters read from arguments)."""
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point in :data:`TARGETS`."""
        for module_name, qualname, make in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, __, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            wrapper = make(self, original)
            setattr(wrapper, _ORIGINAL, original)
            if isinstance(owner, type):
                self._bind(owner, attr, wrapper, original)
                continue
            # a module-level function: rebind it in every loaded repro
            # or workload module that imported it by name
            for loaded in list(sys.modules.values()):
                if not _is_traced_module(loaded):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._bind(loaded, key, wrapper, original)

    def _bind(self, owner, attr: str, wrapper, original) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def remove(self) -> None:
        """Restore every original, including bindings that modules
        imported after :meth:`install` picked up."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        for loaded in list(sys.modules.values()):
            if not _is_traced_module(loaded):
                continue
            for key, value in list(vars(loaded).items()):
                if hasattr(value, _ORIGINAL):
                    setattr(loaded, key, getattr(value, _ORIGINAL))

    # -- simulator work counters ---------------------------------------
    def register_sim(self, sim) -> None:
        self._new_sims.append(sim)

    def harvest_sims(self) -> None:
        """Add the lane-word work every simulator did since the last
        harvest to the innermost open span (``RtlSimulator.stats`` is
        cumulative across resets)."""
        for sim in self._new_sims:
            self._known_sims[sim] = (0, 0)
        self._new_sims.clear()
        for sim, (words, passes) in list(self._known_sims.items()):
            stats = sim.stats()
            self.add("rtl.words_evaluated", stats["words_evaluated"] - words)
            self.add("rtl.lane_passes", stats["lane_passes"] - passes)
            self._known_sims[sim] = (stats["words_evaluated"],
                                     stats["lane_passes"])

    # -- processes -----------------------------------------------------
    def enter_process(self) -> None:
        """Drop state inherited across ``fork``: the child reports only
        what it records itself (inherited stack frames stay, so its
        spans keep their parent in the forking process)."""
        if os.getpid() == self.pid:
            return
        self.pid = os.getpid()
        self.spans = []
        self.loose = {}
        # another thread may have held the lock when the process forked
        self._loose_lock = threading.Lock()
        self._new_sims = []
        self._known_sims = weakref.WeakKeyDictionary()

    def flush(self, tag: str) -> None:
        """Write this process's spans to the spool and forget them."""
        if not self.spool:
            return
        # take the lists first: a span another thread closes from here
        # on lands in the fresh list and goes out with the next flush
        spans, self.spans = self.spans, []
        with self._loose_lock:
            loose, self.loose = self.loose, {}
        os.makedirs(self.spool, exist_ok=True)
        path = os.path.join(self.spool, f"{tag}-{self.pid}-"
                                        f"{next(self._ids)}.json")
        with open(path, "w") as fh:
            json.dump({"spans": [s.to_list() for s in spans],
                       "loose": loose}, fh)


def _is_traced_module(module) -> bool:
    name = getattr(module, "__name__", "")
    return name.split(".", 1)[0] in ("repro", "workloads")


#: counters that keep their largest value instead of a sum
_PEAK_COUNTERS = {"bdd.peak_nodes"}


def _merge_count(counts: dict, name: str, value: float) -> None:
    if name in _PEAK_COUNTERS:
        counts[name] = max(counts.get(name, 0), value)
    else:
        counts[name] = counts.get(name, 0) + value


# ----------------------------------------------------------------------
# the entry points, per layer
# ----------------------------------------------------------------------
def _span(name, observe=None):
    return lambda tracer, fn: tracer.span_wrapper(fn, name, observe)


def _hot(name, before=None, after=None):
    return lambda tracer, fn: tracer.hot_wrapper(fn, name, before, after)


def _call(after):
    return lambda tracer, fn: tracer.call_wrapper(fn, after)


def _asm_states(tracer, args, kwargs, result):
    tracer.add("asm.states", result.num_nodes)


def _sysc_time_units(tracer, args, kwargs, result):
    duration = args[1] if len(args) > 1 else kwargs.get("duration")
    tracer.add("sysc.time_units", duration or 0)


def _bdd_result(tracer, args, kwargs, result):
    stats = result.bdd_stats or {}
    tracer.add("bdd.peak_nodes", result.peak_nodes)
    tracer.add("bdd.cache_hits", stats.get("cache_hits", 0))
    tracer.add("bdd.cache_lookups", stats.get("cache_hits", 0)
               + stats.get("cache_misses", 0))


def _sat_result(tracer, args, kwargs, result):
    tracer.add("sat.clauses", (result.bdd_stats or {}).get("clauses", 0))


def _solver_before(args):
    stats = args[0].stats
    return stats["conflicts"], stats["propagations"]


def _solver_after(tracer, args, token):
    stats = args[0].stats
    tracer.add("sat.conflicts", stats["conflicts"] - token[0])
    tracer.add("sat.propagations", stats["propagations"] - token[1])


def _ppsfp_faults(tracer, args, kwargs, result):
    faults = args[1] if len(args) > 1 else kwargs["faults"]
    tracer.add("fault.lane_compatible", len(faults))


def _occupancy(tracer, args, kwargs, result):
    sim, occupied = args[0], args[1]
    budget = sim.lanes or 1
    tracer.add("rtl.occupied_lanes", max(0, min(occupied, budget)))
    tracer.add("rtl.lane_budget", budget)


def _per_fault(tracer, args, kwargs, result):
    # a per-fault run inside a PPSFP sweep is a lane the ladder rejected
    stack = tracer._stack()
    if len(stack) > 1 and getattr(stack[-2], "name", "") == "fault.ppsfp":
        tracer.add("fault.lane_fallbacks", 1)


def _campaign_result(tracer, args, kwargs, result):
    tracer.add("fault.error_verdicts",
               sum(v.outcome == "error" for v in result.verdicts))


def _shard(tracer, fn):
    def run_and_harvest(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.harvest_sims()

    wrapped = tracer.span_wrapper(run_and_harvest, "par.shard")

    def shard(*args, **kwargs):
        tracer.enter_process()
        try:
            return wrapped(*args, **kwargs)
        finally:
            if os.getpid() != tracer.home_pid:
                tracer.flush("worker")

    return shard


#: (module, attribute, wrapper factory); module-level functions are
#: rebound wherever a repro module imported them, methods on the class
TARGETS = [
    ("repro.core.flow", "run_flow", _span("flow.run")),
    ("repro.asm.checker", "AsmModelChecker.check_combined",
     _span("asm.check", _asm_states)),
    ("repro.core.conformance", "check_la1_conformance",
     _span("asm.conformance")),
    ("repro.sysc.kernel", "Simulator.run", _span("sysc.run", _sysc_time_units)),
    ("repro.rtl.compile", "compile_design", _span("rtl.compile")),
    ("repro.rtl.bitsim", "compile_bitpar", _span("rtl.bitpar_compile")),
    ("repro.rtl.simulator", "RtlSimulator.__init__",
     _call(lambda tracer, args, kwargs, result: tracer.register_sim(args[0]))),
    ("repro.rtl.simulator", "RtlSimulator.step", _hot("rtl.step")),
    ("repro.rtl.simulator", "RtlSimulator.reset", _hot("rtl.reset")),
    ("repro.rtl.simulator", "RtlSimulator.note_pass_occupancy",
     _call(_occupancy)),
    ("repro.core.rtl_testbench", "RtlHost.cycle", _hot("rtl.host_cycle")),
    ("repro.lint", "lint_la1", _span("lint.run")),
    ("repro.core.rulebase", "check_read_mode_rtl",
     _span("mc.bdd_check", _bdd_result)),
    ("repro.sat.bmc", "check_read_mode_sat", _span("mc.sat_check", _sat_result)),
    ("repro.sat.solver", "Solver.__init__",
     _call(lambda tracer, args, kwargs, result: tracer.add("sat.solvers", 1))),
    ("repro.sat.solver", "Solver.solve",
     _hot("sat.solve", _solver_before, _solver_after)),
    ("repro.sat.drat", "check_proof", _span("sat.proof_check")),
    ("repro.sat.drat", "check_unsat", _span("sat.proof_check")),
    ("repro.fault.campaign", "FaultCampaign.run",
     _span("fault.campaign", _campaign_result)),
    ("repro.fault.ppsfp", "run_ppsfp_batches",
     _span("fault.ppsfp", _ppsfp_faults)),
    ("repro.fault.campaign", "FaultCampaign.execute_fault",
     _span("fault.per_fault", _per_fault)),
    ("repro.par.workers", "campaign_shard", _shard),
    ("repro.serve.jobs", "CampaignJob.run", _span("serve.job_run")),
    ("repro.serve.store", "ResultStore.put", _span("serve.store_put")),
    ("repro.serve.store", "ResultStore.get", _span("serve.store_get")),
    ("repro.serve.journal", "Journal.append", _span("serve.journal_append")),
]


# ----------------------------------------------------------------------
# merging, self time and the per-layer summary
# ----------------------------------------------------------------------
def load_spool(spool: str, spans: list[Span],
               loose: dict) -> tuple[list[Span], dict]:
    """``spans`` and ``loose`` counters plus those other processes wrote
    to ``spool``.

    A span whose parent was not recorded -- a root span of the server
    process -- is re-parented under the innermost benchmark-process
    span that contains it in time; iterations then propagate down the
    parent links, so every span of one task carries its id."""
    home = {s.sid for s in spans}
    merged = list(spans)
    loose = dict(loose)
    for path in sorted(glob.glob(os.path.join(spool, "*.json"))):
        with open(path) as fh:
            data = json.load(fh)
        merged.extend(Span.from_list(row) for row in data["spans"])
        for name, value in data["loose"].items():
            _merge_count(loose, name, value)
    by_sid = {s.sid: s for s in merged}
    local = sorted((s for s in merged if s.sid in home),
                   key=lambda s: s.start)
    for span in merged:
        if span.sid in home or span.parent in by_sid:
            continue
        enclosing = [s for s in local
                     if s.start <= span.start and span.end <= s.end]
        span.parent = enclosing[-1].sid if enclosing else None
    for span in merged:
        chain = []
        node = span
        while node is not None and node.iteration is None:
            chain.append(node)
            node = by_sid.get(node.parent)
        for item in chain:
            item.iteration = node.iteration if node is not None else None
    return merged, loose


def attribute(spans: list[Span], lo: float, hi: float) -> dict:
    """Self seconds of each span within ``[lo, hi]``, as ``{sid: {name:
    seconds}}`` under the span's own name and the names of the hot
    calls made directly under it.

    At each instant the wall time goes to the active spans that have no
    active child, shared equally when there are several (spans of
    concurrent processes).  A span's share, less the hot calls it made,
    is its self time; its hot calls get the same share of their own
    time.  The result sums to ``hi - lo`` when a span covers the whole
    interval."""
    by_sid = {}
    for span in spans:
        if min(span.end, hi) > max(span.start, lo):
            by_sid[span.sid] = span

    def depth(span: Span) -> int:
        level = 0
        while span.parent in by_sid:
            span = by_sid[span.parent]
            level += 1
        return level

    events = []
    for span in by_sid.values():
        d = depth(span)
        # at equal times: ends before starts, parents open first and
        # close last
        events.append((max(span.start, lo), 1, d, span.sid))
        events.append((min(span.end, hi), 0, -d, span.sid))
    events.sort()
    own: dict = defaultdict(float)
    shared: dict = defaultdict(float)
    active: set = set()
    children: dict = defaultdict(int)
    leaves: set = set()
    previous = lo
    for when, is_start, __, sid in events:
        if leaves and when > previous:
            step = when - previous
            share = step / len(leaves)
            for leaf in leaves:
                own[leaf] += step
                shared[leaf] += share
        previous = when
        parent = by_sid[sid].parent
        if parent not in active:
            parent = None
        if is_start:
            active.add(sid)
            leaves.add(sid)
            if parent is not None:
                children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent is not None:
                children[parent] -= 1
                if children[parent] == 0:
                    leaves.add(parent)
    out = {}
    for sid, span in by_sid.items():
        scale = shared[sid] / own[sid] if own[sid] > 0 else 0.0
        hot = sum(record[0] for record in span.hot.values())
        seconds = {span.name: max(own[sid] - hot, 0.0) * scale}
        for name, record in span.hot.items():
            seconds[name] = seconds.get(name, 0.0) + record[0] * scale
        out[sid] = seconds
    return out


#: the per-layer metrics of a traced run, per task unless a ratio or a
#: high-water mark: name -> (unit, better).  ``X_s`` is the self time
#: of span or hot call ``X``
LAYER_METRICS = {
    "bench.self_s": ("s/task", "lower"),
    "flow.run_s": ("s/task", "lower"),
    "asm.check_s": ("s/task", "lower"),
    "asm.states": ("count/task", "lower"),
    "asm.conformance_s": ("s/task", "lower"),
    "sysc.run_s": ("s/task", "lower"),
    "sysc.time_units": ("count/task", "higher"),
    "rtl.compile_s": ("s/task", "lower"),
    "rtl.bitpar_compile_s": ("s/task", "lower"),
    "rtl.bitpar_compiles": ("count/task", "lower"),
    "rtl.step_s": ("s/task", "lower"),
    "rtl.host_cycle_s": ("s/task", "lower"),
    "rtl.reset_s": ("s/task", "lower"),
    "rtl.edges": ("count/task", "lower"),
    "rtl.resets": ("count/task", "lower"),
    "rtl.words_evaluated": ("count/task", "lower"),
    "rtl.lane_passes": ("count/task", "lower"),
    "rtl.lane_utilization": ("ratio", "higher"),
    "lint.run_s": ("s/task", "lower"),
    "mc.bdd_check_s": ("s/task", "lower"),
    "mc.sat_check_s": ("s/task", "lower"),
    "bdd.peak_nodes": ("count", "lower"),
    "bdd.cache_hit_ratio": ("ratio", "higher"),
    "sat.solve_s": ("s/task", "lower"),
    "sat.proof_check_s": ("s/task", "lower"),
    "sat.solvers": ("count/task", "lower"),
    "sat.conflicts": ("count/task", "lower"),
    "sat.propagations": ("count/task", "lower"),
    "sat.clauses": ("count/task", "lower"),
    "fault.campaign_s": ("s/task", "lower"),
    "fault.ppsfp_s": ("s/task", "lower"),
    "fault.per_fault_s": ("s/task", "lower"),
    "fault.per_fault_calls": ("count/task", "lower"),
    "fault.lane_resolved_ratio": ("ratio", "higher"),
    "fault.error_verdicts": ("count/task", "lower"),
    "par.shard_s": ("s/task", "lower"),
    "par.critical_path_s": ("s/task", "lower"),
    "par.overhead_s": ("s/task", "lower"),
    "par.retries": ("count/task", "lower"),
    "par.quarantined": ("count/task", "lower"),
    "serve.post_s": ("s/task", "lower"),
    "serve.request_s": ("s/task", "lower"),
    "serve.job_run_s": ("s/task", "lower"),
    "serve.stream_lag_s": ("s/task", "lower"),
    "serve.store_put_s": ("s/task", "lower"),
    "serve.store_get_s": ("s/task", "lower"),
    "serve.journal_append_s": ("s/task", "lower"),
}

#: count metrics read off span and hot-call counts
_CALL_COUNTS = {
    "rtl.bitpar_compiles": "rtl.bitpar_compile",
    "rtl.edges": "rtl.step",
    "rtl.resets": "rtl.reset",
    "fault.per_fault_calls": "fault.per_fault",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[Span], tasks: int, lo: float,
                  hi: float) -> tuple[dict, dict]:
    """``(metrics, self_by_layer)``: every :data:`LAYER_METRICS` value
    over the spans of the ``tasks`` iterations, and the self seconds of
    each layer (the name before the first dot) over ``[lo, hi]``, which
    add up to the traced wall time."""
    self_s = attribute(spans, lo, hi)
    by_layer: dict = defaultdict(float)
    seconds: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    counts: dict = {}
    lag = 0.0
    by_sid = {s.sid: s for s in spans}
    for span in spans:
        for name, value in self_s.get(span.sid, {}).items():
            by_layer[name.split(".", 1)[0]] += value
            if span.iteration is not None:
                seconds[name] += value
        if span.iteration is None:
            continue
        calls[span.name] += 1
        for name, record in span.hot.items():
            calls[name] += record[1]
        for name, value in span.counts.items():
            _merge_count(counts, name, value)
        if span.name == "serve.job_run" and span.parent in by_sid:
            # the client reads the done line this long after the job
            lag += by_sid[span.parent].end - span.end
    tasks = max(tasks, 1)
    metrics = {}
    for name in LAYER_METRICS:
        if name in _CALL_COUNTS:
            metrics[name] = calls[_CALL_COUNTS[name]] / tasks
        elif name.endswith("_s") and name[:-2] in seconds:
            metrics[name] = seconds[name[:-2]] / tasks
        else:
            metrics[name] = counts.get(name, 0) / tasks
    metrics.update({
        "bench.self_s": sum(v for k, v in seconds.items()
                            if k.startswith("bench.")) / tasks,
        "bdd.peak_nodes": counts.get("bdd.peak_nodes", 0),
        "bdd.cache_hit_ratio": _ratio(counts.get("bdd.cache_hits", 0),
                                      counts.get("bdd.cache_lookups", 0)),
        "rtl.lane_utilization": _ratio(counts.get("rtl.occupied_lanes", 0),
                                       counts.get("rtl.lane_budget", 0)),
        "fault.lane_resolved_ratio": _ratio(
            counts.get("fault.lane_compatible", 0)
            - counts.get("fault.lane_fallbacks", 0),
            counts.get("fault.lane_compatible", 0)),
        "serve.stream_lag_s": lag / tasks,
    })
    return metrics, dict(by_layer)


def chrome_trace(spans: list[Span], meta: dict) -> dict:
    """The spans as a Chrome trace-event document (``chrome://tracing``,
    Perfetto): one complete event per span, hot calls in its args."""
    origin = min((s.start for s in spans), default=0.0)
    events = [
        {
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round((span.end - span.start) * 1e6, 3),
            "pid": span.pid,
            "tid": span.tid,
            "args": {
                "iteration": span.iteration,
                "hot": {name: {"self_ms": round(r[0] * 1e3, 3),
                               "calls": r[1]}
                        for name, r in sorted(span.hot.items())},
            },
        }
        for span in sorted(spans, key=lambda s: s.start)
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": meta}
