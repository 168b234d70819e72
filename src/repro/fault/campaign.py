"""The fault-injection campaign runner.

A campaign sweeps a fault list across Table-3-shaped random host
workloads and records, per fault, *which monitor caught it* -- or that
nothing did.  The per-fault verdicts use the standard fault-injection
taxonomy:

========== ==========================================================
detected   some assertion monitor fired; ``detected_by`` names them
           (an RTL run in which two tristate drivers enabled one bus
           ends there, detected by ``bus_conflict`` alone)
silent     the fault corrupted observable behaviour (transaction log
           differs from the golden run / a property is violated) but
           no monitor fired -- an assertion-coverage gap
masked     the fault was injected but never perturbed observable
           behaviour under this workload
truncated  the campaign's wall-clock deadline came before the fault's
           verdict was collected, or an ASM exploration hit its state or
           transition bounds before the verdict
error      the engine itself raised; campaigns contain the exception
           and keep sweeping (the diagnostic lands in ``detail``)
========== ==========================================================

Robustness contract: a campaign never crashes (per-fault exception
containment), decides each fault within work budgets that read no clock
(``rtl_cycles``, the ASM exploration bounds), honours a whole-campaign
wall-clock deadline -- between batches inline, by reaping the workers
under ``jobs > 1`` -- with structured ``truncated`` verdicts, and
checkpoints every decided verdict (``detected``, ``silent``,
``masked``) to a JSON state file -- written atomically (temp file +
``os.replace`` + fsync) after every collected batch or shard -- so a
killed campaign resumes at any ``jobs``, skipping completed faults and
re-running every fault no engine decided, to the same final report
(:meth:`CampaignReport.signature`).  The checkpoint is the campaign's
one resume record.  Under ``jobs > 1`` the sweep runs on the supervised
pool (:func:`repro.par.run_supervised`): crashed or hung workers are
reaped and their shards retried with backoff, and a
deterministically-failing shard is quarantined into structured
``error`` verdicts after its ``shard_attempts`` budget instead of
aborting the run.
"""

from __future__ import annotations

import functools
import json
import os
import time
import traceback
import warnings
from contextlib import suppress
from typing import Callable, List, Optional

from ..asm import AsmModelChecker, ExplorationConfig
from ..core.asm_model import La1AsmConfig
from ..core.monitors import attach_read_mode_monitors
from ..core.properties import asm_labeling, device_property_suite
from ..core.rtl_model import la1_netlist
from ..core.rtl_testbench import RtlHost
from ..core.spec import La1Config, la1_config
from ..core.sysc_model import build_la1_system
from ..psl.monitor import Verdict
from ..rtl import BusConflict, RtlSimulator, design_kernel
from .asm_perturb import build_perturbed_la1_asm
from .models import (
    PROTOCOL_KINDS,
    AsmPerturbation,
    Fault,
    ProtocolMutation,
    RtlBitFlip,
    RtlStuckAt,
    StimulusMutation,
)
from .rtl_inject import RtlFaultInjector, collapse_faults
from .stim_inject import queue_mutated_traffic, reduce_log_signature
from .sysc_inject import ProtocolSaboteur

__all__ = [
    "CampaignConfig",
    "FaultVerdict",
    "CampaignReport",
    "FaultCampaign",
    "default_fault_list",
    "golden_logs",
    "judge",
    "log_signature",
    "merge_pattern_verdicts",
]

OUTCOMES = ("detected", "silent", "masked", "truncated", "error")

#: the outcomes an engine decided, the only ones a checkpoint keeps: a
#: ``truncated`` or ``error`` stub is re-run on resume
_DECIDED = ("detected", "silent", "masked")

#: the faults the RTL engines run: the ones the pattern axis sweeps and
#: the only ones a PPSFP lane can carry
_RTL_LEVEL = (RtlStuckAt, RtlBitFlip, StimulusMutation)

#: the detail of every fault a campaign deadline cut off
_DEADLINE = "campaign wall-clock deadline expired"

#: the ``silent`` detail of each golden-diffing workload: which log
#: diverged, and which monitors stayed quiet
SYSC_SILENT = ("transaction log diverged from golden run with no "
               "assertion firing")
RTL_SILENT = ("transaction log diverged from golden run with no OVL "
              "checker firing")
ZOO_SILENT = ("output log diverged from golden run with no design "
              "monitor firing")

#: the detail of a fault that acted without moving the log
NO_DIVERGENCE = "no observable divergence"

#: the ``detected_by`` of an RTL run that drove one bus from two
#: tristate drivers: the run stops at the conflict, so the conflict is
#: its only detection (a lane runs on, and names it alone too)
BUS_CONFLICT = ("bus_conflict",)

#: the shard planner's cost model: measured wall-clock (ms) of one
#: execution unit at 1, 2, 3 and 4 banks with warm memos (DESIGN.md §6)
#: -- one fault of the SystemC and ASM runners, one scalar RTL run of an
#: RTL-level fault (per stimulus pattern), and one PPSFP lane pass, which
#: decides every fault of the default batch on its lanes.  Beyond 4
#: banks the 4-bank column stands: the ASM faults then outweigh every
#: other unit by far, which is all the planner needs.
UNIT_COST_MS = {
    "sysc": (16, 20, 29, 31),
    "asm": (6, 43, 233, 982),
    "rtl": (3, 5, 8, 11),
    "lanes": (14, 16, 25, 39),
}


class CampaignConfig:
    """Workload shape and robustness budgets of one campaign."""

    def __init__(
        self,
        banks: int = 2,
        traffic: int = 24,
        seed: int = 2004,
        backend: str = "compiled",
        rtl_cycles: int = 160,
        campaign_deadline_s: Optional[float] = None,
        checkpoint_path: Optional[str] = None,
        max_faults: Optional[int] = None,
        shard_attempts: int = 2,
        shard_deadline_s: Optional[float] = None,
        retry_backoff_s: float = 0.05,
        design: Optional[str] = None,
        patterns: int = 1,
    ):
        #: a ``repro.dsl.zoo`` design name switches the campaign from
        #: the LA-1 transaction workload to the open-loop DSL workload
        #: (same engines, ladders, checkpoints and report format)
        self.design = design
        self.banks = banks
        self.traffic = traffic
        self.seed = seed
        self.backend = backend
        self.rtl_cycles = rtl_cycles
        self.campaign_deadline_s = campaign_deadline_s
        self.checkpoint_path = checkpoint_path
        self.max_faults = max_faults
        #: supervised execution budget (jobs > 1): attempts per shard
        #: before quarantine, per-shard wall-clock before the worker is
        #: killed, and the retry backoff base (repro.par.supervise)
        self.shard_attempts = shard_attempts
        self.shard_deadline_s = shard_deadline_s
        self.retry_backoff_s = retry_backoff_s
        #: PPSFP's second axis: sweep each stimulus-sensitive fault
        #: (RTL state faults, stimulus mutations) under this many
        #: stimulus patterns -- pattern 0 is the base stream, pattern
        #: p > 0 keeps the command schedule and re-draws addr/data from
        #: a derived seed.  A *workload* knob: the merged per-fault
        #: verdict is part of the campaign identity.
        if patterns < 1:
            raise ValueError("patterns must be >= 1")
        if design and patterns > 1:
            raise ValueError(
                "pattern packing applies to the LA-1 transaction "
                "workload; zoo campaigns drive open-loop stimulus"
            )
        self.patterns = patterns

    def la1(self) -> La1Config:
        """The concrete simulation-scale config (the flow's shape)."""
        return la1_config(self.banks)

    def fingerprint(self) -> dict:
        """The workload identity a checkpoint must match to be resumed
        (budgets and paths excluded: they may differ between the killed
        and the resuming invocation without changing any verdict)."""
        fingerprint = {
            "banks": self.banks,
            "traffic": self.traffic,
            "seed": self.seed,
            "backend": self.backend,
            "rtl_cycles": self.rtl_cycles,
        }
        # only zoo campaigns carry the key, so LA-1 checkpoints written
        # before the DSL existed stay resume-compatible
        if self.design:
            fingerprint["design"] = self.design
        # same back-compat pattern: single-pattern campaigns (the only
        # kind older checkpoints hold) carry no key
        if self.patterns > 1:
            fingerprint["patterns"] = self.patterns
        return fingerprint


class FaultVerdict:
    """One fault's campaign outcome."""

    def __init__(self, fault_id: str, layer: str, kind: str, outcome: str,
                 detected_by: Optional[list] = None, detail: str = "",
                 cpu_time: float = 0.0, expected_detectable: bool = True,
                 coverage_points: Optional[list] = None,
                 collapsed_from: Optional[list] = None):
        if outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome {outcome!r}")
        self.fault_id = fault_id
        self.layer = layer
        self.kind = kind
        self.outcome = outcome
        self.detected_by = list(detected_by or [])
        self.detail = detail
        self.cpu_time = cpu_time
        self.expected_detectable = expected_detectable
        #: the coverage points the detecting run exercised -- which
        #: stimulus coverage detection of this fault required (empty for
        #: undetected faults and for checkpoints from older campaigns)
        self.coverage_points = list(coverage_points or [])
        #: fault collapsing bookkeeping: on a representative, the
        #: ``fault_id`` of every equivalent fault this verdict also
        #: answers for; on a member, the representative's ``fault_id``
        self.collapsed_from = list(collapsed_from or [])

    def to_dict(self) -> dict:
        return {
            "fault_id": self.fault_id,
            "layer": self.layer,
            "kind": self.kind,
            "outcome": self.outcome,
            "detected_by": self.detected_by,
            "detail": self.detail,
            "cpu_time": round(self.cpu_time, 4),
            "expected_detectable": self.expected_detectable,
            "coverage_points": self.coverage_points,
            "collapsed_from": self.collapsed_from,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultVerdict":
        return cls(
            data["fault_id"], data["layer"], data["kind"], data["outcome"],
            data.get("detected_by", ()), data.get("detail", ""),
            data.get("cpu_time", 0.0), data.get("expected_detectable", True),
            data.get("coverage_points", ()), data.get("collapsed_from", ()),
        )

    def __repr__(self):
        by = f" by {','.join(self.detected_by)}" if self.detected_by else ""
        return f"FaultVerdict({self.fault_id}: {self.outcome}{by})"


def _stub_verdict(fault: Fault, outcome: str, detail: str) -> FaultVerdict:
    """The verdict the sweep records for a fault no engine judged: an
    ``error`` for a crashed run or a quarantined shard, ``truncated``
    for a fault the campaign deadline cut off."""
    return FaultVerdict(fault.fault_id, fault.layer, fault.kind, outcome,
                        detail=detail,
                        expected_detectable=fault.expect_detectable)


def judge(fault: Fault, detected_by: list, triggered: bool, diverged: bool,
          silent: str, coverage_points: Optional[list] = None
          ) -> FaultVerdict:
    """The verdict ladder of every golden-diffing run, per fault or per
    lane: *detected* when a monitor fired; else *masked* when the fault
    never acted; else *silent* (with the workload's ``silent`` detail)
    when the log diverged from the golden run; else *masked*.
    ``coverage_points`` are kept only on a detection."""
    if detected_by:
        outcome, detail = "detected", ""
    elif not triggered:
        outcome = "masked"
        detail = ("fault never changed a state bit"
                  if isinstance(fault, (RtlStuckAt, RtlBitFlip))
                  else "mutation window never reached")
    elif diverged:
        outcome, detail = "silent", silent
    else:
        outcome, detail = "masked", NO_DIVERGENCE
    return FaultVerdict(
        fault.fault_id, fault.layer, fault.kind, outcome, detected_by,
        detail, expected_detectable=fault.expect_detectable,
        coverage_points=coverage_points if detected_by else None,
    )


def log_signature(results) -> tuple:
    """The golden-comparable transaction log of a host's ``results``."""
    return tuple(
        (r.bank, r.addr, r.word, tuple(r.beats), tuple(r.parities))
        for r in results
    )


#: pattern-merge precedence: the strongest observation across the
#: pattern sweep wins (a fault detected under any stimulus variant is
#: detected; an engine error anywhere must surface; etc.)
_PATTERN_PRECEDENCE = ("detected", "error", "truncated", "silent")


def merge_pattern_verdicts(fault: Fault,
                           verdicts: List[FaultVerdict]) -> FaultVerdict:
    """Fold the per-pattern verdicts of one fault into its campaign
    verdict.

    Deterministic by construction -- precedence over outcomes, sorted
    unions over detection/coverage sets, details resolved in pattern
    order -- so the lane-tiled sweep and the per-fault pattern loop
    produce bit-identical results.  With one pattern this is the
    identity (modulo ``cpu_time``, which always sums).
    """
    if not verdicts:
        raise ValueError(f"no pattern verdicts for {fault.fault_id}")
    cpu_time = sum(v.cpu_time for v in verdicts)
    chosen = None
    for outcome in _PATTERN_PRECEDENCE:
        matching = [v for v in verdicts if v.outcome == outcome]
        if matching:
            chosen = matching[0]
            break
    if chosen is None:  # every pattern masked
        chosen = next(
            (v for v in verdicts if v.detail == NO_DIVERGENCE), verdicts[0])
        return FaultVerdict(
            fault.fault_id, fault.layer, fault.kind, "masked",
            detail=chosen.detail, cpu_time=cpu_time,
            expected_detectable=fault.expect_detectable,
        )
    detected_by = chosen.detected_by
    coverage_points = chosen.coverage_points
    if chosen.outcome == "detected":
        detected_by = sorted({
            name for v in verdicts if v.outcome == "detected"
            for name in v.detected_by
        })
        coverage_points = sorted({
            point for v in verdicts if v.outcome == "detected"
            for point in v.coverage_points
        })
    return FaultVerdict(
        fault.fault_id, fault.layer, fault.kind, chosen.outcome,
        detected_by, chosen.detail, cpu_time,
        expected_detectable=fault.expect_detectable,
        coverage_points=coverage_points,
    )


def _merge_numeric_stats(a: dict, b: dict) -> dict:
    """Engine-stat merge: numeric leaves add, dicts recurse, anything
    else takes the incoming value (backends/names agree across shards)."""
    out = dict(a)
    for key, value in b.items():
        mine = out.get(key)
        if isinstance(mine, dict) and isinstance(value, dict):
            out[key] = _merge_numeric_stats(mine, value)
        elif (isinstance(mine, (int, float)) and not isinstance(mine, bool)
              and isinstance(value, (int, float))
              and not isinstance(value, bool)):
            out[key] = mine + value
        else:
            out[key] = value
    return out


class CampaignReport:
    """All verdicts of a campaign plus the coverage arithmetic."""

    def __init__(self, verdicts: List[FaultVerdict], fingerprint: dict,
                 cpu_time: float = 0.0,
                 engine_stats: Optional[dict] = None):
        self.verdicts = list(verdicts)
        self.fingerprint = dict(fingerprint)
        self.cpu_time = cpu_time
        #: accounting from the engines underneath (e.g. the shared
        #: compiled-RTL simulator's design size and edge counts)
        self.engine_stats = dict(engine_stats or {})

    # ------------------------------------------------------------------
    # the mergeable-result protocol (repro.par): associative/commutative
    # ------------------------------------------------------------------
    @staticmethod
    def _verdict_rank(verdict: FaultVerdict) -> str:
        """Timing-independent serialization: the deterministic tie-break
        when two shards somehow report the same fault (min wins, which
        makes the duplicate-resolution order-independent)."""
        data = verdict.to_dict()
        data.pop("cpu_time", None)
        return json.dumps(data, sort_keys=True)

    def merge(self, other: "CampaignReport") -> "CampaignReport":
        """Fold ``other`` into this report in place and return self.

        Mirrors :meth:`repro.cover.CoverageDB.merge`'s lossless-merge
        contract: the verdict list is the union keyed by ``fault_id``
        (duplicates resolved by the timing-independent minimum, so merge
        order cannot matter), taxonomy counters -- being derived from
        the verdict list -- add, per-verdict coverage points union, CPU
        times add, and numeric engine stats add.  The merged verdict
        list is kept sorted by ``fault_id`` so any association or
        permutation of shards produces the identical report.  Merging
        reports of different workload fingerprints raises ``ValueError``
        (their verdicts are not comparable).
        """
        if (self.fingerprint and other.fingerprint
                and self.fingerprint != other.fingerprint):
            raise ValueError(
                "cannot merge campaign reports with different workload "
                f"fingerprints: {self.fingerprint} != {other.fingerprint}"
            )
        if not self.fingerprint:
            self.fingerprint = dict(other.fingerprint)
        union = {v.fault_id: v for v in self.verdicts}
        for verdict in other.verdicts:
            mine = union.get(verdict.fault_id)
            if mine is None or (self._verdict_rank(verdict)
                                < self._verdict_rank(mine)):
                union[verdict.fault_id] = verdict
        self.verdicts = [union[fault_id] for fault_id in sorted(union)]
        self.cpu_time += other.cpu_time
        self.engine_stats = _merge_numeric_stats(
            self.engine_stats, other.engine_stats)
        return self

    @classmethod
    def merged(cls, reports: List["CampaignReport"]) -> "CampaignReport":
        """A fresh report holding the merge of ``reports``."""
        out = cls([], {})
        for report in reports:
            out.merge(report)
        return out

    # ------------------------------------------------------------------
    def counts(self) -> dict:
        out = {outcome: 0 for outcome in OUTCOMES}
        for verdict in self.verdicts:
            out[verdict.outcome] += 1
        return out

    def coverage(self, layer: Optional[str] = None) -> float:
        """Detection coverage: detected / expected-detectable faults
        (optionally restricted to one layer).  1.0 when the restriction
        selects no fault."""
        pool = [
            v for v in self.verdicts
            if v.expected_detectable and (layer is None or v.layer == layer)
        ]
        if not pool:
            return 1.0
        detected = sum(1 for v in pool if v.outcome == "detected")
        return detected / len(pool)

    def gaps(self) -> List[FaultVerdict]:
        """Faults that perturbed behaviour without any monitor firing --
        the assertion-coverage holes the campaign surfaces."""
        return [v for v in self.verdicts if v.outcome == "silent"]

    def signature(self) -> tuple:
        """Timing-independent identity: equal signatures mean equal
        campaign conclusions (used by the resume and reproducibility
        tests)."""
        return tuple(sorted(
            (v.fault_id, v.outcome, tuple(v.detected_by))
            for v in self.verdicts
        ))

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "cpu_time": round(self.cpu_time, 3),
            "engine_stats": self.engine_stats,
            "counts": self.counts(),
            "coverage": {
                "overall": round(self.coverage(), 4),
                "rtl": round(self.coverage("rtl"), 4),
                "sysc": round(self.coverage("sysc"), 4),
                "asm": round(self.coverage("asm"), 4),
                "stim": round(self.coverage("stim"), 4),
            },
            "faults": [v.to_dict() for v in self.verdicts],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignReport":
        return cls(
            [FaultVerdict.from_dict(v) for v in data.get("faults", ())],
            data.get("fingerprint", {}),
            data.get("cpu_time", 0.0),
            data.get("engine_stats", {}),
        )

    def render(self) -> str:
        lines = [
            f"fault campaign ({self.fingerprint.get('banks', '?')} banks, "
            f"{len(self.verdicts)} faults, {self.cpu_time:.1f}s):"
        ]
        for verdict in self.verdicts:
            by = f"  <- {', '.join(verdict.detected_by)}" \
                if verdict.detected_by else ""
            lines.append(
                f"  [{verdict.outcome:>9}] {verdict.fault_id}{by}"
            )
        counts = self.counts()
        lines.append(
            "  " + ", ".join(f"{k}={v}" for k, v in counts.items() if v)
        )
        lines.append(
            f"  detection coverage: {self.coverage():.0%} overall, "
            f"{self.coverage('sysc'):.0%} protocol"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# default fault list
# ----------------------------------------------------------------------
def default_fault_list(banks: int = 2, include_gap_probes: bool = True,
                       rtl_top: str = "la1_top") -> List[Fault]:
    """The smoke campaign's fault list.

    Every protocol mutation kind on every bank, one ASM perturbation of
    each kind, RTL stuck-ats on the read pipeline stage registers plus an
    SEU on the fetched-word register (a deliberate datapath gap probe:
    parity is recomputed from the corrupted word, so only a scoreboard
    could see it).  Gap probes ship with ``expect_detectable=False`` and
    are excluded from the coverage denominator.
    """
    faults: List[Fault] = []
    for bank in range(banks):
        for kind in PROTOCOL_KINDS:
            faults.append(ProtocolMutation(kind, bank))
    if include_gap_probes:
        # occurrence 3 lands the address corruption on a read issued
        # after writes have differentiated the array contents, so the
        # divergence is visible in the transaction log (silent, not
        # masked) under the default seed
        faults.append(ProtocolMutation("corrupt_address", 0, occurrence=3))
        faults.append(ProtocolMutation("drop_command", banks - 1))
    faults.append(AsmPerturbation("stall_read", 0))
    faults.append(AsmPerturbation("drop_commit", 0))
    faults.append(AsmPerturbation("spurious_data", banks - 1))
    faults.append(
        RtlStuckAt(f"{rtl_top}.bank0.read_port.st_out0", 0, 0))
    faults.append(
        RtlStuckAt(f"{rtl_top}.bank{banks - 1}.read_port.st_out1", 0, 0))
    faults.append(
        RtlStuckAt(f"{rtl_top}.bank0.read_port.st_fetch", 0, 0))
    if include_gap_probes:
        # stuck-at-1 on the fetch stage drags the whole read pipeline
        # high; the host's flow control backs off and no checker fires --
        # a real observability gap of the OVL suite under this testbench
        faults.append(RtlStuckAt(
            f"{rtl_top}.bank0.read_port.st_fetch", 0, 1,
            expect_detectable=False,
        ))
        # SEU in the SRAM array (bank 0, word 2, bit 3): parity is
        # recomputed from the corrupted word, so the read completes
        # cleanly and only the golden-run comparison can tell
        faults.append(RtlBitFlip(
            f"{rtl_top}.bank0.sram.mem", 67, at_edge=4,
            expect_detectable=False,
        ))
    return faults


# one entry per workload a process has run: a serve process sees a new
# seed per job, so the memo is bounded
@functools.lru_cache(maxsize=16)
def golden_logs(workload: tuple) -> dict:
    """The golden-run logs of one workload (the sorted items of its
    :meth:`CampaignConfig.fingerprint`, which names everything a golden
    run depends on), memoised per process: ``"sysc"`` is the SystemC
    golden, ``("rtl", p)`` the scalar RTL golden of stimulus pattern
    ``p`` and ``("lanes", p)`` its PPSFP golden-pass log.  Campaigns
    fill the dict as they run their goldens and store a log only once
    it passed its checks, so a failing golden is run again, never
    reused.  A coordinator fills it before its pool forks, so no shard
    worker runs a golden run."""
    return {}


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
class FaultCampaign:
    """Sweep a fault list, one isolated run per fault, with golden-run
    differencing, checkpointing and exception containment."""

    def __init__(self, config: Optional[CampaignConfig] = None):
        self.config = config or CampaignConfig()
        self._rtl_sim: Optional[RtlSimulator] = None
        self._flat_design = None
        self._ppsfp_sims: dict = {}
        self._zoo_stim: Optional[list] = None

    def _goldens(self) -> dict:
        """This workload's entry of the :func:`golden_logs` memo."""
        return golden_logs(tuple(sorted(self.config.fingerprint().items())))

    # -- workload ------------------------------------------------------
    def _schedule(self):
        """The base command schedule (and pattern-0 values)."""
        from ..core.traffic import traffic_schedule

        config = self.config
        return traffic_schedule(config.la1(), config.traffic, config.seed)

    def _queue_traffic(self, host, pattern: int = 0) -> None:
        """The flow's Table-3 workload shape: seeded random read/write
        mix over all banks (identical at both simulation layers).
        ``pattern > 0`` keeps the command schedule and re-draws the
        addr/data fields from a derived seed (PPSFP's second axis)."""
        from ..core.traffic import queue_traffic

        config = self.config
        queue_traffic(host, config.la1(), config.traffic, config.seed,
                      pattern)

    # -- SystemC layer -------------------------------------------------
    def _sysc_duration(self) -> int:
        return self.config.traffic * 20 + 200

    def _sysc_run(self, fault: Optional[ProtocolMutation] = None) -> tuple:
        """One SystemC run of the workload with ``fault`` sabotaging the
        device (None: the golden run): ``(failing monitors, triggered,
        transaction log, coverage points)``."""
        from ..cover.functional import La1FunctionalCoverage

        sim, clocks, device, host = build_la1_system(self.config.la1())
        saboteur = None
        if fault is not None:
            saboteur = ProtocolSaboteur(sim, device, fault)
        monitors = attach_read_mode_monitors(sim, device, clocks)
        functional = La1FunctionalCoverage(host)
        self._queue_traffic(host)
        functional.detach()
        sim.run(self._sysc_duration())
        failed = sorted(
            m.name for m in monitors if m.finish() is Verdict.FAILS)
        return (failed, saboteur is not None and saboteur.triggered,
                log_signature(host.results),
                functional.harvest().covered_keys())

    def _sysc_golden_run(self) -> tuple:
        goldens = self._goldens()
        if "sysc" not in goldens:
            failed, __, log, __ = self._sysc_run()
            if failed:
                raise RuntimeError(
                    f"golden SystemC run fails assertions {failed}; "
                    "campaign verdicts would be meaningless"
                )
            goldens["sysc"] = log
        return goldens["sysc"]

    def _run_sysc(self, fault: ProtocolMutation) -> FaultVerdict:
        golden = self._sysc_golden_run()
        failed, triggered, log, points = self._sysc_run(fault)
        return judge(fault, failed, triggered, log != golden, SYSC_SILENT,
                     points)

    # -- RTL layer -----------------------------------------------------
    def _design(self):
        """The flattened LA-1-with-OVL netlist every RTL engine of this
        campaign shares.  Both sources are per-process caches (the zoo's
        ``build_elaborated`` and :func:`repro.core.rtl_model.la1_netlist`),
        so every campaign of one shape shares one design object -- and
        with it the simulator kernels compiled for that design."""
        if self._flat_design is None:
            if self.config.design:
                from ..dsl.zoo import build_elaborated

                self._flat_design = build_elaborated(
                    self.config.design).flat
            else:
                self._flat_design = la1_netlist(self.config.la1(), ovl=True)
        return self._flat_design

    def _zoo_stimulus(self):
        """The open-loop per-cycle input vectors of a zoo campaign."""
        if self._zoo_stim is None:
            from ..dsl.faults import zoo_stimulus

            self._zoo_stim = zoo_stimulus(
                self._design(), self.config.seed, self.config.rtl_cycles)
        return self._zoo_stim

    def _ppsfp_batch(self, batch, lanes: int,
                     patterns_per_pass: Optional[int] = None) -> tuple:
        """One lane-parallel pass, routed by workload kind (the hook
        :func:`repro.fault.ppsfp.run_ppsfp_batches` dispatches through)."""
        if self.config.design:
            from ..dsl.faults import run_zoo_batch

            return run_zoo_batch(self, batch, lanes)
        from .ppsfp import _run_batch

        return _run_batch(self, batch, lanes, patterns_per_pass)

    def _rtl_simulator(self) -> RtlSimulator:
        if self._rtl_sim is None:
            self._rtl_sim = RtlSimulator(
                self._design(), backend=self.config.backend,
            )
        return self._rtl_sim

    def _ppsfp_simulator(self, lanes: int) -> RtlSimulator:
        """The lane-parallel sibling of :meth:`_rtl_simulator` (same
        flattened netlist, ``"bitpar"`` backend), cached per lane count."""
        sim = self._ppsfp_sims.get(lanes)
        if sim is None:
            sim = RtlSimulator(
                self._design(), backend="bitpar", lanes=lanes,
            )
            self._ppsfp_sims[lanes] = sim
        return sim

    def _rtl_golden_run(self, pattern: int = 0) -> tuple:
        goldens = self._goldens()
        if ("rtl", pattern) not in goldens:
            failed, __, golden, __ = self._rtl_run(pattern=pattern)
            if failed:
                raise RuntimeError(
                    f"golden RTL run (pattern {pattern}) fires monitors "
                    f"{failed[:3]}; campaign verdicts would be meaningless"
                )
            goldens["rtl", pattern] = golden
        return goldens["rtl", pattern]

    def _rtl_run(self, fault: Optional[Fault] = None,
                 pattern: int = 0) -> tuple:
        """One scalar RTL run of the workload under stimulus ``pattern``
        -- the LA-1 host's transactions, or a zoo design's open-loop
        stimulus (:func:`repro.dsl.faults.zoo_log_run`) -- with ``fault``
        injected: a netlist fault through an injector, a stimulus
        mutation as a mutated queue whose log drops the issued address
        (:func:`~repro.fault.stim_inject.reduce_log_signature`).  None is
        the golden run, which attaches no injector.  A faulty run that
        drives one bus from two tristate drivers ends at the conflict,
        failing :data:`BUS_CONFLICT` alone (a golden run raises).
        Returns ``(failing monitors, triggered, log, coverage points)``."""
        from ..core.traffic import schedule_values
        from ..cover.functional import La1FunctionalCoverage

        config = self.config
        mutation = fault if isinstance(fault, StimulusMutation) else None
        if mutation is not None and config.design:
            raise RuntimeError(
                "stimulus mutations target the LA-1 transaction workload")
        sim = self._rtl_simulator()
        sim.reset()
        injector = None
        if fault is not None and mutation is None:
            injector = RtlFaultInjector(sim, [fault])
            injector.attach()
        triggered, points, log = False, None, None
        try:
            if config.design:
                from ..dsl.faults import zoo_log_run

                log = zoo_log_run(self, sim)
            else:
                la1 = config.la1()
                host = RtlHost(sim, la1)
                functional = La1FunctionalCoverage(host)
                if mutation is None:
                    self._queue_traffic(host, pattern)
                else:
                    schedule = self._schedule()
                    values = schedule_values(la1, schedule, config.seed,
                                             pattern)
                    triggered = queue_mutated_traffic(
                        host, la1, schedule, values, mutation)
                functional.detach()
                # functional coverage samples at queue time: harvested
                # before the run, it holds even for a run a conflict ends
                points = functional.harvest().covered_keys()
                host.run_cycles(config.rtl_cycles)
                log = log_signature(host.results)
                if mutation is not None:
                    log = reduce_log_signature(log)
            failed = sorted({r.name for r in sim.failures})
        except BusConflict:
            if fault is None:
                raise
            failed = list(BUS_CONFLICT)
        finally:
            if injector is not None:
                injector.detach()
        if injector is not None:
            triggered = injector.triggered
        return failed, triggered, log, points

    def _run_rtl(self, fault: Fault, pattern: int = 0) -> FaultVerdict:
        golden = self._rtl_golden_run(pattern)
        failed, triggered, log, points = self._rtl_run(fault, pattern)
        if isinstance(fault, StimulusMutation):
            golden = reduce_log_signature(golden)
        silent = ZOO_SILENT if self.config.design else RTL_SILENT
        return judge(fault, failed, triggered, log != golden, silent, points)

    # -- ASM layer -----------------------------------------------------
    def _asm_suite(self, bank: int) -> list:
        """The device properties of ``bank``, which an ASM perturbation
        of that bank is checked against."""
        return [
            (name, prop)
            for name, prop in device_property_suite(self.config.banks)
            if name.endswith(f"[{bank}]")
        ]

    def _run_asm(self, fault: AsmPerturbation) -> FaultVerdict:
        from ..cover.asm_cov import AsmCoverage, la1_state_predicates

        machine = build_perturbed_la1_asm(
            La1AsmConfig(banks=self.config.banks), fault,
        )
        # exploration drives the machine through fire(), so the coverage
        # observer sees every transition the checker takes
        asm_cov = AsmCoverage(machine, la1_state_predicates(self.config.banks))
        suite = self._asm_suite(fault.bank)
        config = ExplorationConfig(max_states=50_000, max_transitions=500_000)
        # one exploration checks the whole bank suite: a failed property
        # retires and the search steps the rest
        result = AsmModelChecker(
            machine, asm_labeling(self.config.banks), config,
        ).check_combined([prop for __, prop in suite], name=fault.fault_id)
        asm_cov.detach()
        detected_by = [suite[index][0] for index in sorted(result.failures)]
        if detected_by:
            outcome, detail = "detected", ""
        elif result.truncated:
            outcome = "truncated"
            detail = (f"exploration bounds hit (max_states="
                      f"{config.max_states}, max_transitions="
                      f"{config.max_transitions}) with no property of "
                      f"bank {fault.bank} violated")
        else:
            outcome = "silent"
            detail = (f"no property of bank {fault.bank} violated by the "
                      "perturbed transition relation")
        return FaultVerdict(
            fault.fault_id, fault.layer, fault.kind, outcome, detected_by,
            detail, expected_detectable=fault.expect_detectable,
            coverage_points=(asm_cov.harvest().covered_keys()
                             if detected_by else None),
        )

    # -- checkpointing -------------------------------------------------
    def _load_checkpoint(self) -> dict:
        path = self.config.checkpoint_path
        if not path or not os.path.exists(path):
            return {}
        try:
            with open(path) as fh:
                state = json.load(fh)
        except (OSError, ValueError) as exc:
            # a truncated or corrupt checkpoint (crash mid-write with a
            # pre-atomic writer, disk trouble) must not make resume
            # crash: warn and start empty -- completed work is lost but
            # the campaign still finishes with correct verdicts
            warnings.warn(
                f"campaign checkpoint {path} is unreadable ({exc}); "
                "resuming with an empty state",
                stacklevel=2,
            )
            return {}
        if not isinstance(state, dict):
            warnings.warn(
                f"campaign checkpoint {path} holds a non-object payload;"
                " resuming with an empty state",
                stacklevel=2,
            )
            return {}
        if state.get("fingerprint") != self.config.fingerprint():
            return {}  # different workload: verdicts not transferable
        return {
            fault_id: FaultVerdict.from_dict(data)
            for fault_id, data in state.get("verdicts", {}).items()
        }

    def _save_checkpoint(self, completed: dict) -> None:
        path = self.config.checkpoint_path
        if not path:
            return
        from ..serve.store import write_atomic

        state = {
            "fingerprint": self.config.fingerprint(),
            "verdicts": {
                fault_id: verdict.to_dict()
                for fault_id, verdict in completed.items()
                if verdict.outcome in _DECIDED
            },
        }
        # atomic and durable: a coordinator killed at any instant leaves
        # either the old checkpoint or the new one, never a torn file
        write_atomic(path, json.dumps(state, indent=2, sort_keys=True))

    # -- the sweep -----------------------------------------------------
    def _dispatch(self, fault: Fault) -> FaultVerdict:
        if isinstance(fault, ProtocolMutation):
            return self._run_sysc(fault)
        if isinstance(fault, AsmPerturbation):
            return self._run_asm(fault)
        if not isinstance(fault, _RTL_LEVEL):
            raise TypeError(f"no runner for {fault!r}")
        # only RTL-level faults see the pattern axis, and only on the
        # LA-1 workload (CampaignConfig refuses patterns for a zoo design)
        patterns = self.config.patterns
        if patterns == 1:
            return self._run_rtl(fault)
        return merge_pattern_verdicts(
            fault, [self._run_rtl(fault, p) for p in range(patterns)])

    def execute_fault(self, fault: Fault) -> FaultVerdict:
        """Run one fault with exception containment and timing -- the
        executor's unit for a fault no lane carries, and the rung a lane
        batch falls back to (:func:`repro.fault.ppsfp.run_ppsfp_batches`)."""
        fault_start = time.perf_counter()
        try:
            verdict = self._dispatch(fault)
        except Exception:
            verdict = _stub_verdict(fault, "error",
                                    traceback.format_exc(limit=3))
        verdict.cpu_time = time.perf_counter() - fault_start
        return verdict

    def _lane_faults(self, faults: List[Fault], lanes: int) -> List[Fault]:
        """The faults of ``faults`` a PPSFP lane can carry at ``lanes``
        (:func:`~repro.fault.ppsfp.ppsfp_compatible`).  The design is
        elaborated only when some fault is RTL-level."""
        from .ppsfp import ppsfp_compatible

        if lanes < 2 or not any(isinstance(f, _RTL_LEVEL) for f in faults):
            return []
        design = self._design()
        return [f for f in faults if ppsfp_compatible(design, f)]

    def _units(self, faults: List[Fault], lanes: int) -> List[tuple]:
        """The execution units of ``faults`` at ``lanes``, in run order:
        ``(True, batch)`` for each PPSFP lane batch of up to ``lanes - 1``
        compatible faults, then ``(False, [fault])`` for every other
        fault.  The batches are consecutive slices of the compatible
        faults, so any subsequence of them, concatenated in order,
        slices back into the same batches."""
        lane_faults = self._lane_faults(faults, lanes)
        on_lanes = {f.fault_id for f in lane_faults}
        width = max(1, lanes - 1)
        units = [(True, lane_faults[i:i + width])
                 for i in range(0, len(lane_faults), width)]
        units += [(False, [f]) for f in faults if f.fault_id not in on_lanes]
        return units

    def execute_faults(
        self, faults: List[Fault], lanes: int = 1,
        patterns_per_pass: Optional[int] = None,
        should_stop: Optional[Callable[[], bool]] = None,
        on_batch: Optional[Callable[[List[FaultVerdict]], None]] = None,
    ) -> List[FaultVerdict]:
        """The campaign's one executor: verdicts for ``faults``, in order.

        It plans the batches once (:meth:`_units`) -- the
        PPSFP-compatible faults (RTL state faults, lane-encodable
        stimulus mutations) in lane batches of up to ``lanes - 1``
        (:mod:`repro.fault.ppsfp`), then every other fault alone through
        :meth:`execute_fault` -- and runs them in that order.  Verdicts
        are bit-identical whatever the plan (only ``cpu_time``
        differs).  ``patterns_per_pass`` caps how
        many stimulus-pattern groups one pass tiles (an execution knob;
        None auto-fits the lane budget).  ``should_stop`` is asked
        before each batch: once it answers True the sweep ends and the
        faults it did not reach are missing from the result.
        ``on_batch`` receives each batch's verdicts as they land.
        """
        from .ppsfp import run_ppsfp_batches

        done: dict = {}
        for lane_batch, batch in self._units(faults, lanes):
            if should_stop is not None and should_stop():
                break
            if lane_batch:
                verdicts = run_ppsfp_batches(self, batch, lanes,
                                             patterns_per_pass)
            else:
                verdicts = [self.execute_fault(batch[0])]
            for verdict in verdicts:
                done[verdict.fault_id] = verdict
            if on_batch is not None:
                on_batch(verdicts)
        return [done[f.fault_id] for f in faults if f.fault_id in done]

    def _engine_stats(self) -> dict:
        """The accounting of the simulators this campaign built: the
        scalar RTL simulator and one bitpar simulator per lane count."""
        stats: dict = {}
        if self._rtl_sim is not None:
            stats["rtl_sim"] = self._rtl_sim.stats()
        for count, sim in sorted(self._ppsfp_sims.items()):
            stats.setdefault("ppsfp", {})[str(count)] = sim.stats()
        return stats

    def _collapse(self, faults: List[Fault]):
        """The campaign-level fault-collapsing step: a
        :class:`~repro.fault.rtl_inject.CollapsePlan` when any stuck-ats
        dedupe onto shared state bits, else None."""
        if not any(isinstance(f, RtlStuckAt) for f in faults):
            return None
        plan = collapse_faults(faults, self._design())
        return plan if plan.groups else None

    def _expand_collapsed(self, plan, completed: dict) -> List[FaultVerdict]:
        """The collapsed members' verdicts: each representative's verdict
        fanned back out (equivalent faults share outcome, detection and
        coverage by construction; members keep their own identity and
        zero cost).  Members already in ``completed`` -- e.g. from a
        pre-collapse checkpoint -- keep their recorded verdict."""
        fanned = []
        for rep_id, members in plan.groups.items():
            rep = completed[rep_id]
            rep.collapsed_from = sorted(m.fault_id for m in members)
            fanned.extend(
                FaultVerdict(
                    member.fault_id, member.layer, member.kind,
                    rep.outcome, rep.detected_by, rep.detail, 0.0,
                    expected_detectable=member.expect_detectable,
                    coverage_points=rep.coverage_points,
                    collapsed_from=[rep_id],
                )
                for member in members if member.fault_id not in completed
            )
        return fanned

    def _unit_cost(self, unit: tuple, lanes: int,
                   patterns_per_pass: Optional[int] = None) -> float:
        """The cost model of the shard planner: the expected wall-clock
        (ms) of one :meth:`_units` unit under this workload, from the
        measured :data:`UNIT_COST_MS` row of its bank count.  A lane
        batch costs one lane pass per pattern chunk it sweeps, an
        RTL-level fault one scalar run per stimulus pattern."""
        from .ppsfp import groups_per_pass

        config = self.config
        row = min(config.banks, len(UNIT_COST_MS["lanes"])) - 1
        lane_batch, batch = unit
        if lane_batch:
            groups = groups_per_pass(len(batch) + 1, lanes, patterns_per_pass)
            return UNIT_COST_MS["lanes"][row] * -(-config.patterns // groups)
        fault = batch[0]
        if isinstance(fault, ProtocolMutation):
            return UNIT_COST_MS["sysc"][row]
        if isinstance(fault, AsmPerturbation):
            return UNIT_COST_MS["asm"][row]
        return UNIT_COST_MS["rtl"][row] * config.patterns

    def shard_plan(self, faults: List[Fault], jobs: int, lanes: int = 1,
                   patterns_per_pass: Optional[int] = None
                   ) -> List[List[Fault]]:
        """The deterministic shards of ``faults`` for ``jobs`` workers:
        :meth:`_units` packed by :func:`repro.par.plan_shards` under
        :meth:`_unit_cost`, so a lane batch stays whole, each shard keeps
        the submission order, and a shard's own :meth:`execute_faults`
        plans the same lane batches again."""
        from ..par import plan_shards

        packed = plan_shards(
            self._units(faults, lanes), jobs,
            weight=lambda unit: self._unit_cost(unit, lanes,
                                                patterns_per_pass))
        shards = []
        for units in packed:
            ids = {f.fault_id for __, batch in units for f in batch}
            shards.append([f for f in faults if f.fault_id in ids])
        return shards

    def _prepare(self, faults: List[Fault], lanes: int) -> None:
        """Fill, before the pool forks, everything the shards of
        ``faults`` will read, so every forked worker inherits it: per
        layer, the modules its runner imports, the checker automata it
        compiles (:func:`~repro.psl.automata.compiled_checker`) and its
        golden runs (:func:`golden_logs`).  That is the SystemC golden
        for a protocol mutation; the property suite of each perturbed
        bank for an ASM perturbation; for an RTL-level fault the
        ``config.backend`` kernel and the golden run of every stimulus
        pattern, plus the bitpar kernel at ``lanes`` -- and the lane
        golden pass when ``config.patterns > 1`` -- once a fault can
        ride the lanes.  Each step is an optimisation, not a verdict: one
        that raises is skipped, and the shards meet the failure again
        and contain it as per-fault ``error`` verdicts."""
        # every runner imports repro.cover (coverage observers) and
        # execute_faults imports the PPSFP module
        from ..cover import asm_cov  # noqa: F401 - imported for the shards
        from ..psl.automata import compiled_checker
        from .ppsfp import _pattern_goldens

        config = self.config
        if any(isinstance(f, ProtocolMutation) for f in faults):
            with suppress(Exception):
                self._sysc_golden_run()
        for bank in sorted({f.bank for f in faults
                            if isinstance(f, AsmPerturbation)}):
            with suppress(Exception):
                for __, prop in self._asm_suite(bank):
                    compiled_checker(prop)
        if not any(isinstance(f, _RTL_LEVEL) for f in faults):
            return
        design = self._design()
        with suppress(Exception):
            design_kernel(design, config.backend)
        for pattern in range(config.patterns):
            with suppress(Exception):
                self._rtl_golden_run(pattern)
        if self._lane_faults(faults, lanes):
            with suppress(Exception):
                design_kernel(design, "bitpar", lanes=lanes)
            if config.patterns > 1:
                with suppress(Exception):
                    _pattern_goldens(self, list(range(config.patterns)),
                                     lanes)

    def _run_parallel(self, pending: List[Fault], collect, jobs: int,
                      start: float, lanes: int = 1,
                      patterns_per_pass: Optional[int] = None) -> dict:
        """Fan the pending faults out over the *supervised* process pool
        (one shard per cost-balanced group of execution units,
        :meth:`shard_plan`, forked after :meth:`_prepare`;
        :func:`repro.par.run_supervised`), each worker running
        :meth:`execute_faults` on its shard
        (:func:`repro.par.workers.campaign_shard`).  ``collect`` receives
        every shard's verdicts; returns the merged engine stats.  The
        supervision ladder applies per shard: a crashed or hung worker
        is reaped and its shard retried with backoff
        (``shard_attempts`` budget); a shard that fails every attempt is
        quarantined into structured ``error`` verdicts while every other
        shard completes; and a campaign deadline turns uncollected
        shards into ``truncated`` verdicts.  ``collect`` checkpoints
        each shard's verdicts the moment it lands, so a killed
        coordinator resumes bit-identically without recomputing it."""
        from ..par import ShardError, run_supervised
        # looked up per run, so a wrapper installed before the fork
        # (repro.serve.__main__.strike_first_shard) reaches the workers
        from ..par.workers import campaign_shard

        config = self.config
        shards = self.shard_plan(pending, jobs, lanes, patterns_per_pass)
        self._prepare(pending, lanes)
        # the prepare step spends the campaign's own deadline
        timeout = None
        if config.campaign_deadline_s is not None:
            timeout = max(
                0.0,
                config.campaign_deadline_s - (time.perf_counter() - start),
            )
        results, stats = run_supervised(
            campaign_shard,
            [(config, shard, lanes, patterns_per_pass) for shard in shards],
            jobs=jobs,
            timeout_s=timeout,
            shard_deadline_s=config.shard_deadline_s,
            max_attempts=config.shard_attempts,
            backoff_base_s=config.retry_backoff_s,
            seed=config.seed,
            on_result=lambda index, report: collect(
                [FaultVerdict.from_dict(v) for v in report["faults"]]),
        )
        engine_stats: dict = {}
        for shard, result in zip(shards, results):
            if isinstance(result, ShardError):
                # poison shard: quarantined after its retry budget --
                # structured error verdicts, the rest of the campaign
                # is unaffected
                collect([
                    _stub_verdict(f, "error", (
                        f"shard quarantined after {result.attempts} "
                        f"attempt(s): [{result.kind}] {result.detail}"))
                    for f in shard
                ])
            elif result is None:  # deadline expired before collection
                collect([_stub_verdict(f, "truncated", _DEADLINE)
                         for f in shard])
            else:
                engine_stats = _merge_numeric_stats(
                    engine_stats, result["engine_stats"])
        engine_stats["par"] = stats.to_dict()
        return engine_stats

    def run(self, faults: Optional[List[Fault]] = None,
            resume: bool = True,
            on_verdict: Optional[Callable[[FaultVerdict], None]] = None,
            jobs: int = 1,
            lanes: int = 1,
            patterns_per_pass: Optional[int] = None,
            ) -> CampaignReport:
        """Sweep ``faults`` (default: :func:`default_fault_list`).

        With ``resume`` (default) and a configured ``checkpoint_path``,
        the decided verdicts recorded by an earlier -- possibly killed
        -- invocation with the same workload fingerprint are reused
        instead of re-run, at any ``jobs``.

        Equivalent RTL stuck-ats are collapsed onto their shared state
        bit first (:func:`repro.fault.rtl_inject.collapse_faults`): only
        the representative is swept, members receive its verdict with
        the relation recorded in ``collapsed_from``.

        Every execution shape is one sweep: :meth:`execute_faults` plans
        and runs the batches, and one collector records each batch's
        verdicts (merge, atomic checkpoint, ``on_verdict``).
        ``jobs > 1`` shards the pending faults across a process pool
        (:mod:`repro.par`): one deterministic cost-balanced shard per
        worker (:meth:`shard_plan`), each worker running the same
        executor over what the coordinator prepared before forking --
        design, kernels, imports, checker automata and golden runs.
        ``lanes > 1`` batches the PPSFP-compatible RTL faults into
        lane-parallel bitpar passes, multiplying with the process
        fan-out.  With ``config.patterns > 1`` those passes additionally
        tile the lane word as patterns x faults (golden lane per pattern
        group); ``patterns_per_pass`` caps the tiling (None auto-fits, 1
        emulates the single-pattern-per-pass layout).  The determinism
        contract holds for every knob: verdicts are identical to a
        ``jobs=1, lanes=1`` sweep (only timing fields differ), the
        checkpoint file stays resume-compatible in every direction, and
        pool/batch failure degrades to inline per-fault execution.
        """
        config = self.config
        if faults is None:
            if config.design:
                from ..dsl.faults import zoo_fault_list

                faults = zoo_fault_list(self._design())
            else:
                faults = default_fault_list(config.banks)
        if config.max_faults is not None:
            faults = faults[: config.max_faults]
        collapse = self._collapse(faults)
        run_list = collapse.run_faults if collapse is not None else faults
        completed = self._load_checkpoint() if resume else {}
        start = time.perf_counter()
        pending = [f for f in run_list if f.fault_id not in completed]

        def collect(verdicts: List[FaultVerdict]) -> None:
            for verdict in verdicts:
                completed[verdict.fault_id] = verdict
            self._save_checkpoint(completed)
            if on_verdict is not None:
                for verdict in verdicts:
                    on_verdict(verdict)

        if jobs > 1 and len(pending) > 1:
            engine_stats = self._run_parallel(
                pending, collect, jobs, start, lanes, patterns_per_pass)
        else:
            def expired() -> bool:
                return (config.campaign_deadline_s is not None
                        and time.perf_counter() - start
                        > config.campaign_deadline_s)

            self.execute_faults(pending, lanes, patterns_per_pass,
                                should_stop=expired, on_batch=collect)
            cut = [f for f in pending if f.fault_id not in completed]
            if cut:
                collect([_stub_verdict(f, "truncated", _DEADLINE)
                         for f in cut])
            engine_stats = self._engine_stats()

        if collapse is not None:
            collect(self._expand_collapsed(collapse, completed))
        verdicts = [completed[f.fault_id] for f in faults]
        return CampaignReport(
            verdicts, config.fingerprint(), time.perf_counter() - start,
            engine_stats,
        )
