"""Parallel-pattern single-fault-propagation (PPSFP) campaign batching.

Classic PPSFP has two packing axes.  PR 6 exploited the first: one
golden machine plus N-1 *faulty* machines in the bit positions of
machine words -- the ``"bitpar"`` RTL backend (:mod:`repro.rtl.bitsim`)
evaluates every lane with the same straight-line word ops, so a batch of
compatible faults costs one simulation pass instead of one per fault.
This module now drives both axes:

* **Fault lanes** -- faults are mapped onto lanes through
  :class:`~repro.fault.rtl_inject.RtlFaultInjector`'s ``lane_map``
  (RTL state faults) or per-lane divergent input drives
  (:class:`~repro.fault.models.StimulusMutation`, lowered through
  :meth:`~repro.rtl.simulator.RtlSimulator.set_input_lanes` by the
  lane-aware transactor shim in :mod:`repro.fault.stim_inject`).
* **Pattern groups** -- when the batch is narrower than the lane
  budget, the lane word is tiled as ``patterns x faults``: group *g*
  spans ``group_size = W + 1`` lanes, its first lane golden, and every
  lane of the group drives stimulus pattern ``p_g`` (same command
  schedule, re-drawn addr/data; :mod:`repro.core.traffic`).  A 12-fault
  session on a 64-lane word thus sweeps 4 stimulus patterns per pass,
  amortising the bitpar compile even for short campaigns.

Per-lane verdicts come from lane-wise golden differencing -- monitor
fire words for *detected*, the injector's ``triggered_lanes`` (or the
stimulus applicator's schedule-shared trigger) for *masked*, and a lane
word of transaction-log divergence against the lane's *group golden*
for *silent* -- classified by the per-fault paths' own verdict ladder
(:func:`~repro.fault.campaign.judge`), then folded across patterns by
:func:`~repro.fault.campaign.merge_pattern_verdicts`.

**Validity rule.**  The host reacts to lane 0's pipeline status nets;
the LA-1 status trajectory depends only on the command schedule, which
every pattern shares, so lane 0 arbitrates for all groups.  A lane's
verdict is only trustworthy if its control behaviour never diverged
from lane 0 at any status poll: :class:`_LaneProbeHost` accumulates an
``invalid_lanes`` word at every poll; lanes flagged there -- and lanes
that hit a tristate bus conflict -- fall back to the ordinary per-fault
run (the whole fault, every pattern).  Each group's golden lane must
replay that pattern's compiled golden run bit for bit or the whole pass
raises.  The same degradation ladder catches whole-batch trouble (any
engine exception re-runs the batch fault by fault) and fault classes
that cannot be lane-encoded at all -- protocol/ASM mutations, targets
without register/input support, and the schedule-changing stimulus
kinds (:data:`~repro.fault.models.STIM_LADDER_KINDS`) -- which never
enter a batch.
"""

from __future__ import annotations

import time
from typing import List, Optional

from ..core.rtl_testbench import LaneVec, RtlHost
from ..core.sysc_model import ReadResult
from ..rtl.hdl import HdlError
from .campaign import RTL_SILENT, judge, log_signature, merge_pattern_verdicts
from .models import STIM_KINDS, Fault, RtlBitFlip, RtlStuckAt, StimulusMutation
from .rtl_inject import RtlFaultInjector, resolve_state_bit
from .stim_inject import StimulusApplicator, full_byte_enables

__all__ = ["ppsfp_compatible", "run_ppsfp_batches"]


def ppsfp_compatible(design, fault: Fault) -> bool:
    """True when ``fault`` can be lane-encoded: an RTL stuck-at/SEU whose
    target resolves to a register/input bit, or a datapath-field
    stimulus mutation (:data:`~repro.fault.models.STIM_KINDS`).
    Everything else (protocol and ASM mutations, schedule-changing
    stimulus kinds, targets without pure-wiring state support) takes the
    per-fault path."""
    if isinstance(fault, StimulusMutation):
        return fault.kind in STIM_KINDS
    if not isinstance(fault, (RtlStuckAt, RtlBitFlip)):
        return False
    try:
        resolve_state_bit(design, fault.path, fault.bit)
    except HdlError:
        return False
    return True


class _LaneProbeHost(RtlHost):
    """The campaign host over a bitpar simulator, group-aware.

    Control flow (issue decisions, collection timing) follows lane 0
    because :meth:`_stat` returns lane-0 values.  Each poll also
    compares every used lane's status word against the broadcast lane-0
    value and accumulates divergent lanes into ``invalid_lanes``: for
    the remaining (valid) lanes, the stimulus this host drove is
    bit-identical to a dedicated per-fault run of that lane's pattern,
    so their lane words ARE the dedicated run's values.  Bus samples
    keep the raw lane words; ``log_diff`` accumulates, per lane, whether
    any collected beat or parity bit differed from the lane's *group
    golden*; each group's golden lane additionally gets its transaction
    log assembled (``group_log``) for the whole-pass validity check.
    """

    def __init__(self, sim, config, top_name: str = "la1_top",
                 groups: Optional[List[tuple]] = None):
        super().__init__(sim, config, top_name)
        self.invalid_lanes = 0
        self.log_diff = 0
        self._M = sim.lane_mask
        #: [(golden_lane, group_lane_mask)] -- default: the PR 6 layout,
        #: one group spanning the whole word with lane 0 golden
        if groups is None:
            groups = [(0, sim.lane_mask)]
        self._groups = groups
        self._used = 0
        for __, gmask in groups:
            self._used |= gmask
        self._group_results: List[list] = [[] for __ in groups]
        # group 0's golden is lane 0: its assembled log doubles as the
        # host's scalar transaction log (campaign.log_signature)
        self.results = self._group_results[0]
        bit_slots = sim._bitpar.bit_slots
        self._stat_slots = {
            key: bit_slots[path]
            for key, path in self._stat_paths.items()
        }
        self._data_slots = bit_slots[self._data_bus]
        self._par_slots = bit_slots[self._par_bus]

    def group_log(self, index: int) -> tuple:
        """The assembled transaction-log signature of group ``index``
        (golden-comparable shape)."""
        return log_signature(self._group_results[index])

    def _stat(self, bank: int, name: str) -> int:
        v = self.sim._settled()
        M = self._M
        used = self._used
        value = 0
        invalid = self.invalid_lanes
        for b, slot in enumerate(self._stat_slots[bank, name]):
            word = v[slot]
            bit0 = word & 1
            invalid |= (word ^ (M if bit0 else 0)) & used
            value |= bit0 << b
        self.invalid_lanes = invalid
        return value

    def _sample_bus(self) -> list:
        v = self.sim._settled()
        return [[v[slot] for slot in self._data_slots],
                [v[slot] for slot in self._par_slots]]

    def _finish_read(self, bank: int, addr, issued: int,
                     sample0: list, sample1: list) -> None:
        diff = self.log_diff
        M = self._M
        groups = self._groups
        assembled = [[] for __ in groups]
        for words in (*sample0, *sample1):
            for gi, (golden, gmask) in enumerate(groups):
                value = 0
                for b, word in enumerate(words):
                    bit = (word >> golden) & 1
                    diff |= (word ^ (M if bit else 0)) & gmask
                    value |= bit << b
                assembled[gi].append(value)
        self.log_diff = diff
        for gi, (golden, __gmask) in enumerate(groups):
            beat0, par0, beat1, par1 = assembled[gi]
            word = beat0 | (beat1 << self.config.beat_bits)
            addr_g = addr.lane(golden) if isinstance(addr, LaneVec) else addr
            self._group_results[gi].append(
                ReadResult(bank, addr_g, word, (beat0, beat1),
                           (par0, par1), issued, self.half_cycles)
            )


def _lane_field(values: List[int]):
    """A scalar when every lane agrees (cheap broadcast drive), else a
    :class:`LaneVec`."""
    first = values[0]
    for value in values:
        if value != first:
            return LaneVec(values)
    return first


def _spread(group_values: List[int], lanes: int, group_size: int) -> List[int]:
    """Tile per-group values onto the full lane word: every lane of
    group *g* carries ``group_values[g]``; lanes beyond the last group
    replay group 0 (= lane 0's golden stream, so padding never perturbs
    the status-divergence accounting)."""
    out = [group_values[0]] * lanes
    for g, value in enumerate(group_values):
        base = g * group_size
        for j in range(group_size):
            out[base + j] = value
    return out


def _queue_group_traffic(host, config, schedule, group_values,
                         stim_states, lanes: int, group_size: int) -> None:
    """Queue the pattern-group traffic: the shared command schedule,
    per-group addr/data, and each stimulus mutation applied on its lanes
    on top of the group's value."""
    G = len(group_values)
    full_bw = full_byte_enables(config)
    for t, (is_read, bank, __a, __w) in enumerate(schedule):
        if is_read:
            base = [group_values[g][t][0] for g in range(G)]
            addr_lanes = _spread(base, lanes, group_size)
            for k, __fault, state in stim_states:
                if state.on_read(bank) == "corrupt_read_address":
                    for g in range(G):
                        addr_lanes[g * group_size + 1 + k] = \
                            state.mutate_read_addr(base[g])
            host.read(bank, _lane_field(addr_lanes))
        else:
            base_addr = [group_values[g][t][0] for g in range(G)]
            base_word = [group_values[g][t][1] for g in range(G)]
            addr_lanes = _spread(base_addr, lanes, group_size)
            word_lanes = _spread(base_word, lanes, group_size)
            bw_lanes: Optional[List[int]] = None
            for k, __fault, state in stim_states:
                if state.on_write(bank) is None:
                    continue
                for g in range(G):
                    lane = g * group_size + 1 + k
                    addr, word, bw = state.mutate_write(
                        base_addr[g], base_word[g], full_bw)
                    addr_lanes[lane] = addr
                    word_lanes[lane] = word
                    if bw != full_bw:
                        if bw_lanes is None:
                            bw_lanes = [full_bw] * lanes
                        bw_lanes[lane] = bw
            host.write(
                bank, _lane_field(addr_lanes), _lane_field(word_lanes),
                full_bw if bw_lanes is None else _lane_field(bw_lanes),
            )


def _golden_pass(campaign, chunk: List[int], lanes: int) -> list:
    """The golden transaction logs of stimulus patterns ``chunk`` (at
    most ``lanes``) from one bitpar pass that drives pattern ``chunk[i]``
    on lane ``i`` with no fault injected (group size 1).  Raises when a
    monitor fires, a lane's status diverges from lane 0, or lane 0
    carrying pattern 0 does not replay the compiled scalar golden run
    bit for bit."""
    from ..core.traffic import schedule_values

    config = campaign.config
    la1 = config.la1()
    schedule = campaign._schedule()
    sim = campaign._ppsfp_simulator(lanes)
    sim.reset()
    groups = [(i, 1 << i) for i in range(len(chunk))]
    host = _LaneProbeHost(sim, la1, groups=groups)
    group_values = [schedule_values(la1, schedule, config.seed, p)
                    for p in chunk]
    _queue_group_traffic(host, la1, schedule, group_values, [], lanes, 1)
    host.run_cycles(config.rtl_cycles)
    if sim.failures:
        raise RuntimeError("PPSFP golden pass lane 0 raised a monitor")
    invalid = host.invalid_lanes | sim.conflict_lanes
    for i, p in enumerate(chunk):
        if ((invalid >> i) & 1) or sim.lane_failure_names(i):
            raise RuntimeError(
                f"PPSFP golden pass lane {i} (pattern {p}) "
                "diverged on a status or monitor net")
    logs = [host.group_log(i) for i in range(len(chunk))]
    if chunk[0] == 0 and logs[0] != campaign._rtl_golden_run(0):
        raise RuntimeError(
            "PPSFP golden pass lane 0 diverged from the compiled golden run")
    sim.note_pass_occupancy(len(chunk))
    return logs


def _pattern_goldens(campaign, pats: List[int], lanes: int) -> list:
    """Per-pattern golden transaction logs, computed lanes-at-a-time.

    A short session under many stimulus patterns would otherwise spend
    more wall-clock on per-pattern compiled golden runs than on the
    packed fault passes they validate.  Instead, one golden pass
    (:func:`_golden_pass`) yields the golden logs of ``lanes`` patterns
    at once.  The cross-backend anchor is kept -- lane 0 carries pattern
    0 and must replay the compiled scalar golden run bit-for-bit, and
    control invariance (LA-1 status nets depend only on the shared
    command schedule) extends that trust to the sibling lanes, whose
    monitors and status bits are still checked individually.  The logs
    live in the workload's :func:`~repro.fault.campaign.golden_logs`
    entry, stored only once their pass checked out.
    """
    goldens = campaign._goldens()
    todo = [p for p in range(campaign.config.patterns)
            if ("lanes", p) not in goldens]
    for start in range(0, len(todo), lanes):
        chunk = todo[start:start + lanes]
        for p, log in zip(chunk, _golden_pass(campaign, chunk, lanes)):
            goldens["lanes", p] = log
    return [goldens["lanes", p] for p in pats]


def groups_per_pass(group_size: int, lanes: int,
                    patterns_per_pass: Optional[int] = None) -> int:
    """How many stimulus-pattern groups of ``group_size`` lanes one pass
    tiles onto ``lanes`` (at least one; at most ``patterns_per_pass``)."""
    groups = max(1, lanes // group_size)
    if patterns_per_pass is not None:
        groups = max(1, min(groups, patterns_per_pass))
    return groups


def _run_batch(campaign, batch: List[Fault], lanes: int,
               patterns_per_pass: Optional[int] = None) -> tuple:
    """The dual-axis PPSFP sweep of one batch: verdicts for the
    lane-valid faults of ``batch`` (merged across all configured
    stimulus patterns) plus the list of faults that must fall back to
    per-fault runs."""
    from ..core.traffic import schedule_values
    from ..cover.functional import La1FunctionalCoverage

    config = campaign.config
    la1 = config.la1()
    group_size = len(batch) + 1
    patterns = config.patterns
    groups_max = groups_per_pass(group_size, lanes, patterns_per_pass)
    schedule = campaign._schedule()
    rtl_faults = [(k, f) for k, f in enumerate(batch)
                  if isinstance(f, (RtlStuckAt, RtlBitFlip))]
    stim_faults = [(k, f) for k, f in enumerate(batch)
                   if isinstance(f, StimulusMutation)]
    per_pattern: dict = {f.fault_id: {} for f in batch}
    invalid_faults: set = set()

    for chunk in range(0, patterns, groups_max):
        pats = list(range(chunk, min(chunk + groups_max, patterns)))
        G = len(pats)
        # golden logs first (memoised per workload): a pass
        # can only be validated against them.  Single-pattern campaigns
        # diff directly against the compiled scalar golden; multi-pattern
        # sessions amortise the goldens through a bitpar golden pass
        # anchored to the scalar run at lane 0.
        if patterns == 1:
            goldens = [campaign._rtl_golden_run(0)]
        else:
            goldens = _pattern_goldens(campaign, pats, lanes)
        sim = campaign._ppsfp_simulator(lanes)
        sim.reset()
        injector = None
        if rtl_faults:
            injector = RtlFaultInjector(
                sim, [f for __, f in rtl_faults],
                lane_map=[
                    [g * group_size + 1 + k for g in range(G)]
                    for k, __ in rtl_faults
                ],
            )
            injector.attach()
        stim_states = [(k, f, StimulusApplicator(f, la1))
                       for k, f in stim_faults]
        try:
            groups = [
                (g * group_size,
                 ((1 << group_size) - 1) << (g * group_size))
                for g in range(G)
            ]
            host = _LaneProbeHost(sim, la1, groups=groups)
            functional = La1FunctionalCoverage(host)
            group_values = [schedule_values(la1, schedule, config.seed, p)
                            for p in pats]
            _queue_group_traffic(host, la1, schedule, group_values,
                                 stim_states, lanes, group_size)
            functional.detach()
            host.run_cycles(config.rtl_cycles)
        finally:
            if injector is not None:
                injector.detach()
        if sim.failures:
            # lane 0 is the pattern-0 golden; a monitor record means
            # nothing in this pass can be trusted
            raise RuntimeError("PPSFP lane 0 diverged from the golden run")
        invalid = host.invalid_lanes | sim.conflict_lanes
        for gi, (golden_lane, __gmask) in enumerate(groups):
            if golden_lane and (((invalid >> golden_lane) & 1)
                                or sim.lane_failure_names(golden_lane)):
                raise RuntimeError(
                    f"PPSFP golden lane {golden_lane} diverged from lane 0"
                )
            if host.group_log(gi) != goldens[gi]:
                raise RuntimeError(
                    f"PPSFP group {gi} golden diverged from the golden run"
                )
        sim.note_pass_occupancy(G * group_size)
        # one harvest per pass: functional coverage samples only
        # (kind, bank) at queue time, so the key set is identical for
        # every fault, group and pattern -- and identical to what each
        # per-fault run would have harvested
        pass_points = functional.harvest().covered_keys()
        stim_by_k = {k: state for k, __, state in stim_states}
        for gi, pattern in enumerate(pats):
            base_lane = gi * group_size
            for k, fault in enumerate(batch):
                if fault.fault_id in invalid_faults:
                    continue
                lane = base_lane + 1 + k
                detected_by = sim.lane_failure_names(lane)
                state = stim_by_k.get(k)
                # a monitor firing on a stimulus lane (legal traffic)
                # would be new information: defer it to the per-fault path
                if (invalid >> lane) & 1 or (state is not None and detected_by):
                    invalid_faults.add(fault.fault_id)
                    continue
                triggered = (injector.lane_triggered(lane) if state is None
                             else state.triggered)
                diverged = (host.log_diff >> lane) & 1
                per_pattern[fault.fault_id][pattern] = judge(
                    fault, detected_by, triggered, diverged, RTL_SILENT,
                    pass_points)

    verdicts = {}
    fallbacks: List[Fault] = []
    for fault in batch:
        recorded = per_pattern[fault.fault_id]
        if fault.fault_id in invalid_faults or len(recorded) != patterns:
            fallbacks.append(fault)
            continue
        ordered = [recorded[p] for p in range(patterns)]
        verdicts[fault.fault_id] = (
            merge_pattern_verdicts(fault, ordered)
            if patterns > 1 else ordered[0]
        )
    return verdicts, fallbacks


def run_ppsfp_batches(campaign, faults: List[Fault], lanes: int,
                      patterns_per_pass: Optional[int] = None) -> list:
    """Verdicts for one PPSFP batch, in order.

    ``faults`` are at most ``lanes - 1`` :func:`ppsfp_compatible` faults
    (the batch :meth:`FaultCampaign.execute_faults` planned).  Lanes
    that cannot be trusted (control divergence, bus conflict) and the
    whole batch when its pass raises are re-run through
    :meth:`FaultCampaign.execute_fault`, so every verdict is
    bit-identical to a per-fault sweep regardless of lane count, batch
    boundaries or pattern tiling.  ``patterns_per_pass`` caps how many
    stimulus-pattern groups one pass tiles (None auto-fits the lane
    budget; 1 reproduces the single-pattern-per-pass layout).
    """
    batch_start = time.perf_counter()
    try:
        # the campaign routes by workload kind (LA-1 transaction host vs
        # open-loop DSL stimulus); this module's _run_batch is the LA-1
        # arm
        verdicts, fallbacks = campaign._ppsfp_batch(
            faults, lanes, patterns_per_pass)
    except Exception:
        # degradation ladder: anything wrong with the pass itself (not a
        # fault outcome) re-runs the whole batch per-fault
        verdicts, fallbacks = {}, list(faults)
    if verdicts:
        share = (time.perf_counter() - batch_start) / len(faults)
        for verdict in verdicts.values():
            verdict.cpu_time = share
    for fault in fallbacks:
        verdicts[fault.fault_id] = campaign.execute_fault(fault)
    return [verdicts[f.fault_id] for f in faults]
