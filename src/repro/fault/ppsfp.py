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
  (:class:`~repro.fault.models.StimulusMutation`, whose mutated fields
  :func:`_queue_group_traffic` packs into lane words once, through the
  applicator of :mod:`repro.fault.stim_inject`).
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

**Lane classes.**  A fault on control state -- the status registers the
host polls, the DDR phase tracker -- changes when its lane's host would
issue or collect, so one host cannot drive every lane.  As in concurrent
fault simulation (Ulrich and Baker, 1974), a pass keeps one host per
*lane class*: a set of lanes whose polled status has agreed so far.
Lane 0's class starts with every lane.  Before each host phase the pass
computes the lane words that phase decides on -- the OR of the
read-busy and of the write-busy status words before the K setup, each
bank's ``stat_data_valid`` after K and ``stat_data_valid2`` after K# --
and splits every class whose lanes disagree on one of them; the new
class copies the host state.  Each class is an
:class:`~repro.core.rtl_testbench.RtlHost` whose control follows its
lowest lane, so every lane sees exactly the stimulus its own per-fault
run would drive.  Classes buffer their input drives during a phase and
the pass merges them into lane words
(:meth:`~repro.rtl.simulator.RtlSimulator.set_input_words`) before the
one shared ``sim.step``: all classes share one bitpar settle per edge.
The k-th read a class collects is compared, lane by lane, with entry k
of the lane's group golden log -- bank, beats and parities, address-free
like :func:`~repro.fault.stim_inject.reduce_log_signature` -- and a
class that ends with another read count has diverged.

**Degradation ladder.**  Each group's golden lane must stay in lane 0's
class and replay its golden log, or the whole pass raises; any engine
exception does the same, and the batch re-runs fault by fault.  Two
kinds of lane leave their pass for the ordinary per-fault run (the whole
fault, every pattern): a lane that hit a tristate bus conflict, whose
scalar run raises into an ``error`` verdict, and a stimulus lane whose
monitor fires.  Fault classes that cannot be lane-encoded at all --
protocol/ASM mutations, targets without register/input support, and the
schedule-changing stimulus kinds
(:data:`~repro.fault.models.STIM_LADDER_KINDS`) -- never enter a batch.
"""

from __future__ import annotations

import time
from collections import deque
from typing import List, Optional

from ..core.rtl_testbench import RtlHost
from ..rtl.hdl import HdlError
from ..rtl.simulator import pack_lanes
from .campaign import RTL_SILENT, judge, merge_pattern_verdicts
from .models import STIM_KINDS, Fault, RtlBitFlip, RtlStuckAt, StimulusMutation
from .rtl_inject import RtlFaultInjector, resolve_state_bit
from .stim_inject import StimulusApplicator, full_byte_enables

__all__ = ["ppsfp_compatible", "run_ppsfp_batches"]

#: the status words each host phase decides on, OR-ed over the banks:
#: whether a read, and whether a write, may issue at the next K edge
_READ_BUSY = ("stat_read_req", "stat_read_fetch", "stat_data_valid",
              "stat_data_valid2")
_WRITE_BUSY = ("stat_write_sel", "stat_write_data")


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


class _LaneWords:
    """One transaction field whose value differs across lanes, packed
    once: ``words[b]`` is the lane word of bit *b*.  The host's field
    operators (beat and byte-enable slicing) act on the words, so a
    class drive only masks them onto its lanes."""

    __slots__ = ("words",)

    def __init__(self, words: list):
        self.words = words

    def __rshift__(self, n: int) -> "_LaneWords":
        return _LaneWords(self.words[n:])

    def __and__(self, mask: int) -> "_LaneWords":
        return _LaneWords([word if (mask >> b) & 1 else 0
                           for b, word in
                           enumerate(self.words[:mask.bit_length()])])

    def lane(self, index: int) -> int:
        value = 0
        for b, word in enumerate(self.words):
            value |= ((word >> index) & 1) << b
        return value


def _lane_field(values: List[int]):
    """A scalar when every lane agrees (a broadcast drive), else the
    values packed into :class:`_LaneWords`."""
    first = values[0]
    if all(value == first for value in values):
        return first
    return _LaneWords(pack_lanes(values))


class _ClassHost(RtlHost):
    """The host of one lane class, the lanes of ``mask``.

    It keeps its own queues, pending write, read watch and collected
    reads.  Its control follows its lowest lane: the busy checks and
    status polls read that lane's bit of the lane words its
    :class:`_LanePass` computed once for the phase.  Input drives wait
    in :attr:`drives` for the pass to merge, and each collected read
    keeps the raw bus lane words, ``(bank, addr, sample0, sample1)``."""

    def __init__(self, lane_pass: "_LanePass", mask: int):
        super().__init__(lane_pass.sim, lane_pass.config)
        self._pass = lane_pass
        self.mask = mask
        self.lane = (mask & -mask).bit_length() - 1
        self.drives: dict = {}

    def split(self, mask: int) -> "_ClassHost":
        """Move the lanes of ``mask`` (not this class's lowest lane)
        into a new class that starts from a copy of this host's state."""
        other = _ClassHost(self._pass, mask)
        other._reads = deque(self._reads)
        other._writes = deque(self._writes)
        other._pending_write = self._pending_write
        other._read_watch = deque(self._read_watch)
        other._collecting = self._collecting
        other.results = list(self.results)
        other.half_cycles = self.half_cycles
        self.mask &= ~mask
        return other

    def _in(self, name: str, value) -> None:
        self.drives[name] = value

    def _stat(self, bank: int, name: str) -> int:
        return (self._pass.status[bank, name] >> self.lane) & 1

    def _any_read_busy(self) -> bool:
        return bool((self._pass.read_busy >> self.lane) & 1
                    or self._read_watch)

    def _any_write_busy(self) -> bool:
        return (self._pending_write is not None
                or bool((self._pass.write_busy >> self.lane) & 1))

    def _sample_bus(self) -> list:
        v = self.sim._settled()
        return [[v[slot] for slot in slots] for slots in self._pass.bus_slots]

    def _finish_read(self, bank: int, addr, issued: int,
                     sample0: list, sample1: list) -> None:
        self.results.append((bank, addr, sample0, sample1))


class _LanePass:
    """One bitpar pass of the LA-1 workload over lane classes.

    ``groups`` lists each pattern group's ``(golden_lane, lane_mask)``.
    Queue the traffic on :attr:`host` (lane 0's class, which starts
    with every lane), then :meth:`run`.  With ``splits=False`` (the
    golden pass) a class that would split raises instead."""

    def __init__(self, sim, config, groups: List[tuple],
                 splits: bool = True):
        self.sim = sim
        self.config = config
        self.groups = groups
        self.splits = splits
        self.host = _ClassHost(self, sim.lane_mask)
        self.classes = [self.host]
        self.read_busy = 0
        self.write_busy = 0
        #: (bank, status name) -> its lane word after the current edge
        self.status: dict = {}
        bit_slots = sim._bitpar.bit_slots
        paths = self.host._stat_paths

        def slots(names):
            return [slot for bank in range(config.banks) for name in names
                    for slot in bit_slots[paths[bank, name]]]

        self._busy_slots = (slots(_READ_BUSY), slots(_WRITE_BUSY))
        self._valid_slots = {
            name: [(bank, bit_slots[paths[bank, name]])
                   for bank in range(config.banks)]
            for name in ("stat_data_valid", "stat_data_valid2")
        }
        #: the data and parity bus bit slots a collecting class samples
        self.bus_slots = (bit_slots[self.host._data_bus],
                          bit_slots[self.host._par_bus])

    def run(self, cycles: int) -> None:
        """Run ``cycles`` clock periods: each class through the four
        phases of :meth:`RtlHost.cycle`, refined before each phase on
        the words it decides on, one shared step per edge."""
        sim = self.sim
        classes = self.classes
        read_slots, write_slots = self._busy_slots
        for __ in range(cycles):
            v = sim._settled()
            read_busy = write_busy = 0
            for slot in read_slots:
                read_busy |= v[slot]
            for slot in write_slots:
                write_busy |= v[slot]
            self.read_busy, self.write_busy = read_busy, write_busy
            self._refine((read_busy, write_busy))
            for host in classes:
                host.setup_k()
            self._drive()
            sim.step("K")
            self._refine(self._poll("stat_data_valid"))
            for host in classes:
                host.observe_k()
                host.setup_k_sharp()
            self._drive()
            sim.step("K#")
            self._refine(self._poll("stat_data_valid2"))
            for host in classes:
                host.observe_k_sharp()

    def _poll(self, name: str) -> list:
        """Fill :attr:`status` with every bank's ``name`` lane word."""
        v = self.sim._settled()
        words = []
        for bank, slots in self._valid_slots[name]:
            word = 0
            for slot in slots:
                word |= v[slot]
            self.status[bank, name] = word
            words.append(word)
        return words

    def _refine(self, words) -> None:
        """Split every class whose lanes disagree on one of ``words``."""
        full = self.sim.lane_mask
        words = [word for word in words if word and word != full]
        if not words:
            return
        for host in list(self.classes):
            mask = host.mask
            if all(not word & mask or word & mask == mask
                   for word in words):
                continue
            if not self.splits:
                raise RuntimeError(
                    "PPSFP golden pass lanes diverged on a status net")
            parts = [mask]
            for word in words:
                parts = [part for whole in parts
                         for part in (whole & word, whole & ~word) if part]
            for part in parts:
                if not (part >> host.lane) & 1:
                    self.classes.append(host.split(part))

    def _drive(self) -> None:
        """Merge the classes' buffered drives into one masked lane-word
        drive per input."""
        full = self.sim.lane_mask
        merged: dict = {}
        for host in self.classes:
            drives = host.drives
            if not drives:
                continue
            mask = host.mask
            for name, value in drives.items():
                entry = merged.get(name)
                if entry is None:
                    entry = merged[name] = [0, []]
                entry[0] |= mask
                bits = entry[1]
                words = (value.words if isinstance(value, _LaneWords)
                         else [full if (value >> b) & 1 else 0
                               for b in range(value.bit_length())])
                for b, word in enumerate(words):
                    if b == len(bits):
                        bits.append(0)
                    bits[b] |= word & mask
            drives.clear()
        paths = self.host._in_paths
        for name, (mask, bits) in merged.items():
            self.sim.set_input_words(paths[name], bits, mask)

    def log_diff(self, goldens: list) -> int:
        """Lane word of the group lanes whose reads differ from their
        group's golden log ``goldens[g]``: another bank, beat or parity
        at some read, or another read count."""
        expected: dict = {}
        diff = used = 0
        for __, gmask in self.groups:
            used |= gmask
        for host in self.classes:
            mask = host.mask
            results = host.results
            same_count = 0
            for (__, gmask), log in zip(self.groups, goldens):
                if len(log) == len(results):
                    same_count |= gmask
            diff |= mask & ~same_count
            for k, (bank, __addr, sample0, sample1) in enumerate(results):
                if k not in expected:
                    expected[k] = self._expected(goldens, k)
                banks, words = expected[k]
                diff |= mask & ~banks.get(bank, 0)
                for got, want in zip((*sample0, *sample1), words):
                    for word, exp in zip(got, want):
                        diff |= (word ^ exp) & mask
        return diff & used

    def _expected(self, goldens: list, k: int) -> tuple:
        """Golden read ``k`` over the groups: the lanes whose golden read
        ``k`` went to each bank, and the lane words its data and parity
        bus samples carry in the golden machine."""
        widths = [len(slots) for slots in self.bus_slots] * 2
        words = [[0] * width for width in widths]
        banks: dict = {}
        for (__, gmask), log in zip(self.groups, goldens):
            if k >= len(log):
                continue
            bank, __addr, __word, beats, parities = log[k]
            banks[bank] = banks.get(bank, 0) | gmask
            fields = (beats[0], parities[0], beats[1], parities[1])
            for field, value in zip(words, fields):
                for b in range(len(field)):
                    if (value >> b) & 1:
                        field[b] |= gmask
        return banks, words

    def lane_log(self, lane: int) -> tuple:
        """The transaction log ``lane`` collected, in
        :func:`~repro.fault.campaign.log_signature` shape."""
        host = next(h for h in self.classes if (h.mask >> lane) & 1)
        beat_bits = self.config.beat_bits
        log = []
        for bank, addr, sample0, sample1 in host.results:
            beat0, par0, beat1, par1 = (_LaneWords(words).lane(lane)
                                        for words in (*sample0, *sample1))
            if isinstance(addr, _LaneWords):
                addr = addr.lane(lane)
            log.append((bank, addr, beat0 | (beat1 << beat_bits),
                        (beat0, beat1), (par0, par1)))
        return tuple(log)


def _spread(group_values: List[int], lanes: int, group_size: int) -> List[int]:
    """Tile per-group values onto the full lane word: every lane of
    group *g* carries ``group_values[g]``; lanes beyond the last group
    replay group 0 (= lane 0's golden stream, so padding lanes never
    leave lane 0's class)."""
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
    monitor fires, a bus conflicts, the lanes' status splits a class, or
    lane 0 carrying pattern 0 does not replay the compiled scalar golden
    run bit for bit."""
    from ..core.traffic import schedule_values

    config = campaign.config
    la1 = config.la1()
    schedule = campaign._schedule()
    sim = campaign._ppsfp_simulator(lanes)
    sim.reset()
    lane_pass = _LanePass(sim, la1, [(i, 1 << i) for i in range(len(chunk))],
                          splits=False)
    group_values = [schedule_values(la1, schedule, config.seed, p)
                    for p in chunk]
    _queue_group_traffic(lane_pass.host, la1, schedule, group_values, [],
                         lanes, 1)
    lane_pass.run(config.rtl_cycles)
    if sim.failures:
        raise RuntimeError("PPSFP golden pass lane 0 raised a monitor")
    for i, p in enumerate(chunk):
        if (sim.conflict_lanes >> i) & 1 or sim.lane_failure_names(i):
            raise RuntimeError(
                f"PPSFP golden pass lane {i} (pattern {p}) "
                "diverged on a bus or monitor net")
    logs = [lane_pass.lane_log(i) for i in range(len(chunk))]
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
    command schedule) extends that trust to the sibling lanes: they must
    stay in lane 0's class, and their monitors and bus are checked
    individually.  The logs
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
    """The dual-axis PPSFP sweep of one batch: verdicts for the faults
    of ``batch`` its passes decide (merged across all configured
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
    fallback_ids: set = set()

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
        groups = [
            (g * group_size, ((1 << group_size) - 1) << (g * group_size))
            for g in range(G)
        ]
        try:
            lane_pass = _LanePass(sim, la1, groups)
            functional = La1FunctionalCoverage(lane_pass.host)
            group_values = [schedule_values(la1, schedule, config.seed, p)
                            for p in pats]
            _queue_group_traffic(lane_pass.host, la1, schedule, group_values,
                                 stim_states, lanes, group_size)
            functional.detach()
            lane_pass.run(config.rtl_cycles)
        finally:
            if injector is not None:
                injector.detach()
        if sim.failures:
            # lane 0 is the pattern-0 golden; a monitor record means
            # nothing in this pass can be trusted
            raise RuntimeError("PPSFP lane 0 diverged from the golden run")
        diverged = lane_pass.log_diff(goldens)
        conflicts = sim.conflict_lanes
        golden_class = lane_pass.host.mask
        for golden_lane, __gmask in groups:
            if (not (golden_class >> golden_lane) & 1
                    or ((diverged | conflicts) >> golden_lane) & 1
                    or sim.lane_failure_names(golden_lane)):
                raise RuntimeError(
                    f"PPSFP golden lane {golden_lane} diverged from its "
                    "golden run")
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
                if fault.fault_id in fallback_ids:
                    continue
                lane = base_lane + 1 + k
                detected_by = sim.lane_failure_names(lane)
                state = stim_by_k.get(k)
                # a bus conflict raises in the fault's own run (an
                # ``error`` verdict), and a monitor firing on a stimulus
                # lane (legal traffic) would be new information: both
                # take the per-fault path
                if (conflicts >> lane) & 1 or (state is not None
                                                and detected_by):
                    fallback_ids.add(fault.fault_id)
                    continue
                triggered = (injector.lane_triggered(lane) if state is None
                             else state.triggered)
                per_pattern[fault.fault_id][pattern] = judge(
                    fault, detected_by, triggered, (diverged >> lane) & 1,
                    RTL_SILENT, pass_points)

    verdicts = {}
    fallbacks: List[Fault] = []
    for fault in batch:
        recorded = per_pattern[fault.fault_id]
        if fault.fault_id in fallback_ids or len(recorded) != patterns:
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
    that hit a bus conflict, stimulus lanes whose monitor fires, and the
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
