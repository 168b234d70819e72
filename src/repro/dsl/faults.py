"""``repro.dsl.faults`` -- fault campaigns over elaborated DSL designs.

Zoo campaigns reuse the whole ``repro.fault`` machinery -- verdict
taxonomy, golden-run differencing, checkpoint/resume, PPSFP lane
batching, process-pool sharding -- with an open-loop workload: a seeded
per-cycle input-vector stream replaces the LA-1 transaction host, and
the per-cycle output-port log replaces the transaction log.  The
per-fault and golden runs are the campaign's own RTL run driving
:func:`zoo_log_run`, and the lane pass classifies through the same
verdict ladder (:func:`repro.fault.campaign.judge`), so reports merge
and signatures compare across design kinds."""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from ..fault.models import Fault, RtlBitFlip, RtlStuckAt
from ..fault.rtl_inject import RtlFaultInjector
from ..rtl.netlist import FlatDesign

__all__ = [
    "zoo_fault_list",
    "zoo_stimulus",
    "zoo_log_run",
    "run_zoo_batch",
]


def zoo_fault_list(flat: FlatDesign, include_flips: bool = True,
                   flip_edge: int = 5) -> List[Fault]:
    """Both stuck-at polarities on every register bit, plus one SEU per
    register (deterministic order: netlist register order)."""
    faults: List[Fault] = []
    for reg in flat.regs:
        for bit in range(reg.width):
            faults.append(RtlStuckAt(reg.path, bit, 0))
            faults.append(RtlStuckAt(reg.path, bit, 1))
        if include_flips:
            faults.append(RtlBitFlip(reg.path, 0, at_edge=flip_edge))
    return faults


def zoo_stimulus(flat: FlatDesign, seed: int, cycles: int
                 ) -> List[Dict[str, int]]:
    """The open-loop workload: one seeded input vector per cycle."""
    rng = random.Random(seed)
    inputs = [(net.path, net.width) for net in flat.inputs]
    return [
        {path: rng.getrandbits(width) for path, width in inputs}
        for __ in range(cycles)
    ]


def zoo_log_run(campaign, sim) -> Tuple:
    """Drive ``sim`` through the campaign's stimulus; the golden-
    comparable log is the per-cycle tuple of output-port values
    (sampled combinationally before each edge)."""
    stim = campaign._zoo_stimulus()
    outputs = campaign._design().top_outputs
    log = []
    for values in stim:
        for path, value in values.items():
            sim.set_input(path, value)
        log.append(tuple(sim.read(path) for path in outputs))
        sim.step("K")
    return tuple(log)


def run_zoo_batch(campaign, batch: List[Fault], lanes: int) -> tuple:
    """One PPSFP pass over a zoo design: fault *k* in lane ``k+1``,
    lane 0 golden.  Divergence is accumulated with the lane-word trick
    (XOR every lane word against the broadcast of lane 0); verdicts are
    bit-identical to the campaign's per-fault RTL run.  Returns
    ``(verdicts, fallbacks)`` like ``repro.fault.ppsfp._run_batch``."""
    from ..fault.campaign import ZOO_SILENT, judge

    golden = campaign._rtl_golden_run()
    sim = campaign._ppsfp_simulator(lanes)
    sim.reset()
    lane_map = list(range(1, len(batch) + 1))
    injector = RtlFaultInjector(sim, batch, lane_map=lane_map)
    injector.attach()
    all_lanes = (1 << lanes) - 1
    diverged = 0
    try:
        stim = campaign._zoo_stimulus()
        flat = campaign._design()
        outputs = [(path, flat.net(path).width)
                   for path in flat.top_outputs]
        for cycle, values in enumerate(stim):
            for path, value in values.items():
                sim.set_input(path, value)
            lane0 = []
            for path, width in outputs:
                value0 = 0
                for bit in range(width):
                    word = sim.lane_word(path, bit)
                    bit0 = word & 1
                    diverged |= word ^ (all_lanes if bit0 else 0)
                    value0 |= bit0 << bit
                lane0.append(value0)
            if tuple(lane0) != golden[cycle]:
                raise RuntimeError(
                    f"PPSFP golden lane diverged at cycle {cycle}")
            sim.step("K")
    finally:
        injector.detach()
    invalid = sim.conflict_lanes
    verdicts: dict = {}
    fallbacks: List[Fault] = []
    for index, fault in enumerate(batch):
        lane = lane_map[index]
        if (invalid >> lane) & 1:
            fallbacks.append(fault)
            continue
        verdicts[fault.fault_id] = judge(
            fault, sim.lane_failure_names(lane), injector.lane_triggered(lane),
            (diverged >> lane) & 1, ZOO_SILENT)
    return verdicts, fallbacks
