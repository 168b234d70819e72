"""Throughput curves of dual-axis PPSFP fault batching (repro.fault.ppsfp).

A plain script (not a pytest benchmark) with four scenarios:

* **sweep** -- the PR6 fault-axis curve: the same datapath stuck-at
  campaign at ``--lanes 1, 8, 32, 64``, faults/sec and speedup over the
  lanes=1 per-fault compiled baseline.  The fault list is generated,
  not the shipped smoke list: one stuck-at per sampled bit of the
  per-bank datapath state (SRAM array words, fetched-word / beat /
  address / byte-enable registers), which is the PPSFP-friendly
  population -- datapath corruption rides the lanes without perturbing
  the control handshake, so every lane stays in lane 0's class.
  (Control-stage faults change the polled status bits; their lanes
  split into lane classes of their own, which the ``control`` scenario
  measures.)
* **short_session** -- the pattern axis: an 8-fault session (far below
  the 64-lane budget) under 64 stimulus patterns.  Half the faults are
  detected in their lanes (OVL-checker stuck-ats), half end silent
  (datapath stuck-ats), so the gain covers the detection path too.
  The pattern-serial baseline (``patterns_per_pass=1``) burns one
  bitpar pass per pattern with 55 of 64 lanes idle; auto pattern
  packing tiles 7 pattern groups per pass and must reach >= 2x the
  baseline faults/sec.  Every point starts cold (elaboration and
  codegen included), as in a fresh process.
* **stim** -- lane-encoded stimulus faults: a population of protocol
  stimulus mutations (``STIM_KINDS`` x banks x occurrences) run
  lane-encoded at lanes=64 against the per-fault lanes=1 path, gated
  at >= 4x.
* **control** -- every stuck-at on the control state the host polls:
  the read- and write-pipeline status registers (``read_port.st_*``,
  ``write_port.st_*``) and the DDR phase tracker (``tk``, ``tks``), at
  lanes=64 against lanes=1.  Each of these faults moves its lane's
  control, so the pass keeps its lanes in lane classes of their own
  (:mod:`repro.fault.ppsfp`), gated at >= 2x.  This scenario alone is
  timed warm: the design, its kernels and the golden runs are built
  before the timed window, because the 4-bank bitpar compile (about
  0.5 s) would otherwise swamp the 52-fault lane point.

The determinism contract is asserted on every run: within each
scenario every execution shape must produce the identical campaign
signature, recorded as the CRC-32 of its JSON form.  ``--smoke`` (CI) uses 2-bank models with small fault
lists; it checks determinism, not the speedup floors (CI runners are
too noisy to gate on wall-clock ratios).

Usage::

    python benchmarks/bench_ppsfp.py [--smoke] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import zlib

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.rtl_model import la1_netlist  # noqa: E402
from repro.fault.campaign import CampaignConfig, FaultCampaign  # noqa: E402
from repro.fault.models import STIM_KINDS, RtlStuckAt, StimulusMutation  # noqa: E402

#: ISSUE acceptance: lanes=64 faults/sec over the per-fault baseline
SPEEDUP_GATE = 8.0
#: ISSUE acceptance: auto pattern packing over the patterns_per_pass=1
#: baseline on a short (<= 16 fault) session
PACKED_GATE = 2.0
#: ISSUE acceptance: lane-encoded stimulus mutations over the per-fault
#: scalar path
STIM_GATE = 4.0
#: lane classes over the per-fault path on the control stuck-ats, warm
CONTROL_GATE = 2.0

#: per-bank datapath state sampled by the generated fault list:
#: (register tail, bits per bank).  SRAM bits are spread across the
#: array so different words (and both stuck values) are represented.
_DATAPATH = [
    ("sram.mem", 16),
    ("read_port.word_reg", 8),
    ("write_port.beat0_reg", 4),
    ("read_port.addr_reg", 2),
    ("write_port.addr_reg", 1),
    ("write_port.bw0_reg", 1),
]


def datapath_fault_list(banks: int, scale: int = 1):
    """Deterministic stuck-at list over the per-bank datapath state.

    ``scale`` multiplies the per-register sample counts (the full
    profile runs a big population so the one-time bitpar compile is
    amortised the way a real campaign would amortise it); counts are
    capped at the register width so every ``(path, bit, value)`` target
    stays distinct -- the stride 7 is coprime to every sampled width,
    so ``count <= width`` samples never revisit a bit.
    """
    faults = []
    for bank in range(banks):
        for tail, count in _DATAPATH:
            count = min(count * scale, _width(tail))
            path = f"la1_top.bank{bank}.{tail}"
            for k in range(count):
                bit = (bank + k * 7) % _width(tail)
                faults.append(RtlStuckAt(path, bit, (bank + k) % 2))
    return faults


def short_session_fault_list(banks: int, count: int):
    """``count`` faults that stay in the lanes, half of them detected.

    Even slots take datapath stuck-ats, which end ``silent``: parity is
    recomputed from the corrupted word.  Odd slots take a stuck-at-1 on
    a pipeline bit of one of the OVL checkers loaded into the design,
    cycling through checkers and banks.  That checker then fires
    spuriously, so the fault is ``detected`` by it, and the DUT's status
    nets never diverge.  Stuck-ats on the DUT's own read-pipeline
    stages are detected too, but they change the polled status; the
    ``control`` scenario covers them.
    """
    datapath = datapath_fault_list(banks)
    checkers = [
        RtlStuckAt(f"la1_top.ovl_{checker}_{bank}.pipe", bit, 1)
        for bank in range(banks)
        for checker, bit in (("read_latency", 0), ("fetch_to_beat", 0),
                             ("second_beat", 0), ("read_latency", 1))
    ]
    return [datapath[i // 2] if i % 2 == 0 else checkers[i // 2]
            for i in range(count)]


def stim_fault_list(banks: int, occurrences: int = 3):
    """Lane-encodable stimulus mutations: every kind on every bank at
    ``occurrences`` different points of the transaction stream."""
    return [
        StimulusMutation(kind, bank, occurrence)
        for bank in range(banks)
        for kind in STIM_KINDS
        for occurrence in range(1, occurrences + 1)
    ]


def control_fault_list(banks: int):
    """Both stuck-ats on every bit of the control state the host polls:
    each bank's read- and write-pipeline status registers and the DDR
    phase tracker, in netlist order."""
    design = la1_netlist(CampaignConfig(banks=banks).la1(), ovl=True)
    return [
        RtlStuckAt(reg.path, bit, value)
        for reg in design.regs
        if reg.path in ("la1_top.tk", "la1_top.tks")
        or ".read_port.st_" in reg.path or ".write_port.st_" in reg.path
        for bit in range(reg.width) for value in (0, 1)
    ]


def _width(tail: str) -> int:
    return {
        "sram.mem": 512,
        "read_port.word_reg": 32,
        "write_port.beat0_reg": 16,
        "read_port.addr_reg": 4,
        "write_port.addr_reg": 4,
        "write_port.bw0_reg": 2,
    }[tail]


def run_point(banks: int, traffic: int, faults, lanes: int,
              patterns: int = 1, patterns_per_pass=None,
              rtl_cycles: int = 160, cold: bool = True) -> dict:
    config = CampaignConfig(banks=banks, traffic=traffic,
                            rtl_cycles=rtl_cycles, patterns=patterns)
    if cold:
        # start as in a fresh process: campaigns share the memoised
        # design and its compiled kernels, which would let a later shape
        # skip the elaboration and codegen an earlier one paid
        la1_netlist.cache_clear()
    start = time.perf_counter()
    report = FaultCampaign(config).run(
        faults=list(faults), lanes=lanes,
        patterns_per_pass=patterns_per_pass)
    wall = time.perf_counter() - start
    point = {
        "lanes": lanes,
        "wall_s": round(wall, 3),
        "faults": len(report.verdicts),
        "faults_per_s": round(len(report.verdicts) / wall, 2),
        "signature": zlib.crc32(json.dumps(report.signature()).encode()),
        "counts": report.counts(),
    }
    if patterns != 1:
        point["patterns"] = patterns
    if patterns_per_pass is not None:
        point["patterns_per_pass"] = patterns_per_pass
    ppsfp = report.engine_stats.get("ppsfp", {}).get(str(lanes))
    if ppsfp:
        point["lane_passes"] = ppsfp["lane_passes"]
        point["words_evaluated"] = ppsfp["words_evaluated"]
        point["lane_utilization"] = ppsfp["lane_utilization"]
    return point


def sweep_scenario(smoke: bool) -> dict:
    banks = 2 if smoke else 4
    traffic = 24
    lanes_axis = [1, 64] if smoke else [1, 8, 32, 64]
    faults = datapath_fault_list(banks, scale=1 if smoke else 16)

    points = []
    for lanes in lanes_axis:
        print(f"sweep: banks={banks} faults={len(faults)} "
              f"lanes={lanes} ...", flush=True)
        point = run_point(banks, traffic, faults, lanes)
        print(f"  wall={point['wall_s']}s  "
              f"faults/s={point['faults_per_s']}")
        points.append(point)

    baseline = points[0]["faults_per_s"]
    for p in points[1:]:
        p["speedup"] = round(p["faults_per_s"] / baseline, 3)
    return {
        "banks": banks,
        "traffic": traffic,
        "fault_list": "datapath stuck-ats (generated)",
        "faults": len(faults),
        "deterministic": len({p["signature"] for p in points}) == 1,
        "speedup": points[-1].get("speedup"),
        "points": points,
    }


def short_session_scenario(smoke: bool) -> dict:
    banks = 2
    traffic = 24 if smoke else 96
    rtl_cycles = 160 if smoke else 640
    patterns = 4 if smoke else 64
    faults = short_session_fault_list(banks, 12 if smoke else 8)

    points = []
    for label, lanes, ppp in (
        ("per-fault", 1, None),
        ("lanes, pattern-serial", 64, 1),
        ("lanes, pattern-packed", 64, None),
    ):
        print(f"short session: faults={len(faults)} patterns={patterns} "
              f"lanes={lanes} patterns_per_pass={ppp} ...", flush=True)
        point = run_point(banks, traffic, faults, lanes,
                          patterns=patterns, patterns_per_pass=ppp,
                          rtl_cycles=rtl_cycles)
        point["shape"] = label
        print(f"  wall={point['wall_s']}s  "
              f"faults/s={point['faults_per_s']}  "
              f"util={point.get('lane_utilization', 'n/a')}")
        points.append(point)

    serial, packed = points[1], points[2]
    detected = points[0]["counts"]["detected"]
    return {
        "banks": banks,
        "traffic": traffic,
        "rtl_cycles": rtl_cycles,
        "patterns": patterns,
        "fault_list": "short-session datapath + OVL-checker stuck-ats",
        "faults": len(faults),
        "detected": detected,
        "deterministic": len({p["signature"] for p in points}) == 1,
        "packed_speedup": round(
            packed["faults_per_s"] / serial["faults_per_s"], 3),
        "points": points,
    }


def stim_scenario(smoke: bool) -> dict:
    banks = 2
    traffic = 24 if smoke else 96
    rtl_cycles = 160 if smoke else 640
    faults = stim_fault_list(banks, occurrences=1 if smoke else 12)

    points = []
    for label, lanes in (("per-fault", 1), ("lane-encoded", 64)):
        print(f"stim: faults={len(faults)} lanes={lanes} ...", flush=True)
        point = run_point(banks, traffic, faults, lanes,
                          rtl_cycles=rtl_cycles)
        point["shape"] = label
        print(f"  wall={point['wall_s']}s  "
              f"faults/s={point['faults_per_s']}")
        points.append(point)

    return {
        "banks": banks,
        "traffic": traffic,
        "rtl_cycles": rtl_cycles,
        "fault_list": "protocol stimulus mutations (STIM_KINDS)",
        "faults": len(faults),
        "deterministic": len({p["signature"] for p in points}) == 1,
        "stim_speedup": round(
            points[1]["faults_per_s"] / points[0]["faults_per_s"], 3),
        "points": points,
    }


def control_scenario(smoke: bool) -> dict:
    banks = 2 if smoke else 4
    traffic = 24
    faults = control_fault_list(banks)
    # warm up both shapes on two faults: the design, the compiled and
    # bitpar kernels and the golden runs are built before the timed
    # window, so the points time the faults, not the compile
    la1_netlist.cache_clear()
    for lanes in (1, 64):
        FaultCampaign(CampaignConfig(banks=banks, traffic=traffic)).run(
            faults=faults[:2], lanes=lanes)

    points = []
    for label, lanes in (("per-fault", 1), ("lane classes", 64)):
        print(f"control: banks={banks} faults={len(faults)} "
              f"lanes={lanes} ...", flush=True)
        point = run_point(banks, traffic, faults, lanes, cold=False)
        point["shape"] = label
        print(f"  wall={point['wall_s']}s  "
              f"faults/s={point['faults_per_s']}")
        points.append(point)

    return {
        "banks": banks,
        "traffic": traffic,
        "fault_list": "status-register and phase-tracker stuck-ats",
        "faults": len(faults),
        "deterministic": len({p["signature"] for p in points}) == 1,
        "control_speedup": round(
            points[1]["faults_per_s"] / points[0]["faults_per_s"], 3),
        "points": points,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--smoke", action="store_true",
                        help="CI shape: 2 banks, small fault lists, "
                             "determinism gates only (no speedup floors)")
    parser.add_argument("--json", dest="json_path",
                        default=os.path.join(os.path.dirname(__file__),
                                             "BENCH_ppsfp.json"))
    args = parser.parse_args(argv)

    sweep = sweep_scenario(args.smoke)
    short = short_session_scenario(args.smoke)
    stim = stim_scenario(args.smoke)
    control = control_scenario(args.smoke)

    deterministic = (sweep["deterministic"] and short["deterministic"]
                     and stim["deterministic"] and control["deterministic"])
    gates = {
        "deterministic": deterministic,
        "short_session_detected": short["detected"],
        "sweep_speedup": sweep["speedup"],
        "sweep_gate": None if args.smoke else SPEEDUP_GATE,
        "packed_speedup": short["packed_speedup"],
        "packed_gate": None if args.smoke else PACKED_GATE,
        "stim_speedup": stim["stim_speedup"],
        "stim_gate": None if args.smoke else STIM_GATE,
        "control_speedup": control["control_speedup"],
        "control_gate": None if args.smoke else CONTROL_GATE,
    }

    from bench_schema import write_bench

    write_bench(
        args.json_path, "ppsfp",
        config={"smoke": bool(args.smoke), "traffic": 24,
                "sweep_banks": sweep["banks"],
                "short_session_patterns": short["patterns"],
                "stim_faults": stim["faults"],
                "control_banks": control["banks"]},
        metrics={"sweep": sweep, "short_session": short, "stim": stim,
                 "control": control},
        gates=gates,
    )
    print(f"wrote {args.json_path} (deterministic={deterministic})")

    if not deterministic:
        print("FAIL: execution shapes disagree on a campaign signature",
              file=sys.stderr)
        return 1
    if not short["detected"]:
        print("FAIL: the short session detects none of its faults",
              file=sys.stderr)
        return 1
    if not args.smoke:
        failed = False
        for label, speedup, gate in (
            ("sweep lanes=64", sweep["speedup"], SPEEDUP_GATE),
            ("pattern packing", short["packed_speedup"], PACKED_GATE),
            ("lane-encoded stim", stim["stim_speedup"], STIM_GATE),
            ("control lane classes", control["control_speedup"],
             CONTROL_GATE),
        ):
            if speedup < gate:
                print(f"FAIL: {label} speedup x{speedup} below the "
                      f"x{gate} gate", file=sys.stderr)
                failed = True
            else:
                print(f"PASS: {label} speedup x{speedup} >= x{gate}")
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
