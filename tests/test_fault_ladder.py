"""The one verdict ladder every golden-diffing fault runner classifies
through (:func:`repro.fault.campaign.judge`): a table with one row per
rung, and the rung multiset of per-fault, lane and zoo sweeps pinned, so
no runner's outcome or detail string can drift from the others."""

from collections import Counter

import pytest

from repro.dsl.zoo import zoo_names
from repro.fault.campaign import (
    RTL_SILENT,
    SYSC_SILENT,
    ZOO_SILENT,
    CampaignConfig,
    FaultCampaign,
    default_fault_list,
    judge,
)
from repro.fault.models import (
    PROTOCOL_GAP_KINDS,
    PROTOCOL_KINDS,
    STIM_KINDS,
    STIM_LADDER_KINDS,
    ProtocolMutation,
    RtlBitFlip,
    RtlStuckAt,
    StimulusMutation,
)

STUCK = RtlStuckAt("la1_top.bank0.read_port.st_out0", 0, 0)
FLIP = RtlBitFlip("la1_top.bank0.sram.mem", 67, at_edge=4,
                  expect_detectable=False)
STIM = StimulusMutation("corrupt_write_data", 0)
PROTOCOL = ProtocolMutation("drop_beat0", 0)


class TestJudge:
    @pytest.mark.parametrize(
        "fault, detected_by, triggered, diverged, silent, outcome, detail", [
            (STUCK, ["ovl_a", "ovl_b"], True, True, RTL_SILENT,
             "detected", ""),
            (PROTOCOL, ["psl"], False, False, SYSC_SILENT, "detected", ""),
            (STUCK, [], False, True, RTL_SILENT,
             "masked", "fault never changed a state bit"),
            (FLIP, [], False, False, ZOO_SILENT,
             "masked", "fault never changed a state bit"),
            (STIM, [], False, True, RTL_SILENT,
             "masked", "mutation window never reached"),
            (PROTOCOL, [], False, True, SYSC_SILENT,
             "masked", "mutation window never reached"),
            (PROTOCOL, [], True, True, SYSC_SILENT, "silent",
             "transaction log diverged from golden run with no assertion "
             "firing"),
            (STIM, [], True, 1, RTL_SILENT, "silent",
             "transaction log diverged from golden run with no OVL "
             "checker firing"),
            (STUCK, [], True, 1, ZOO_SILENT, "silent",
             "output log diverged from golden run with no design monitor "
             "firing"),
            (FLIP, [], True, 0, RTL_SILENT,
             "masked", "no observable divergence"),
        ])
    def test_rung(self, fault, detected_by, triggered, diverged, silent,
                  outcome, detail):
        verdict = judge(fault, detected_by, triggered, diverged, silent,
                        coverage_points=["func.la1.cmd.read"])
        assert (verdict.outcome, verdict.detail) == (outcome, detail)
        assert verdict.detected_by == detected_by
        # coverage points are kept only on a detection
        assert verdict.coverage_points == (
            ["func.la1.cmd.read"] if detected_by else [])
        assert (verdict.fault_id, verdict.layer, verdict.kind) == (
            fault.fault_id, fault.layer, fault.kind)
        assert verdict.expected_detectable is fault.expect_detectable


# ----------------------------------------------------------------------
# the rung multisets, pinned as the runners produced them before they
# shared the ladder
# ----------------------------------------------------------------------
def _rungs(reports) -> Counter:
    return Counter((v.layer, v.outcome, v.detail)
                   for report in reports for v in report.verdicts)


RTL_DIVERGED = ("transaction log diverged from golden run with no OVL "
                "checker firing")

#: the 1-bank default list, every stimulus mutation on bank 0 at
#: occurrences 1 and 3, and every protocol mutation on bank 0 at an
#: occurrence an 8-transaction workload never reaches
LA1_RUNGS = Counter({
    ("asm", "detected", ""): 3,
    ("rtl", "detected", ""): 3,
    ("rtl", "silent", RTL_DIVERGED): 2,
    ("stim", "masked", "no observable divergence"): 9,
    ("stim", "silent", RTL_DIVERGED): 5,
    ("sysc", "detected", ""): 6,
    ("sysc", "masked", "mutation window never reached"): 6,
    ("sysc", "silent", "transaction log diverged from golden run with no "
     "assertion firing"): 2,
})

#: every zoo design's default fault list
ZOO_RUNGS = Counter({
    ("rtl", "detected", ""): 26,
    ("rtl", "masked", "fault never changed a state bit"): 1,
    ("rtl", "masked", "no observable divergence"): 7,
    ("rtl", "silent", "output log diverged from golden run with no "
     "design monitor firing"): 72,
})


def _la1_faults() -> list:
    faults = default_fault_list(1)
    faults += [StimulusMutation(kind, 0, occurrence)
               for kind in STIM_KINDS + STIM_LADDER_KINDS
               for occurrence in (1, 3)]
    faults += [ProtocolMutation(kind, 0, occurrence=50)
               for kind in PROTOCOL_KINDS + PROTOCOL_GAP_KINDS]
    return faults


class TestRungPins:
    @pytest.mark.parametrize("lanes", [1, 64])
    def test_la1_rungs(self, lanes):
        config = CampaignConfig(banks=1, traffic=8, rtl_cycles=80)
        report = FaultCampaign(config).run(_la1_faults(), lanes=lanes)
        assert _rungs([report]) == LA1_RUNGS

    @pytest.mark.parametrize("lanes", [1, 4])
    def test_zoo_rungs(self, lanes):
        reports = [
            FaultCampaign(CampaignConfig(design=name, backend="interp",
                                         rtl_cycles=24)).run(lanes=lanes)
            for name in zoo_names()
        ]
        assert _rungs(reports) == ZOO_RUNGS
