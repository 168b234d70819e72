"""Lane classes: control-divergent faults stay on their PPSFP lanes.

A stuck-at on a status register the host polls changes when its lane's
host would issue or collect.  The lane pass keeps one host per class of
lanes whose polled status has agreed so far, so such a fault is decided
in its pass, with the verdict its own per-fault run gives.  Only a
pass that raises, a lane with a bus conflict and a stimulus lane whose
monitor fires take the per-fault run.
"""

import random

import pytest

from repro.core import La1Config, build_la1_top_with_ovl
from repro.fault import ppsfp
from repro.fault.campaign import CampaignConfig, FaultCampaign
from repro.fault.models import RtlStuckAt
from repro.fault.rtl_inject import RtlFaultInjector
from repro.rtl import RtlSimulator, elaborate
from repro.rtl.hdl import HdlError

SMALL = dict(traffic=8, rtl_cycles=80)


def _status_faults(banks):
    """Every stuck-at on the status registers the host polls and on the
    DDR phase tracker."""
    paths = ["la1_top.tk", "la1_top.tks"]
    for bank in range(banks):
        top = f"la1_top.bank{bank}"
        paths += [f"{top}.read_port.{reg}"
                  for reg in ("st_req", "st_fetch", "st_out0", "st_out1")]
        paths += [f"{top}.write_port.{reg}" for reg in ("st_sel", "st_data")]
    return [RtlStuckAt(path, 0, value) for path in paths for value in (0, 1)]


def _content(verdicts):
    out = []
    for verdict in verdicts:
        data = verdict.to_dict()
        data.pop("cpu_time", None)
        out.append(data)
    return out


def _spy_per_fault(monkeypatch):
    """The fault ids ``FaultCampaign.execute_fault`` is called with."""
    calls = []
    original = FaultCampaign.execute_fault

    def spy(self, fault):
        calls.append(fault.fault_id)
        return original(self, fault)

    monkeypatch.setattr(FaultCampaign, "execute_fault", spy)
    return calls


def _scalar(config, faults):
    campaign = FaultCampaign(config)
    return [campaign.execute_fault(f) for f in faults]


class TestControlFaultsStayOnLanes:
    @pytest.mark.parametrize("patterns", [1, 4])
    def test_decided_without_a_per_fault_run(self, monkeypatch, patterns):
        config = CampaignConfig(banks=2, patterns=patterns, **SMALL)
        faults = [
            RtlStuckAt("la1_top.bank0.read_port.st_req", 0, 0),
            RtlStuckAt("la1_top.bank1.write_port.st_sel", 0, 1),
            RtlStuckAt("la1_top.bank0.read_port.word_reg", 3, 1),
        ]
        reference = _scalar(config, faults)
        calls = _spy_per_fault(monkeypatch)
        splits = []
        original_split = ppsfp._ClassHost.split

        def split(host, mask):
            splits.append(mask)
            return original_split(host, mask)

        monkeypatch.setattr(ppsfp._ClassHost, "split", split)
        verdicts = ppsfp.run_ppsfp_batches(FaultCampaign(config), faults, 64)
        assert calls == []
        # both control faults left lane 0's class
        assert len(splits) >= 2
        assert _content(verdicts) == _content(reference)

    def test_golden_pass_refuses_a_split(self):
        # the golden pass shares the machinery; any split there raises
        la1 = CampaignConfig(banks=1, **SMALL).la1()
        sim = RtlSimulator(elaborate(build_la1_top_with_ovl(la1)),
                           backend="bitpar", lanes=4)
        injector = RtlFaultInjector(
            sim, [RtlStuckAt("la1_top.bank0.read_port.st_req", 0, 1)],
            lane_map=[1])
        injector.attach()
        lane_pass = ppsfp._LanePass(sim, la1, [(0, 1), (1, 2)],
                                    splits=False)
        lane_pass.host.read(0, 1)
        with pytest.raises(RuntimeError, match="golden pass"):
            lane_pass.run(8)


class TestLadder:
    def _misplaced_golden(self, monkeypatch, golden_lane):
        """Inject the first fault of every batch into ``golden_lane`` too."""
        original = ppsfp.RtlFaultInjector

        def injector(sim, faults, lane_map=None):
            lane_map = [list(lanes) for lanes in lane_map]
            lane_map[0].append(golden_lane)
            return original(sim, faults, lane_map=lane_map)

        monkeypatch.setattr(ppsfp, "RtlFaultInjector", injector)

    def test_golden_lane_out_of_lane0_class_raises(self, monkeypatch):
        # two faults: groups of 3 lanes, so 2 patterns share an 8-lane
        # pass and lane 3 is group 1's golden
        config = CampaignConfig(banks=1, patterns=2, **SMALL)
        faults = [RtlStuckAt("la1_top.bank0.read_port.st_req", 0, 0),
                  RtlStuckAt("la1_top.bank0.read_port.st_out1", 0, 0)]
        reference = _scalar(config, faults)
        self._misplaced_golden(monkeypatch, 3)
        with pytest.raises(RuntimeError, match="golden lane 3"):
            ppsfp._run_batch(FaultCampaign(config), faults, 8)
        calls = _spy_per_fault(monkeypatch)
        verdicts = ppsfp.run_ppsfp_batches(FaultCampaign(config), faults, 8)
        assert calls == [f.fault_id for f in faults]
        assert _content(verdicts) == _content(reference)

    def test_bus_conflict_lane_keeps_its_error_verdict(self, monkeypatch):
        # at this seed a stuck-at-1 on bank 0's st_req or st_out0 makes
        # two drivers enable the data bus
        config = CampaignConfig(banks=2, seed=2005, **SMALL)
        conflicting = [RtlStuckAt("la1_top.bank0.read_port.st_req", 0, 1),
                       RtlStuckAt("la1_top.bank0.read_port.st_out0", 0, 1)]
        faults = [conflicting[0],
                  RtlStuckAt("la1_top.bank1.read_port.st_req", 0, 1),
                  conflicting[1],
                  RtlStuckAt("la1_top.bank0.write_port.st_sel", 0, 1)]
        reference = _scalar(config, faults)
        assert [v.outcome for v in reference].count("error") == 2
        calls = _spy_per_fault(monkeypatch)
        verdicts = ppsfp.run_ppsfp_batches(FaultCampaign(config), faults, 64)
        assert calls == [f.fault_id for f in conflicting]
        assert _content(verdicts) == _content(reference)


class TestMaskedDrive:
    @pytest.fixture(scope="class")
    def design(self):
        return elaborate(build_la1_top_with_ovl(
            La1Config(banks=1, beat_bits=8, addr_bits=2)))

    def test_agrees_with_set_input_lanes(self, design):
        rng = random.Random(7)
        lanes = 16
        by_lanes = RtlSimulator(design, backend="bitpar", lanes=lanes)
        by_words = RtlSimulator(design, backend="bitpar", lanes=lanes)
        width = design.net("la1_top.wdata").width
        current = [0] * lanes
        for __ in range(6):
            mask = rng.getrandbits(lanes)
            values = [rng.getrandbits(width) for __ in range(lanes)]
            words = [sum(((value >> b) & 1) << lane
                         for lane, value in enumerate(values))
                     for b in range(width)]
            by_words.set_input_words("la1_top.wdata", words, mask)
            current = [values[i] if (mask >> i) & 1 else current[i]
                       for i in range(lanes)]
            by_lanes.set_input_lanes("la1_top.wdata", current)
            for sim in (by_lanes, by_words):
                sim.step("K")
            assert by_words.read_lanes("la1_top.wdata") == current
            assert by_words._v == by_lanes._v

    def test_refuses_what_set_input_refuses(self, design):
        sim = RtlSimulator(design, backend="bitpar", lanes=4)
        width = design.net("la1_top.addr").width
        with pytest.raises(HdlError, match="do not fit"):
            sim.set_input_words("la1_top.addr", [0] * width + [0b10], 0b10)
        # a word past the width outside the mask drives nothing
        sim.set_input_words("la1_top.addr", [0] * width + [0b10], 0b01)
        with pytest.raises(HdlError, match="not a free input"):
            sim.set_input_words("la1_top.data_bus", [1], 1)
        with pytest.raises(HdlError, match="bitpar"):
            RtlSimulator(design).set_input_words("la1_top.addr", [1], 1)


@pytest.fixture(scope="module")
def status_references():
    return {
        patterns: _content(FaultCampaign(CampaignConfig(
            banks=2, patterns=patterns, **SMALL)).run(
            faults=_status_faults(2), jobs=1, lanes=1).verdicts)
        for patterns in (1, 4)
    }


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("patterns", [1, 4])
@pytest.mark.parametrize("lanes", [1, 8, 64])
def test_status_faults_identical_across_shapes(status_references, lanes,
                                               patterns, jobs):
    report = FaultCampaign(CampaignConfig(
        banks=2, patterns=patterns, **SMALL)).run(
        faults=_status_faults(2), jobs=jobs, lanes=lanes)
    assert _content(report.verdicts) == status_references[patterns]
