"""Fault-model guarantees: backend-identical RTL injection, stable
fault identities, validation, and seeded campaign reproducibility."""

import pytest

from repro.core.ovl_bindings import build_la1_top_with_ovl
from repro.core.rtl_model import la1_netlist
from repro.core.rtl_testbench import RtlHost
from repro.core.spec import La1Config
from repro.fault import (
    AsmPerturbation,
    CampaignConfig,
    FaultCampaign,
    ProtocolMutation,
    RtlBitFlip,
    RtlFaultInjector,
    RtlStuckAt,
    build_perturbed_la1_asm,
)
from repro.core.asm_model import La1AsmConfig, build_la1_asm
from repro.rtl import RtlSimulator, elaborate
from repro.rtl.hdl import HdlError

LA1 = La1Config(banks=2, beat_bits=16, addr_bits=4)

RTL_FAULTS = [
    RtlStuckAt("la1_top.bank0.read_port.st_out0", 0, 0),
    RtlStuckAt("la1_top.bank1.read_port.st_out1", 0, 0),
    RtlStuckAt("la1_top.bank0.read_port.st_fetch", 0, 1),
    RtlBitFlip("la1_top.bank0.read_port.word_reg", 3, at_edge=11),
    RtlBitFlip("la1_top.bank0.sram.mem", 67, at_edge=4),
    # a stuck-at holds when the checkers sample: forced at the register
    # commit (a checker's own fire register) and over every input drive
    RtlStuckAt("la1_top.ovl_read_latency_0.fire_reg", 0, 1),
    RtlStuckAt("la1_top.w_sel", 0, 1),
]
STEP_FAULTS = RTL_FAULTS[-2:]


def _drive(sim: RtlSimulator, fault) -> tuple:
    """One deterministic faulty run; returns every observable output."""
    sim.reset()
    injector = RtlFaultInjector(sim, [fault])
    injector.attach()
    host = RtlHost(sim, LA1)
    for i in range(8):
        host.write(i % 2, i, 0x1111 * (i + 1))
    for i in range(8):
        host.read(i % 2, i)
    host.run_cycles(80)
    injector.detach()
    return (
        tuple(sim._v),
        tuple((r.name, r.time, r.edge) for r in sim.firings),
        tuple((r.bank, r.addr, r.word, tuple(r.beats), tuple(r.parities))
              for r in host.results),
        injector.triggered,
    )


def _recorded_drive(sim: RtlSimulator, fault) -> tuple:
    """:func:`_drive` on ``sim``, also returning its input drives and
    edges in order, each edge with the register values after it."""
    events = []
    set_input, step = sim.set_input, sim.step

    def record_input(path, value):
        events.append(("in", path, value))
        set_input(path, value)

    def record_step(edge):
        step(edge)
        events.append(("step", edge, {
            reg.path: sim.read(reg.path) for reg in sim.design.regs}))

    sim.set_input, sim.step = record_input, record_step
    return _drive(sim, fault), events


class TestDifferentialBackends:
    """Every fault model must be bit-identical on both simulator
    backends -- the injector works through the shared slot array, so a
    divergence would mean the compiled backend miscompiled something."""

    @pytest.fixture(scope="class")
    def design(self):
        return elaborate(build_la1_top_with_ovl(LA1))

    @pytest.mark.parametrize(
        "fault", RTL_FAULTS, ids=[f.fault_id for f in RTL_FAULTS])
    def test_interp_vs_compiled(self, design, fault):
        interp = _drive(RtlSimulator(design, backend="interp"), fault)
        compiled = _drive(RtlSimulator(design, backend="compiled"), fault)
        assert interp[0] == compiled[0], "final state diverged"
        assert interp[1] == compiled[1], "monitor firings diverged"
        assert interp[2] == compiled[2], "transaction logs diverged"
        assert interp[3] == compiled[3]

    @pytest.mark.parametrize(
        "fault", STEP_FAULTS, ids=[f.fault_id for f in STEP_FAULTS])
    def test_bitpar_lane_vs_compiled(self, design, fault):
        """The compiled faulty run, replayed drive for drive on bitpar
        with the fault on lane 2 only: that lane holds the compiled
        registers after every edge and fails the same checkers."""
        compiled_sim = RtlSimulator(design, backend="compiled")
        compiled, events = _recorded_drive(compiled_sim, fault)
        sim = RtlSimulator(design, backend="bitpar", lanes=4)
        injector = RtlFaultInjector(sim, [fault], lane_map=[2])
        injector.attach()
        for kind, name, value in events:
            if kind == "in":
                sim.set_input(name, value)
                continue
            sim.step(name)
            assert {path: sim.read_lane(path, 2) for path in value} == value
        injector.detach()
        assert sim.lane_failure_names(2) \
            == sorted({r.name for r in compiled_sim.failures})
        assert compiled[3] and injector.lane_triggered(2)
        assert not sim.lane_failure_names(0)


class TestStuckAtInTheStep:
    """A stuck-at is forced inside the step, before the settle the
    checkers sample, and over every input drive."""

    @pytest.mark.parametrize("lanes", [1, 64])
    def test_checkers_sample_the_stuck_value(self, lanes):
        report = FaultCampaign(CampaignConfig(banks=1, seed=2004)).run(
            faults=STEP_FAULTS, lanes=lanes)
        fire_reg, w_sel = report.verdicts
        # the checker's own fire register stuck at 1 fires the checker
        assert (fire_reg.outcome, fire_reg.detected_by) \
            == ("detected", ["la1_top.ovl_read_latency_0"])
        # the host's drive no longer overwrites a stuck write select
        assert w_sel.outcome == "silent"

    def test_both_polarities_on_one_bit_share_one_entry(self):
        la1 = CampaignConfig(banks=1).la1()
        sim = RtlSimulator(la1_netlist(la1, ovl=True), backend="bitpar",
                           lanes=4)
        path = "la1_top.bank0.read_port.word_reg"
        injector = RtlFaultInjector(
            sim, [RtlStuckAt(path, 2, 0), RtlStuckAt(path, 2, 1)],
            lane_map=[1, 2])
        assert len(injector._table) == 1
        injector.attach()
        sim.cycle(4)
        assert [(value >> 2) & 1 for value in sim.read_lanes(path)][1:3] \
            == [0, 1]
        injector.detach()
        assert injector.triggered_lanes == 0b100

    def test_one_settle_per_faulty_edge(self):
        la1 = CampaignConfig(banks=1).la1()
        sim = RtlSimulator(la1_netlist(la1, ovl=True), backend="bitpar",
                           lanes=64)
        injector = RtlFaultInjector(
            sim, [RtlStuckAt("la1_top.tk", 0, 0)], lane_map=[1])
        injector.attach()
        sim.cycle()
        before = sim.stats()["lane_passes"]
        sim.cycle(10)
        assert sim.stats()["lane_passes"] - before == 20
        injector.detach()
        assert injector.triggered_lanes == 0b10


class TestFaultValidation:
    def test_comb_net_target_rejected(self):
        sim = RtlSimulator(elaborate(build_la1_top_with_ovl(LA1)))
        # bank0_stat_data_valid at top level is a combinational wire: a
        # stuck-at there would be recomputed away by the next settle
        with pytest.raises(HdlError, match="reg/input"):
            RtlFaultInjector(
                sim, [RtlStuckAt("la1_top.bank0_stat_data_valid", 0, 1)])

    def test_force_on_a_comb_slot_rejected(self):
        design = elaborate(build_la1_top_with_ovl(LA1))
        sim = RtlSimulator(design)
        slot = design.net("la1_top.bank0_stat_data_valid").slot
        with pytest.raises(HdlError, match="no register or input"):
            sim.install_forces({slot: (0, 1)})

    def test_bit_out_of_range_rejected(self):
        sim = RtlSimulator(elaborate(build_la1_top_with_ovl(LA1)))
        with pytest.raises(HdlError, match="out of range"):
            RtlFaultInjector(
                sim, [RtlStuckAt("la1_top.bank0.read_port.st_out0", 5, 1)])

    def test_unknown_protocol_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            ProtocolMutation("melt_down", 0)

    def test_unknown_asm_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown ASM"):
            AsmPerturbation("melt_down", 0)

    def test_stuck_value_must_be_binary(self):
        with pytest.raises(ValueError):
            RtlStuckAt("x.y", 0, 2)

    def test_fault_ids_are_stable_and_distinct(self):
        a = RtlStuckAt("top.r", 3, 1)
        b = RtlStuckAt("top.r", 3, 0)
        assert a.fault_id == "rtl:stuck_at_1:top.r[3]"
        assert a.fault_id != b.fault_id
        assert ProtocolMutation("drop_beat0", 1, 2).fault_id \
            == "sysc:drop_beat0:bank1#2"
        assert AsmPerturbation("stall_read", 0).fault_id \
            == "asm:stall_read:bank0"

    def test_gap_probes_marked_undetectable(self):
        assert not ProtocolMutation("corrupt_address", 0).expect_detectable
        assert not ProtocolMutation("drop_command", 0).expect_detectable
        assert ProtocolMutation("drop_beat0", 0).expect_detectable


class TestAsmPerturbation:
    def test_perturbed_machine_is_fresh(self):
        config = La1AsmConfig(banks=2)
        baseline = build_la1_asm(config)
        perturbed = build_perturbed_la1_asm(
            config, AsmPerturbation("stall_read", 0))
        assert perturbed is not baseline
        assert "stall_read" in perturbed.name
        # the unperturbed machine still behaves: same rules, untouched
        assert [r.name for r in perturbed.rules] \
            == [r.name for r in baseline.rules]

    def test_bank_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            build_perturbed_la1_asm(
                La1AsmConfig(banks=1), AsmPerturbation("stall_read", 3))


class TestSeededReproducibility:
    def test_same_seed_same_report(self, tmp_path):
        """Two independent campaigns with one seed reach identical
        conclusions (the verdict signature ignores CPU times)."""
        first = FaultCampaign(CampaignConfig(seed=7)).run(resume=False)
        second = FaultCampaign(CampaignConfig(seed=7)).run(resume=False)
        assert first.signature() == second.signature()
        assert first.counts() == second.counts()

    def test_report_roundtrips_through_json(self):
        report = FaultCampaign(CampaignConfig()).run(resume=False)
        from repro.fault import CampaignReport

        clone = CampaignReport.from_dict(report.to_dict())
        assert clone.signature() == report.signature()
        assert clone.fingerprint == report.fingerprint
        assert clone.engine_stats == report.engine_stats
