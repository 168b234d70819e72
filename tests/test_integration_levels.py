"""Cross-level integration tests: the same properties travel through the
whole flow -- extracted from UML diagrams, model checked on the ASM,
monitored on the SystemC model, and model checked + monitored on the RTL.
"""

from hypothesis import given, settings, strategies as st

from repro.abv import AssertionMonitor, summarize
from repro.asm import AsmModelChecker
from repro.core import (
    La1AsmConfig,
    La1Config,
    asm_labeling,
    build_la1_asm,
    build_la1_system,
    check_read_mode_rtl,
    device_property_suite,
    extracted_properties,
    la1_class_diagram,
    read_mode_sequence,
)
from repro.psl import Verdict, parse_property
from repro.uml import extract_latency_properties


def _read_mode_bindings(device, clocks, bank=0):
    """Bind the UML-extracted atom names to SystemC-level signals.

    The fetch stage spans two half-cycles; the diagram's ReadWord /
    FormatData messages are K-edge strobes, so those atoms gate the
    fetch status with the K level (true on post-K half-cycles)."""
    port = device.banks[bank].read_port

    def fetch_strobe():
        return port.stat_read_fetch.read() and clocks.k.read()

    return {
        "onreadrequest": port.stat_read_req,
        "readword": fetch_strobe,
        "formatdata": fetch_strobe,
        "receivebeat0": port.stat_data_valid,
        "receivebeat1": port.stat_data_valid2,
    }


class TestUmlPropertiesOnSimulation:
    """Figure 3's sequence diagram, extracted to PSL, holds of the
    executable SystemC model -- the UML level really specifies the
    implementation."""

    def _run(self, sabotage=False):
        from repro.core.monitors import EdgeSampler

        config = La1Config(banks=1, beat_bits=16, addr_bits=3)
        sim, clocks, device, host = build_la1_system(config)
        sampler = EdgeSampler(sim, clocks)
        bindings = _read_mode_bindings(device, clocks)
        diagram = read_mode_sequence(la1_class_diagram())
        monitors = []
        for name, prop in extract_latency_properties(diagram):
            monitor = AssertionMonitor(prop, name, bindings)
            monitor.attach(sim, sampler.sample)
            monitors.append(monitor)
        if sabotage:
            port = device.banks[0].read_port
            original = port._on_k
            state = {"skipped": False}

            def faulty():
                if port._stage == "fetch" and not state["skipped"]:
                    state["skipped"] = True
                    return
                original()

            for proc in sim._processes:
                if proc.name.endswith("read_port.on_k"):
                    proc.fn = faulty
        host.read(0, 1)
        host.write(0, 2, 0xABCD)
        host.read(0, 2)
        sim.run(200)
        return summarize(monitors).finish()

    def test_extracted_properties_hold_on_model(self):
        report = self._run()
        assert report.passed, report.render()
        assert len(report.monitors) == 4  # consecutive message pairs

    def test_extracted_properties_catch_sabotage(self):
        report = self._run(sabotage=True)
        assert not report.passed

    def test_extraction_covers_both_scenarios(self):
        props = extracted_properties()
        names = [name for name, __ in props]
        assert any("ReadMode" in n for n in names)
        assert any("WriteMode" in n for n in names)


class TestSamePropertyAllLevels:
    """The read-latency property (the same PSL text) is verified at the
    ASM level by exploration, at the SystemC level by simulation, and at
    the RTL level symbolically."""

    PROP_TEXT = "always (read_req_0 -> next[4] (data_valid_0))"

    def test_asm_level(self):
        machine = build_la1_asm(La1AsmConfig(banks=1))
        checker = AsmModelChecker(machine, asm_labeling(1))
        assert checker.check(parse_property(self.PROP_TEXT)).holds is True

    def test_systemc_level(self):
        config = La1Config(banks=1, beat_bits=16, addr_bits=3)
        sim, clocks, device, host = build_la1_system(config)
        from repro.core.monitors import EdgeSampler

        sampler = EdgeSampler(sim, clocks)
        port = device.banks[0].read_port
        monitor = AssertionMonitor(
            parse_property(self.PROP_TEXT), "latency",
            {"read_req_0": port.stat_read_req,
             "data_valid_0": port.stat_data_valid})
        monitor.attach(sim, sampler.sample)
        for addr in range(4):
            host.read(0, addr)
        sim.run(300)
        assert monitor.finish() is Verdict.HOLDS

    def test_rtl_level(self):
        result = check_read_mode_rtl(
            1, prop=parse_property(self.PROP_TEXT), datapath=False)
        assert result.holds is True


class TestCompiledMonitorEquivalence:
    """Compiled (automaton) and interpreted (progression) monitors must
    agree on every trace."""

    PROPERTIES = [
        "always (req -> next[2] (ack))",
        "never {req; !ack}",
        "always {req} |=> (ack)",
        "within![3] ack",
    ]

    @settings(max_examples=60)
    @given(st.sampled_from(range(4)),
           st.lists(st.fixed_dictionaries(
               {"req": st.booleans(), "ack": st.booleans()}),
               max_size=8))
    def test_equivalence(self, prop_index, trace):
        prop = parse_property(self.PROPERTIES[prop_index])
        values = iter([])

        class Feeder:
            current: dict = {}

        feeder = Feeder()
        compiled = AssertionMonitor(
            prop, "compiled",
            {"req": lambda: feeder.current["req"],
             "ack": lambda: feeder.current["ack"]},
            compiled=True)
        interpreted = AssertionMonitor(
            prop, "interpreted",
            {"req": lambda: feeder.current["req"],
             "ack": lambda: feeder.current["ack"]},
            compiled=False)
        assert compiled._checker is not None
        assert interpreted._checker is None
        # sample observers see every sample, decided or not, on both
        # paths (projected on the property's atoms: an interpreted
        # monitor also reports bound atoms the property does not read)
        observed = {"compiled": [], "interpreted": []}
        for monitor in (compiled, interpreted):
            monitor.sample_observers.append(
                lambda v, seen=observed[monitor.name]: seen.append(
                    {a: v[a] for a in prop.atoms()}))
        for valuation in trace:
            feeder.current = valuation
            compiled.sample()
            interpreted.sample()
        assert compiled.finish() == interpreted.finish()
        if compiled.verdict is Verdict.FAILS:
            assert compiled.monitor.failed_at == \
                interpreted.monitor.failed_at
        assert observed["compiled"] == observed["interpreted"]
        assert len(observed["compiled"]) == len(trace)


class TestSuitePortability:
    def test_property_atoms_match_labelings(self):
        """Every atom of the device suite is resolvable by both the ASM
        labeling and the RTL label map."""
        from repro.core import rtl_labels

        banks = 2
        labeling = asm_labeling(banks)
        labels = rtl_labels("la1_top", banks)
        machine = build_la1_asm(La1AsmConfig(banks=banks))
        machine.reset()
        state = dict(machine.snapshot())
        for name, prop in device_property_suite(banks):
            for atom in sorted(prop.atoms()):
                # ASM labeling evaluates without error
                value = labeling.valuation(state, [atom])[atom]
                assert value in (True, False)
                # RTL label exists
                assert atom in labels, (name, atom)
