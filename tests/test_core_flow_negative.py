"""Negative-path tests: the Figure 2 feedback edges (a failing stage
stops the flow and carries diagnostics)."""


from repro.core import FlowConfig, run_flow
from repro.psl import builder as B


class TestFlowFeedbackEdges:
    def test_asm_failure_stops_flow(self, monkeypatch):
        """A wrong property fails at the ASM stage; later stages never
        run (the paper: 'when the verification terminates with an error,
        we update UML specification and re-capture')."""
        import repro.core.flow as flow_module

        def bad_suite(banks):
            wrong = B.always(
                B.implies(B.atom("read_req_0"),
                          B.next_(B.atom("data_valid_0"), 1))
            )
            return [("wrong_latency", wrong)]

        monkeypatch.setattr(flow_module, "device_property_suite", bad_suite)
        report = run_flow(FlowConfig(banks=1, traffic=5))
        assert not report.ok
        names = [s.name for s in report.stages]
        assert names[-1] == "asm_model_checking"
        assert "systemc_abv" not in names
        stage = report.stage("asm_model_checking")
        assert stage is not None and not stage.ok
        assert stage.data.counterexample is not None

    def test_uml_failure_stops_flow(self, monkeypatch):
        import repro.core.flow as flow_module
        from repro.uml import ClassDiagram

        def broken_classes():
            diagram = ClassDiagram("broken")
            diagram.new_class("Port")
            diagram.associate("Port", "Ghost")  # dangling target
            return diagram

        monkeypatch.setattr(flow_module, "la1_class_diagram",
                            broken_classes)
        report = run_flow(FlowConfig(banks=1, traffic=5))
        assert not report.ok
        assert [s.name for s in report.stages] == ["uml"]
        assert "Ghost" in report.stages[0].detail

    def test_conformance_failure_stops_flow(self, monkeypatch):
        import repro.core.flow as flow_module
        from repro.asm.conformance import ConformanceResult, Divergence

        def fake_conformance(*args, **kwargs):
            return ConformanceResult(
                False, 3, 9, 0.0,
                Divergence(["EdgeK"], {"rp0": ("req", 0)},
                           {"rp0": ("idle",)}),
            )

        monkeypatch.setattr(flow_module, "check_la1_conformance",
                            fake_conformance)
        report = run_flow(FlowConfig(banks=1, traffic=5))
        assert not report.ok
        assert report.stages[-1].name == "asm_to_systemc_conformance"
        assert "EdgeK" in report.stages[-1].detail

    def test_rtl_mc_explosion_stops_flow(self, monkeypatch):
        import repro.mc.sweep as sweep_module
        from repro.mc.checker import SymbolicCheckResult

        def exploded(*args, **kwargs):
            return SymbolicCheckResult(None, 1.0, 10, 0, 0, 1.0,
                                       exploded=True)

        # the one engine dispatch every property of the stage goes through
        monkeypatch.setattr(sweep_module, "check_property", exploded)
        report = run_flow(FlowConfig(banks=1, traffic=5))
        assert not report.ok
        assert report.stages[-1].name == "rtl_model_checking"
        assert "STATE EXPLOSION" in report.stages[-1].detail


class TestRuleBaseDriverEdges:
    def test_scale_config(self):
        from repro.core import MC_SCALE_CONFIG

        config = MC_SCALE_CONFIG(3)
        assert config.banks == 3
        assert config.beat_bits == 1 and config.addr_bits == 1

    def test_explosion_during_model_build(self):
        from repro.core import check_read_mode_rtl

        result = check_read_mode_rtl(1, transient_node_budget=50)
        assert result.exploded
        assert result.holds is None

    def test_custom_property(self):
        from repro.core import check_read_mode_rtl
        from repro.psl import parse_property

        result = check_read_mode_rtl(
            1, prop=parse_property("always (true)"), datapath=False)
        assert result.holds is True
