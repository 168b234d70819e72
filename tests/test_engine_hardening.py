"""Hardened-engine contracts: exception containment in the SystemC
kernel and wall-clock deadlines in the exploration and symbolic
checkers."""

import pytest

from repro.asm import AsmModelChecker, Explorer, ExplorationConfig
from repro.core.asm_model import La1AsmConfig, build_la1_asm
from repro.core.ovl_bindings import build_la1_top_with_ovl
from repro.core.properties import asm_labeling, device_property_suite
from repro.core.rulebase import check_read_mode_rtl
from repro.core.spec import La1Config
from repro.rtl import RtlSimulator, elaborate
from repro.sysc.kernel import (
    MethodProcess,
    SimulationError,
    Simulator,
    ThreadProcess,
    wait_time,
)


class TestKernelExceptionContainment:
    def test_thread_crash_becomes_diagnosed_simulation_error(self):
        sim = Simulator()

        def bomber():
            yield wait_time(5)
            raise ValueError("payload exploded")

        ThreadProcess(sim, "bomber", bomber)
        with pytest.raises(SimulationError) as err:
            sim.run(20)
        message = str(err.value)
        assert "bomber" in message
        assert "ValueError" in message
        assert "payload exploded" in message
        assert "time 5" in message
        assert sim.abort_reason is not None

    def test_method_crash_at_initialize_names_process(self):
        sim = Simulator()

        def broken():
            raise RuntimeError("bad init")

        MethodProcess(sim, "broken_method", broken)
        with pytest.raises(SimulationError, match="broken_method"):
            sim.initialize()

    def test_poisoned_kernel_refuses_to_continue(self):
        sim = Simulator()

        def bomber():
            yield wait_time(5)
            raise ValueError("boom")

        ThreadProcess(sim, "bomber", bomber)
        with pytest.raises(SimulationError):
            sim.run(20)
        # a half-executed delta has no consistent resume point: the
        # kernel must refuse instead of silently dropping activity
        with pytest.raises(SimulationError, match="aborted and cannot"):
            sim.run(1)
        with pytest.raises(SimulationError, match="aborted and cannot"):
            sim.initialize()

    def test_healthy_kernel_unaffected(self):
        sim = Simulator()
        ticks = []

        def ticker():
            while True:
                yield wait_time(2)
                ticks.append(sim.time)

        ThreadProcess(sim, "ticker", ticker)
        sim.run(10)
        assert ticks == [2, 4, 6, 8, 10]
        assert sim.abort_reason is None


class TestExplorationDeadlines:
    def test_deadline_truncates_exploration(self):
        machine = build_la1_asm(La1AsmConfig(banks=2))
        result = Explorer(machine, ExplorationConfig(deadline_s=0.0)).explore()
        assert result.truncated
        assert result.truncated_reason == "deadline"

    def test_bounds_truncation_keeps_its_own_reason(self):
        machine = build_la1_asm(La1AsmConfig(banks=2))
        result = Explorer(machine, ExplorationConfig(max_states=3)).explore()
        assert result.truncated
        assert result.truncated_reason == "bounds"

    def test_complete_run_has_empty_reason(self):
        machine = build_la1_asm(La1AsmConfig(banks=1))
        result = Explorer(machine).explore()
        assert not result.truncated
        assert result.truncated_reason == ""

    def test_checker_deadline_yields_unknown_not_hang(self):
        banks = 2
        machine = build_la1_asm(La1AsmConfig(banks=banks))
        checker = AsmModelChecker(
            machine, asm_labeling(banks),
            ExplorationConfig(deadline_s=0.0),
        )
        props = [p for __, p in device_property_suite(banks)]
        result = checker.check_combined(props, name="suite")
        assert result.holds is None
        assert result.truncated_reason == "deadline"


class TestSymbolicDeadlines:
    def test_deadline_truncates_symbolic_check(self):
        mc = check_read_mode_rtl(1, datapath=False, deadline_s=0.0)
        assert mc.truncated
        assert mc.holds is None
        assert isinstance(mc.bdd_stats, dict)

    def test_undeadlined_check_still_proves_and_reports_stats(self):
        mc = check_read_mode_rtl(1, datapath=False)
        assert mc.holds is True
        assert not mc.truncated
        assert "cache_hits" in mc.bdd_stats


class TestSimulatorInstrumentation:
    def test_remove_edge_hook_detaches(self):
        la1 = La1Config(banks=2, beat_bits=16, addr_bits=4)
        sim = RtlSimulator(elaborate(build_la1_top_with_ovl(la1)))
        calls = []
        hook = lambda edge, s: calls.append(edge)  # noqa: E731
        sim.add_edge_hook(hook)
        sim.step("K")
        assert calls == ["K"]
        sim.remove_edge_hook(hook)
        sim.remove_edge_hook(hook)  # second removal is a no-op
        sim.step("K#")
        assert calls == ["K"]

    def test_stats_reports_backend_and_run_accounting(self):
        la1 = La1Config(banks=2, beat_bits=16, addr_bits=4)
        for backend in ("interp", "compiled"):
            sim = RtlSimulator(
                elaborate(build_la1_top_with_ovl(la1)), backend=backend)
            sim.cycle(2)
            stats = sim.stats()
            assert stats["backend"] == backend
            assert stats["edges"] == sim.edge_count > 0
            assert {"failures", "firings", "regs", "nets"} <= set(stats)

    def test_stats_edges_accumulate_across_resets(self):
        # like lane_passes: edge_count restarts with each run, because
        # SEU injection and monitor records time by it
        design = elaborate(build_la1_top_with_ovl(
            La1Config(banks=1, beat_bits=8, addr_bits=2)))
        for backend in ("interp", "compiled", "bitpar"):
            sim = RtlSimulator(design, backend=backend, lanes=4)
            sim.cycle(2)
            sim.reset()
            sim.cycle(3)
            assert sim.edge_count == 6
            assert sim.stats()["edges"] == 10
