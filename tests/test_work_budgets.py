"""A verdict is a function of the job spec, not of the host's speed.

Each engine stops only on budgets it counts itself: ASM states,
transitions and depth; BDD nodes and image steps; SAT ``max_k`` and
``max_depth``; RTL cycles.  So a run on a ``time.perf_counter`` that
runs 10**6 times fast -- a stand-in for a host that much slower --
decides exactly what the same run decides on the real clock.  Wall
clocks stay at the edge, between units of work
(``tests/test_mc.py::TestBudgetNaming::test_deadline``).
"""

import time

import pytest

from repro.core.properties import read_mode_suite
from repro.dsl.flow import run_dsl_flow
from repro.dsl.zoo import zoo_names
from repro.fault import (
    AsmPerturbation,
    CampaignConfig,
    FaultCampaign,
    default_fault_list,
)
from repro.mc import sweep_rtl_properties


@pytest.fixture
def fast_clock(monkeypatch):
    """Call to make ``time.perf_counter`` run 10**6 times fast."""
    real = time.perf_counter
    origin = real()

    def fast() -> float:
        return origin + (real() - origin) * 1e6

    return lambda: monkeypatch.setattr(time, "perf_counter", fast)


class TestCampaign:
    def test_asm_faults(self, fast_clock):
        faults = [f for f in default_fault_list(2)
                  if isinstance(f, AsmPerturbation)]
        assert len(faults) == 3

        def outcome():
            report = FaultCampaign(CampaignConfig(banks=2)).run(
                faults=faults, resume=False)
            return [(v.fault_id, v.outcome, v.detected_by, v.detail)
                    for v in report.verdicts]

        real = outcome()
        assert [o for __, o, __, __ in real] == ["detected"] * 3
        fast_clock()
        assert outcome() == real


class TestDslFlow:
    @pytest.mark.parametrize("design", zoo_names())
    def test_zoo_flow(self, design, fast_clock):
        # the flow as `python -m repro.dsl verify` runs it (SAT), and
        # its model-checking stage on the BDD engine
        def outcome():
            stages = run_dsl_flow(design).stages + run_dsl_flow(
                design, mc_engine="bdd", stages=["model_checking"]).stages
            return [(s.name, s.ok, s.detail) for s in stages]

        real = outcome()
        assert all(ok for __, ok, __ in real)
        fast_clock()
        assert outcome() == real


class TestSweep:
    @pytest.mark.parametrize("engine", ["bdd", "sat"])
    def test_read_mode_sweep(self, engine, fast_clock):
        def outcome():
            report = sweep_rtl_properties(1, read_mode_suite(1),
                                          engine=engine)
            return [(name, r.holds, r.truncated, r.bdd_stats.get("k"),
                     r.iterations) for name, r in report.results]

        real = outcome()
        assert all(holds is True for __, holds, *__ in real)
        fast_clock()
        assert outcome() == real
