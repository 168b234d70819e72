"""The stage pipeline both verification flows share: the runner, the
ABV and OVL runs the LA-1 flow shares with ``repro.cover.la1``, flow
option validation, and the LA-1 flow behind the service's flow job."""

import time

import pytest

from repro.core.flow import FlowConfig, FlowReport, StageResult, run_flow, run_stages
from repro.cover import CoverageDB, collect_rtl_coverage, collect_sysc_coverage
from repro.serve.jobs import FlowJob

LA1_STAGES = [
    "uml", "asm_model_checking", "asm_to_systemc_conformance",
    "systemc_abv", "rtl_refinement", "static_lint", "rtl_model_checking",
    "rtl_ovl_simulation", "coverage",
]


class TestRunStages:
    def test_times_each_stage_and_keeps_its_data(self):
        first, second = object(), object()

        def slow():
            time.sleep(0.02)
            return True, "slept", first

        report = run_stages(FlowReport("fake"), [
            ("slow", slow),
            ("fast", lambda: (True, "done", second)),
        ])
        assert [s.name for s in report.stages] == ["slow", "fast"]
        assert all(isinstance(s, StageResult) for s in report.stages)
        assert report.stages[0].cpu_time >= 0.02
        assert report.stages[0].detail == "slept"
        assert report.stages[0].data is first
        assert report.stages[1].data is second
        assert report.ok

    def test_stops_after_the_first_failing_stage(self):
        ran = []

        def stage(name, ok):
            def fn():
                ran.append(name)
                return ok, f"{name} detail", name
            return name, fn

        report = run_stages(FlowReport("fake"), [
            stage("a", True), stage("b", False), stage("c", True)])
        assert ran == ["a", "b"]
        assert [(s.name, s.ok) for s in report.stages] == [
            ("a", True), ("b", False)]
        assert not report.ok
        assert report.stage("c") is None

    def test_render_header_and_overall(self):
        report = run_stages(FlowReport("dsl flow [x]", design="x"),
                            [("elaborate", lambda: (True, "ok", None))])
        report.fingerprint = "abc"
        lines = report.render().splitlines()
        assert lines[0] == "dsl flow [x] fingerprint abc"
        assert lines[1].startswith(f"  [PASS] {'elaborate':<24} ")
        assert lines[-1] == "  overall: PASS"


class TestSharedRuns:
    def test_flow_coverage_equals_the_cover_collectors(self):
        # the flow's ABV and OVL stages and repro.cover.la1 share one
        # run each, so every non-ASM point agrees, hit for hit
        report = run_flow(FlowConfig(banks=2, traffic=15, seed=7,
                                     static_lint=False, rtl_mc=None))
        assert report.ok, report.render()
        flow_db = report.stage("coverage").data
        cover_db = CoverageDB()
        collect_sysc_coverage(2, 15, 7, db=cover_db)
        collect_rtl_coverage(2, 15, 7, db=cover_db)
        flow_points = sorted(p.to_list() for p in flow_db.select()
                             if p.level != "asm")
        cover_points = sorted(p.to_list() for p in cover_db.select())
        assert flow_points == cover_points
        assert cover_db.levels() == ["assert", "func", "rtl"]


class TestFlowConfig:
    def test_unknown_mc_engine_is_refused_before_any_stage(self):
        with pytest.raises(ValueError, match="unknown mc engine"):
            FlowConfig(mc_engine="bogus")

    def test_unknown_rtl_mc_model_is_refused(self):
        with pytest.raises(ValueError, match="unknown rtl_mc model"):
            FlowConfig(rtl_mc="bogus")

    def test_known_choices_are_accepted(self):
        for engine in ("bdd", "sat"):
            for model in (None, "control", "full"):
                assert FlowConfig(mc_engine=engine, rtl_mc=model)


class TestLa1FlowJob:
    def test_runs_and_emits_one_event_per_stage(self):
        events = []
        result = FlowJob({"banks": 1, "traffic": 5}).run(events.append)
        assert set(result) == {"ok", "stages", "verilog_lines"}
        assert result["ok"] is True
        assert result["verilog_lines"] > 0
        names = [stage["name"] for stage in result["stages"]]
        assert names == LA1_STAGES
        assert events == [{"type": "stage", "name": name, "ok": True}
                          for name in names]

    def test_mc_engine_is_content_and_reaches_the_flow(self):
        default = FlowJob({"banks": 1, "traffic": 4, "coverage": False})
        bdd = FlowJob({"banks": 1, "traffic": 4, "coverage": False,
                       "mc_engine": "bdd"})
        sat = FlowJob({"banks": 1, "traffic": 4, "coverage": False,
                       "mc_engine": "sat"})
        # BDD, the LA-1 default, keeps the pre-engine content key
        assert bdd.key() == default.key()
        assert sat.key() != default.key()
        result = sat.run(lambda event: None)
        stage = next(s for s in result["stages"]
                     if s["name"] == "rtl_model_checking")
        assert stage["ok"]
        assert "clauses" in stage["detail"]
