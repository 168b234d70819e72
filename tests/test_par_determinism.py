"""The repro.par determinism contract, end to end: jobs=1 and jobs=N
must produce bit-identical merged results (timing fields aside) on every
parallelized hot path -- the fault campaign, coverage-driven testgen,
the undirected baseline, and the MC property sweep -- including under
pool failure and across checkpoint/resume."""

import json
import os

import pytest

import repro.rtl
from repro.core import rtl_model
from repro.core.properties import read_mode_suite
from repro.fault.campaign import CampaignConfig, FaultCampaign
from repro.mc import sweep_rtl_properties


def _tiny_config(**overrides):
    base = dict(banks=1, traffic=8, rtl_cycles=80)
    base.update(overrides)
    return CampaignConfig(**base)


def _timeless(report):
    out = []
    for verdict in report.verdicts:
        data = verdict.to_dict()
        data.pop("cpu_time", None)
        out.append(data)
    return out


@pytest.fixture(scope="module")
def serial_report():
    return FaultCampaign(_tiny_config()).run(jobs=1)


class TestCampaignDeterminism:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_jobs_n_matches_serial(self, serial_report, jobs):
        parallel = FaultCampaign(_tiny_config()).run(jobs=jobs)
        assert parallel.signature() == serial_report.signature()
        assert _timeless(parallel) == _timeless(serial_report)
        assert parallel.engine_stats["par"]["mode"] == "pool"

    def test_pool_failure_falls_back_deterministically(
            self, serial_report, monkeypatch):
        # the campaign runs on the supervised layer: break its
        # process-spawning context
        def broken_context():
            raise OSError("fork refused")

        monkeypatch.setattr(
            "repro.par.supervise._mp_context", broken_context)
        degraded = FaultCampaign(_tiny_config()).run(jobs=2)
        assert degraded.signature() == serial_report.signature()
        par = degraded.engine_stats["par"]
        assert par["mode"] == "pool+inline"
        assert "fork refused" in par["fallback_reason"]

    def test_checkpoint_resume_across_jobs(self, serial_report, tmp_path):
        # phase 1: a jobs=1 run truncated by max_faults seeds the file
        state = str(tmp_path / "campaign.json")
        first = FaultCampaign(
            _tiny_config(checkpoint_path=state, max_faults=5)).run(jobs=1)
        assert len(first.verdicts) == 5
        # phase 2: a jobs=2 run resumes the same file and completes
        full = FaultCampaign(
            _tiny_config(checkpoint_path=state)).run(jobs=2)
        assert full.signature() == serial_report.signature()

    def test_parallel_run_checkpoints(self, tmp_path):
        state = str(tmp_path / "campaign.json")
        report = FaultCampaign(
            _tiny_config(checkpoint_path=state)).run(jobs=2)
        with open(state) as fh:
            saved = json.load(fh)
        assert len(saved["verdicts"]) == len(report.verdicts)


class TestTestgenDeterminism:
    @pytest.fixture(scope="class")
    def model(self):
        from repro.cover.asm_cov import build_la1_testgen_model

        return build_la1_testgen_model(2)

    def test_directed_jobs2_matches_serial(self, model):
        from repro.cover.testgen import coverage_driven_suite

        machine, predicates = model
        serial = coverage_driven_suite(
            machine, predicates, max_tests=4, candidates_per_round=6,
            seed=11)
        parallel = coverage_driven_suite(
            machine, predicates, max_tests=4, candidates_per_round=6,
            seed=11, jobs=2)
        assert serial.history == parallel.history
        assert serial.db.to_dict() == parallel.db.to_dict()
        assert len(serial.selected) == len(parallel.selected)
        for a, b in zip(serial.selected, parallel.selected):
            assert [str(x) for x in a] == [str(x) for x in b]

    def test_undirected_jobs2_matches_serial(self, model):
        from repro.cover.testgen import undirected_suite

        machine, predicates = model
        serial = undirected_suite(machine, predicates, 5, seed=11)
        parallel = undirected_suite(machine, predicates, 5, seed=11,
                                    jobs=2)
        assert serial.history == parallel.history
        assert serial.db.to_dict() == parallel.db.to_dict()

    @pytest.mark.parametrize("directed", [True, False])
    def test_suites_fork_over_the_callers_vehicle(self, directed,
                                                  monkeypatch):
        # a vehicle built here, no recipe: jobs=2 alone shards the walks
        # onto the pool, and the suite equals its jobs=1 run
        import repro.par
        from repro.cover.testgen import coverage_driven_suite, undirected_suite
        from repro.cover.traffic_walk import La1TrafficModel

        model = La1TrafficModel(banks=1, seed=7)

        def suite(jobs):
            if directed:
                return coverage_driven_suite(
                    model, {}, max_tests=3, candidates_per_round=4,
                    walk_steps=8, seed=5, plateau_rounds=2, jobs=jobs,
                    lanes=8)
            return undirected_suite(model, {}, num_tests=4, walk_steps=8,
                                    seed=5, jobs=jobs, lanes=8)

        serial = suite(1)
        modes = []
        run_supervised = repro.par.run_supervised

        def recording(*args, **kwargs):
            results, stats = run_supervised(*args, **kwargs)
            modes.append(stats.mode)
            return results, stats

        monkeypatch.setattr(repro.par, "run_supervised", recording)
        sharded = suite(2)
        assert modes and set(modes) == {"pool"}
        assert sharded.selected == serial.selected
        assert sharded.history == serial.history
        assert sharded.db.to_dict() == serial.db.to_dict()

    def test_walk_seeds_are_batch_independent(self):
        # the hash stream makes each walk's seed a pure function of
        # (suite seed, round, index): immune to shard boundaries
        from repro.cover.testgen import _walk_seed

        a = _walk_seed(3, "round", 2, 5)
        assert a == _walk_seed(3, "round", 2, 5)
        assert a != _walk_seed(3, "round", 5, 2)
        assert a != _walk_seed(4, "round", 2, 5)


class TestMcSweepDeterminism:
    def test_sweep_matches_serial(self):
        suite = read_mode_suite(1)
        serial = sweep_rtl_properties(1, suite, jobs=1)
        parallel = sweep_rtl_properties(1, suite, jobs=2)
        assert [(n, r.holds) for n, r in serial.results] == \
            [(n, r.holds) for n, r in parallel.results]
        assert serial.holds is True and parallel.holds is True
        assert parallel.par_stats["mode"] == "pool"

    def test_sweep_equals_conjunction(self):
        from repro.core.rulebase import check_read_mode_rtl

        mono = check_read_mode_rtl(1)
        sweep = sweep_rtl_properties(1, read_mode_suite(1), jobs=2)
        assert sweep.combined().holds == mono.holds

    @pytest.fixture
    def fresh_design(self):
        """An empty netlist memo before and after the test."""
        rtl_model.la1_netlist.cache_clear()
        yield
        rtl_model.la1_netlist.cache_clear()

    def test_forked_shards_inherit_the_design(self, fresh_design,
                                              monkeypatch, tmp_path):
        log = tmp_path / "elaborations.log"
        original = repro.rtl.elaborate

        def logged(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return original(*args, **kwargs)

        # both bindings the MC path can elaborate through
        monkeypatch.setattr(rtl_model, "elaborate", logged)
        monkeypatch.setattr(repro.rtl, "elaborate", logged)
        sweep = sweep_rtl_properties(1, read_mode_suite(1),
                                     datapath=False, jobs=2)
        assert sweep.holds is True
        assert sweep.par_stats["mode"] == "pool"
        assert log.read_text().split() == [str(os.getpid())]

    def test_failed_design_build_is_quarantined_at_every_jobs(
            self, fresh_design, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("netlist build failed")

        monkeypatch.setattr(rtl_model, "build_la1_top_rtl", refuse)
        names = [name for name, __ in read_mode_suite(1)]
        for jobs in (1, 2):
            sweep = sweep_rtl_properties(
                1, read_mode_suite(1), datapath=False, jobs=jobs,
                shard_attempts=1)
            assert sweep.holds is None
            assert sweep.quarantined == names


class TestFlowJobs:
    @pytest.mark.parametrize("engine", ["bdd", "sat"])
    def test_rtl_mc_stage_is_the_same_at_every_jobs(self, engine):
        from repro.core.flow import FlowConfig, run_flow

        def stage(jobs):
            report = run_flow(FlowConfig(
                banks=2, traffic=4, static_lint=False, coverage=False,
                mc_engine=engine, jobs=jobs))
            mc = report.stage("rtl_model_checking")
            stats = dict(mc.data.bdd_stats)
            stats.pop("cpu_time", None)  # a timing field
            return mc.ok, mc.detail, stats

        serial = stage(1)
        assert serial[0] is True
        assert serial == stage(2)

    def test_flow_rtl_mc_stage_parallel(self):
        from repro.core.flow import FlowConfig, run_flow

        config = FlowConfig(banks=1, traffic=8, jobs=2,
                            static_lint=False, coverage=False)
        report = run_flow(config)
        stage = next(s for s in report.stages
                     if s.name == "rtl_model_checking")
        assert stage.ok
