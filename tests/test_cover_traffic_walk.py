"""The traffic-walk testgen vehicle: lane-parallel candidate scoring
must change nothing but the wall clock.

``La1TrafficModel`` scores random-stimulus candidates one-per-lane in
bit-parallel RTL passes; the per-walk coverage DBs, the suites testgen
builds from them, and the sharded ``jobs x lanes`` path must all be
bit-identical to the scalar one-walk-at-a-time sweep.
"""

import os

import repro.par
from repro.cover import CoverageDB
from repro.cover.rtl_walk import WalkCase
from repro.cover.testgen import (
    _Gain,
    _map_walks,
    coverage_driven_suite,
    undirected_suite,
)
from repro.cover.traffic_walk import La1TrafficModel
from repro.par import ShardError

WALK_STEPS = 8
SEEDS = [3, 11, 19, 27, 35, 43]


def _model():
    return La1TrafficModel(banks=1, seed=7)


class TestWalkDbs:
    def test_lane_parallel_matches_scalar(self):
        lane_dbs = _model().walk_dbs(SEEDS, WALK_STEPS, lanes=64)
        scalar_dbs = _model().walk_dbs(SEEDS, WALK_STEPS, lanes=1)
        assert [db.to_dict() for db in lane_dbs] == \
            [db.to_dict() for db in scalar_dbs]

    def test_chunking_is_invisible(self):
        model = _model()
        whole = model.walk_dbs(SEEDS, WALK_STEPS, lanes=64)
        chunked = model.walk_dbs(SEEDS, WALK_STEPS, lanes=2)
        assert [db.to_dict() for db in whole] == \
            [db.to_dict() for db in chunked]

    def test_score_walks_gain_matches_manual_merge(self):
        model = _model()
        dbs = model.walk_dbs(SEEDS, WALK_STEPS, lanes=64)
        base = dbs[0].clone()
        gains = _map_walks(model, SEEDS[1:], WALK_STEPS, 64, 1, _Gain(base))
        want = [base.clone().merge(db).counts()[0] - base.counts()[0]
                for db in dbs[1:]]
        assert gains == want

    def test_admit_walk_merges_the_selected_walk(self):
        model = _model()
        result = coverage_driven_suite(
            model, {}, max_tests=3, candidates_per_round=4,
            walk_steps=WALK_STEPS, seed=5, plateau_rounds=2, lanes=8)
        assert result.num_tests >= 1
        want = CoverageDB(meta={"generator": "coverage_driven", "seed": 5})
        for case in result.selected:
            assert case == WalkCase(case.walk_seed, WALK_STEPS)
            before = want.counts()[0]
            want.merge(model.walk_dbs([case.walk_seed], WALK_STEPS,
                                      lanes=1)[0])
            assert want.counts()[0] >= before
        assert result.db.to_dict() == want.to_dict()


class TestSuites:
    def test_lane_suite_matches_scalar_suite(self):
        lanes = undirected_suite(_model(), {}, num_tests=4,
                                 walk_steps=WALK_STEPS, seed=5, lanes=8)
        scalar = undirected_suite(_model(), {}, num_tests=4,
                                  walk_steps=WALK_STEPS, seed=5, lanes=1)
        assert lanes.history == scalar.history
        assert lanes.db.to_dict() == scalar.db.to_dict()

    def test_coverage_driven_matches_scalar(self):
        lanes = coverage_driven_suite(
            _model(), {}, max_tests=3, candidates_per_round=4,
            walk_steps=WALK_STEPS, seed=5, plateau_rounds=2, lanes=8)
        scalar = coverage_driven_suite(
            _model(), {}, max_tests=3, candidates_per_round=4,
            walk_steps=WALK_STEPS, seed=5, plateau_rounds=2, lanes=1)
        assert lanes.history == scalar.history
        assert lanes.db.to_dict() == scalar.db.to_dict()

    def test_jobs_sharded_scoring_matches_inline(self):
        inline = coverage_driven_suite(
            _model(), {}, max_tests=3, candidates_per_round=4,
            walk_steps=WALK_STEPS, seed=5, plateau_rounds=2, lanes=8)
        sharded = coverage_driven_suite(
            _model(), {}, max_tests=3, candidates_per_round=4,
            walk_steps=WALK_STEPS, seed=5, plateau_rounds=2,
            jobs=2, lanes=8)
        assert sharded.history == inline.history
        assert sharded.db.to_dict() == inline.db.to_dict()

    def test_jobs_sharded_undirected_matches_inline(self):
        inline = undirected_suite(_model(), {}, num_tests=4,
                                  walk_steps=WALK_STEPS, seed=5, lanes=8)
        sharded = undirected_suite(_model(), {}, num_tests=4,
                                   walk_steps=WALK_STEPS, seed=5, jobs=2,
                                   lanes=8)
        assert sharded.history == inline.history
        assert sharded.db.to_dict() == inline.db.to_dict()

    def test_quarantined_shard_reruns_on_the_callers_model(
            self, monkeypatch):
        outcomes = []
        run_supervised = repro.par.run_supervised

        def recording(*args, **kwargs):
            results, stats = run_supervised(*args, **kwargs)
            outcomes.extend(results)
            return results, stats

        inline = coverage_driven_suite(
            _model(), {}, max_tests=3, candidates_per_round=4,
            walk_steps=WALK_STEPS, seed=5, plateau_rounds=2, lanes=8)
        # every forked shard fails; the coordinator's walks do not
        coordinator = os.getpid()
        walk_dbs = La1TrafficModel.walk_dbs

        def poisoned(self, *args):
            if os.getpid() != coordinator:
                raise RuntimeError("induced testgen worker failure")
            return walk_dbs(self, *args)

        monkeypatch.setattr(repro.par, "run_supervised", recording)
        monkeypatch.setattr(La1TrafficModel, "walk_dbs", poisoned)
        sharded = coverage_driven_suite(
            _model(), {}, max_tests=3, candidates_per_round=4,
            walk_steps=WALK_STEPS, seed=5, plateau_rounds=2,
            jobs=2, lanes=8)
        assert outcomes
        assert all(isinstance(outcome, ShardError) for outcome in outcomes)
        assert sharded.history == inline.history
        assert sharded.db.to_dict() == inline.db.to_dict()


class TestWalkCase:
    def test_walk_case_round_trip(self):
        case = WalkCase(9, WALK_STEPS)
        assert case == WalkCase(9, WALK_STEPS)
        assert case != WalkCase(10, WALK_STEPS)
        assert hash(case) == hash(WalkCase(9, WALK_STEPS))
        assert "9" in repr(case)
