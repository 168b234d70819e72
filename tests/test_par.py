"""Unit tests for repro.par: seed streams, shard planning, run
accounting, and the CampaignReport merge protocol (the fault-side
mirror of tests/test_cover_db.py's TestMerge).  The runner itself is
tested in tests/test_par_supervise.py."""

import pytest

from repro.fault.campaign import CampaignReport, FaultVerdict
from repro.par import ParStats, derive_seed, plan_shards
from repro.par.workers import ModelSpec, la1_model_spec


# ----------------------------------------------------------------------
# seed streams
# ----------------------------------------------------------------------
class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "a", 1) == derive_seed(7, "a", 1)

    def test_distinct_streams(self):
        seeds = {
            derive_seed(0, "testgen", "round", r, "walk", i)
            for r in range(8) for i in range(8)
        }
        assert len(seeds) == 64

    def test_sensitive_to_every_part(self):
        base = derive_seed(1, "x", 2)
        assert derive_seed(2, "x", 2) != base
        assert derive_seed(1, "y", 2) != base
        assert derive_seed(1, "x", 3) != base

    def test_type_framed(self):
        # "1" (str) and 1 (int) must not collide, nor ("ab","c")/("a","bc")
        assert derive_seed("1") != derive_seed(1)
        assert derive_seed("ab", "c") != derive_seed("a", "bc")

    def test_range(self):
        for parts in [(0,), ("long", "tuple", 42), (2**70,)]:
            seed = derive_seed(*parts)
            assert 0 <= seed < 2**63


# ----------------------------------------------------------------------
# shard planning
# ----------------------------------------------------------------------
class TestPlanShards:
    def test_single_job_single_shard(self):
        assert plan_shards([1, 2, 3], 1) == [[1, 2, 3]]
        assert plan_shards([], 4) == []
        assert plan_shards([9], 4) == [[9]]

    def test_stable(self):
        items = list(range(17))
        a = plan_shards(items, 4, weight=lambda x: (x * 7) % 5 + 1)
        b = plan_shards(items, 4, weight=lambda x: (x * 7) % 5 + 1)
        assert a == b

    def test_partition(self):
        items = list(range(23))
        shards = plan_shards(items, 4)
        flat = sorted(x for shard in shards for x in shard)
        assert flat == items
        assert len(shards) <= 4

    def test_order_preserved_within_shard(self):
        shards = plan_shards(list(range(20)), 3)
        for shard in shards:
            assert shard == sorted(shard)

    def test_lpt_spreads_heavy_items(self):
        # three heavy items (weight 60) over three shards: one each
        items = ["h1", "h2", "h3"] + [f"l{i}" for i in range(12)]
        weight = {"h1": 60, "h2": 60, "h3": 60}
        shards = plan_shards(items, 3, weight=lambda x: weight.get(x, 1))
        heavy_per_shard = [
            sum(1 for x in shard if x in weight) for shard in shards
        ]
        assert heavy_per_shard == [1, 1, 1]

    def test_more_jobs_than_items(self):
        shards = plan_shards([1, 2], 8)
        assert sorted(x for s in shards for x in s) == [1, 2]
        assert all(shard for shard in shards)


# ----------------------------------------------------------------------
# execution accounting
# ----------------------------------------------------------------------
class TestParStats:
    def test_stats_arithmetic(self):
        stats = ParStats(4, 3)
        stats.shard_wall_s = [2.0, 1.0, 1.0]
        assert stats.critical_path_s == 2.0
        assert stats.total_shard_s == 4.0
        assert stats.speedup_estimate == 2.0
        d = stats.to_dict()
        assert d["jobs"] == 4 and d["speedup_estimate"] == 2.0


# ----------------------------------------------------------------------
# ModelSpec
# ----------------------------------------------------------------------
class TestModelSpec:
    def test_build_la1(self):
        machine, predicates = la1_model_spec(2).build()
        assert machine.rules and predicates

    def test_key_stable(self):
        a = ModelSpec("m:f", {"x": 1, "y": 2})
        b = ModelSpec("m:f", {"y": 2, "x": 1})
        assert a.key() == b.key()

    def test_bad_factory(self):
        with pytest.raises(ValueError):
            ModelSpec("not_a_dotted_path").build()


# ----------------------------------------------------------------------
# CampaignReport.merge -- mirrors test_cover_db.TestMerge
# ----------------------------------------------------------------------
def _verdict(fault_id, outcome="detected", detected_by=("m",),
             cpu=0.1, points=("p",)):
    verdict = FaultVerdict(
        fault_id, "sysc", "mut", outcome,
        detected_by=list(detected_by), expected_detectable=True,
    )
    verdict.cpu_time = cpu
    verdict.coverage_points = list(points)
    return verdict


FP = {"banks": 2, "seed": 0}


class TestCampaignReportMerge:
    def test_union_and_sorted(self):
        a = CampaignReport([_verdict("b"), _verdict("a")], FP, 1.0)
        b = CampaignReport([_verdict("c")], FP, 2.0)
        a.merge(b)
        assert [v.fault_id for v in a.verdicts] == ["a", "b", "c"]
        assert a.cpu_time == pytest.approx(3.0)

    def test_commutative(self):
        def fresh(ids):
            return CampaignReport([_verdict(i) for i in ids], FP)

        ab = fresh(["a", "b"]).merge(fresh(["b", "c"]))
        ba = fresh(["b", "c"]).merge(fresh(["a", "b"]))
        assert ab.signature() == ba.signature()
        assert [v.to_dict() for v in ab.verdicts] == \
            [v.to_dict() for v in ba.verdicts]

    def test_associative(self):
        def fresh(ids):
            return CampaignReport([_verdict(i) for i in ids], FP)

        left = fresh(["a"]).merge(fresh(["b"])).merge(fresh(["c"]))
        right = fresh(["a"]).merge(fresh(["b"]).merge(fresh(["c"])))
        assert left.signature() == right.signature()

    def test_duplicate_resolution_order_independent(self):
        x = _verdict("f", outcome="detected")
        y = _verdict("f", outcome="silent", detected_by=())
        one = CampaignReport([x], FP).merge(CampaignReport([y], FP))
        two = CampaignReport([y], FP).merge(CampaignReport([x], FP))
        assert one.verdicts[0].to_dict() == two.verdicts[0].to_dict()

    def test_engine_stats_add(self):
        a = CampaignReport([], FP, engine_stats={"rtl_sim": {"edges": 3}})
        b = CampaignReport([], FP, engine_stats={"rtl_sim": {"edges": 4}})
        assert a.merge(b).engine_stats["rtl_sim"]["edges"] == 7

    def test_fingerprint_mismatch_raises(self):
        a = CampaignReport([], {"banks": 2})
        b = CampaignReport([], {"banks": 4})
        with pytest.raises(ValueError):
            a.merge(b)

    def test_empty_adopts_fingerprint(self):
        out = CampaignReport.merged(
            [CampaignReport([_verdict("a")], FP)])
        assert out.fingerprint == FP

    def test_merged_roundtrip_dict(self):
        report = CampaignReport([_verdict("a")], FP, 1.5,
                                {"rtl_sim": {"edges": 2}})
        clone = CampaignReport.from_dict(report.to_dict())
        assert clone.signature() == report.signature()
        assert clone.engine_stats == report.engine_stats

