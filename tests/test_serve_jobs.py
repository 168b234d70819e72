"""Unit tests for the service's job adapters: content fingerprints
(execution knobs excluded), validation, and the run/emit contract."""

import os

import pytest

from repro.serve.jobs import (
    JOB_KINDS,
    CampaignJob,
    CoverJob,
    FlowJob,
    McJob,
    build_job,
)


class TestBuildJob:
    def test_all_kinds_registered(self):
        assert set(JOB_KINDS) == {"campaign", "cover", "mc", "flow"}

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            build_job("nope", {})

    def test_non_object_spec_raises(self):
        with pytest.raises(ValueError):
            build_job("campaign", [1, 2])

    def test_mistyped_field_raises(self):
        with pytest.raises(ValueError, match="banks"):
            build_job("campaign", {"banks": "two"})

    def test_unknown_cover_mode_raises(self):
        with pytest.raises(ValueError, match="cover mode"):
            build_job("cover", {"mode": "psychic"})

    @pytest.mark.parametrize("kind", ["campaign", "cover"])
    @pytest.mark.parametrize("field, value", [
        ("jobs", -4), ("jobs", 129), ("lanes", -3), ("lanes", 4097),
    ])
    def test_out_of_range_execution_knob_raises(self, kind, field, value):
        # the same ranges the --jobs / --lanes CLI options enforce
        with pytest.raises(ValueError, match=f"'{field}' must be between"):
            build_job(kind, {field: value})

    @pytest.mark.parametrize("kind, spec, match", [
        ("campaign", {"design": "nope"}, "unknown design"),
        ("flow", {"design": "nope"}, "unknown design"),
        ("campaign", {"patterns": 0}, "'patterns' must be between 1 and"),
        ("campaign", {"design": "fifo", "patterns": 2},
         "'patterns' must be 1 for a zoo design"),
        ("campaign", {"banks": 0}, "'banks' must be >= 1"),
        ("cover", {"banks": 0}, "'banks' must be >= 1"),
        ("flow", {"banks": 0}, "'banks' must be >= 1"),
        ("campaign", {"backend": "bogus"}, "unknown campaign backend"),
        ("mc", {"banks": 0}, "'banks' must be >= 1"),
        ("flow", {"mc_engine": "bogus"}, "unknown mc engine"),
        ("flow", {"design": "fifo", "mc_engine": "bogus"},
         "unknown mc engine"),
        ("flow", {"rtl_mc": "bogus"}, "unknown rtl_mc model"),
    ])
    def test_spec_the_engine_rejects_raises(self, kind, spec, match):
        # refused at submission (the server's 400), not accepted and
        # then failed -- or stored as a result of error verdicts
        with pytest.raises(ValueError, match=match):
            build_job(kind, spec).key()

    def test_execution_knob_range_is_inclusive(self):
        job = build_job("cover", {"jobs": 128, "lanes": 4096})
        assert (job.jobs, job.lanes) == (128, 4096)
        job = build_job("campaign", {"jobs": 1, "lanes": 1})
        assert (job.jobs, job.lanes) == (1, 1)


class TestFingerprints:
    def test_execution_knobs_do_not_change_identity(self):
        # same work at different parallelism/chaos must share one
        # computation and one store entry
        a = CampaignJob({"banks": 1, "seed": 7})
        b = CampaignJob({"banks": 1, "seed": 7, "jobs": 8, "lanes": 4,
                         "shard_attempts": 5, "shard_deadline_s": 1.0,
                         "chaos_kill_marker": "/tmp/x"})
        assert a.key() == b.key()

    def test_semantic_fields_change_identity(self):
        base = CampaignJob({"banks": 1, "seed": 7}).key()
        assert CampaignJob({"banks": 2, "seed": 7}).key() != base
        assert CampaignJob({"banks": 1, "seed": 8}).key() != base
        assert CampaignJob({"banks": 1, "seed": 7,
                            "max_faults": 3}).key() != base

    def test_kinds_never_collide(self):
        keys = {
            CampaignJob({"banks": 1}).key(),
            CoverJob({"banks": 1}).key(),
            McJob({"banks": 1}).key(),
            FlowJob({"banks": 1}).key(),
        }
        assert len(keys) == 4

    def test_spool_paths_are_per_key(self, tmp_path):
        a = CampaignJob({"banks": 1, "seed": 1})
        b = CampaignJob({"banks": 1, "seed": 2})
        pa = a._spool(str(tmp_path), "ckpt.json")
        pb = b._spool(str(tmp_path), "ckpt.json")
        assert pa != pb
        assert a._spool(None, "ckpt.json") is None


class TestRun:
    def test_campaign_job_emits_verdicts(self, tmp_path):
        job = CampaignJob({"banks": 1, "traffic": 6, "rtl_cycles": 100,
                           "max_faults": 4})
        events = []
        report = job.run(events.append, str(tmp_path))
        verdicts = [e for e in events if e["type"] == "verdict"]
        assert len(verdicts) == len(report["faults"]) == 4
        assert {v["fault_id"] for v in verdicts} \
            == {f["fault_id"] for f in report["faults"]}
        # the spool holds this key's checkpoint + shard journal
        spooled = {name.split(".", 1)[1]
                   for name in os.listdir(str(tmp_path))}
        assert "ckpt.json" in spooled

    def test_cover_job_emits_rounds(self):
        job = CoverJob({"banks": 1, "mode": "undirected", "max_tests": 3,
                        "walk_steps": 8, "seed": 3})
        events = []
        result = job.run(events.append)
        rounds = [e for e in events if e["type"] == "round"]
        assert len(rounds) == len(result["history"]) == 3
        assert 0.0 <= result["coverage"] <= 1.0
        assert result["db"]["points"]

    def test_mc_job_emits_properties(self):
        job = McJob({"banks": 1, "datapath": False})
        events = []
        result = job.run(events.append)
        names = [e["name"] for e in events if e["type"] == "property"]
        assert names and len(names) == len(result["properties"])
        assert result["holds"] is True
