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


#: every field each job kind reads, each with an accepted value, and
#: the content key of that whole spec
FULL_SPECS = {
    "campaign": ({
        "banks": 2, "traffic": 24, "seed": 7, "backend": "interp",
        "rtl_cycles": 80, "max_faults": 3, "patterns": 4,
        "patterns_per_pass": 2, "deadline_s": 5, "jobs": 2, "lanes": 64,
        "shard_attempts": 3, "shard_deadline_s": 1.5, "design": None,
    }, "2e28fd3f6df09306d3d5df1605a810b5"),
    "cover": ({
        "banks": 2, "mode": "undirected", "vehicle": "traffic", "seed": 3,
        "max_tests": 4, "walk_steps": 8, "candidates_per_round": 4,
        "target": 0.9, "plateau_rounds": 2, "jobs": 2, "lanes": 8,
        "shard_attempts": 3, "shard_deadline_s": 1.5,
    }, "2741af1324fb96572e4013f349ff8cdb"),
    "mc": ({
        "banks": 1, "datapath": True, "jobs": 2, "lanes": 1,
        "shard_attempts": 3, "shard_deadline_s": 1.5,
    }, "d7facec9cdd1dae4a32c49a2f8a3c6dc"),
    "flow": ({
        "banks": 2, "traffic": 10, "seed": 3, "rtl_mc": "control",
        "mc_engine": "sat", "coverage": False, "design": None, "jobs": 2,
        "lanes": 1, "shard_attempts": 3, "shard_deadline_s": 1.5,
    }, "b7cfd4f7b9750189f604c1c53de1547c"),
}


class TestFields:
    @pytest.mark.parametrize("kind", sorted(FULL_SPECS))
    def test_every_field_of_each_kind_is_accepted(self, kind):
        spec, key = FULL_SPECS[kind]
        job = build_job(kind, spec)
        assert job.fields == set(spec)
        assert job.key() == key

    @pytest.mark.parametrize("kind, spec, key", [
        ("campaign", {"banks": 1}, "98b54c7166eff8504bc6a83d164afeda"),
        ("campaign", {"banks": 1, "traffic": 24, "seed": 7, "lanes": 64,
                      "jobs": 2}, "995f652f1938ab9ac953fd630e56d02b"),
        ("campaign", {"design": "fifo"}, "a61c3da28f1a30f19826aba1b3a3186e"),
        ("cover", {"banks": 2}, "d50beaf36e74f7b9a925ad18be1af20b"),
        ("flow", {"banks": 1}, "4fa4bcec09034edcbabaf8ca78bed084"),
        ("flow", {"design": "fifo", "seed": 5},
         "ef2eb9cca926aeb3abe7987d778d2ee3"),
    ])
    def test_content_keys_are_unchanged(self, kind, spec, key):
        assert build_job(kind, spec).key() == key

    def test_misspelt_field_raises(self):
        # max_fault for max_faults: before, the job ran every fault
        # under the key of {"banks": 1}
        with pytest.raises(ValueError, match=r"\['max_fault'\]"):
            build_job("campaign", {"banks": 1, "max_fault": 3})

    @pytest.mark.parametrize("field", ["chaos_kill_marker",
                                       "chaos_hang_marker", "journal_path"])
    def test_leftover_field_raises(self, field):
        with pytest.raises(ValueError, match=f"'{field}'"):
            build_job("campaign", {"banks": 1, field: "/tmp/marker"})

    @pytest.mark.parametrize("kind", sorted(FULL_SPECS))
    def test_a_field_of_another_kind_raises(self, kind):
        others = set().union(*(spec for other, (spec, __) in
                               FULL_SPECS.items() if other != kind))
        for field in sorted(others - set(FULL_SPECS[kind][0])):
            with pytest.raises(ValueError, match="unknown"):
                build_job(kind, {field: FULL_SPECS["campaign"][0].get(
                    field, 1)})


class TestFingerprints:
    def test_execution_knobs_do_not_change_identity(self):
        # same work at different parallelism or retry budgets must
        # share one computation and one store entry
        a = CampaignJob({"banks": 1, "seed": 7})
        b = CampaignJob({"banks": 1, "seed": 7, "jobs": 8, "lanes": 4,
                         "shard_attempts": 5, "shard_deadline_s": 1.0})
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
        # the spool holds this key's checkpoint, its one resume record
        spooled = {name.split(".", 1)[1]
                   for name in os.listdir(str(tmp_path))}
        assert spooled == {"ckpt.json"}

    def test_spec_names_no_path_a_worker_creates(self, tmp_path):
        # a spec is client input: no field of it makes a shard worker
        # create a file, die or sleep
        marker = str(tmp_path / "planted")
        job = CampaignJob({"banks": 1, "traffic": 6, "rtl_cycles": 100,
                           "max_faults": 4, "jobs": 2,
                           "chaos_kill_marker": marker})
        report = job.run(lambda event: None)
        assert not os.path.exists(marker)
        assert report["engine_stats"]["par"]["retries"] == 0

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
