"""Crash-safety tests for the fault campaign: atomic checkpoints,
coordinator-kill recovery through the checkpoint (the campaign's one
resume record, at every ``jobs``), chaos determinism, and the
supervision stats surfaced in reports."""

import json
import os
import warnings

import pytest

from repro.fault.campaign import CampaignConfig, FaultCampaign
from repro.mc.sweep import PropertySweepReport
from repro.par import ParStats
from repro.serve.__main__ import strike_first_shard

SMALL = dict(banks=1, traffic=6, rtl_cycles=100, max_faults=6)


def _campaign(**overrides):
    return FaultCampaign(CampaignConfig(**{**SMALL, **overrides}))


class Killed(Exception):
    """Stands in for the coordinator dying between callbacks."""


def _die_on_first_verdict(verdict):
    raise Killed(verdict.fault_id)


def _saved_ids(path):
    with open(path) as fh:
        return set(json.load(fh)["verdicts"])


def _resume_quietly(path, jobs):
    """Resume from the checkpoint at ``path`` with every warning an
    error; returns the report and the fault ids ``on_verdict`` saw."""
    seen = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = _campaign(checkpoint_path=path).run(
            jobs=jobs, on_verdict=lambda v: seen.append(v.fault_id))
    return report, seen


# ----------------------------------------------------------------------
# atomic checkpoints (satellite: torn checkpoints must not poison resume)
# ----------------------------------------------------------------------
class TestAtomicCheckpoint:
    def test_save_is_atomic_and_leaves_no_temp(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        campaign = _campaign(checkpoint_path=path, max_faults=2)
        campaign.run(jobs=1)
        assert os.path.exists(path)
        assert [n for n in os.listdir(str(tmp_path)) if ".tmp." in n] == []
        with open(path) as fh:
            state = json.load(fh)  # well-formed JSON, never torn
        assert len(state["verdicts"]) == 2

    def test_truncated_checkpoint_warns_and_restarts_clean(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        golden = _campaign().run(jobs=1)
        with open(path, "w") as fh:
            fh.write('{"fingerprint": {"ba')  # kill -9 mid-write
        with pytest.warns(UserWarning, match="unreadable"):
            report = _campaign(checkpoint_path=path).run(jobs=1)
        assert report.signature() == golden.signature()

    def test_non_object_checkpoint_warns(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        with open(path, "w") as fh:
            json.dump([1, 2], fh)
        with pytest.warns(UserWarning, match="non-object"):
            assert _campaign(checkpoint_path=path)._load_checkpoint() == {}

    def test_foreign_fingerprint_checkpoint_ignored(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        _campaign(checkpoint_path=path, seed=1).run(jobs=1)
        resumed = _campaign(checkpoint_path=path, seed=2)
        assert resumed._load_checkpoint() == {}  # not transferable


# ----------------------------------------------------------------------
# coordinator killed mid-run (satellite: bit-identical resume)
# ----------------------------------------------------------------------
class TestCoordinatorKillRecovery:
    def test_checkpoint_resume_is_bit_identical(self, tmp_path):
        golden = _campaign().run(jobs=1)
        path = str(tmp_path / "ckpt.json")

        with pytest.raises(Killed):
            _campaign(checkpoint_path=path).run(
                jobs=1, on_verdict=_die_on_first_verdict)
        # the kill struck after the atomic save: state is durable
        saved = _saved_ids(path)
        assert len(saved) >= 1
        resumed, rerun = _resume_quietly(path, jobs=1)
        assert resumed.signature() == golden.signature()
        assert saved.isdisjoint(rerun)  # no saved fault recomputed

        def content(report):  # everything except the timing fields
            return [{k: v for k, v in verdict.to_dict().items()
                     if k != "cpu_time"} for verdict in report.verdicts]

        assert content(resumed) == content(golden)

    def test_checkpoint_resume_skips_completed_shards(self, tmp_path):
        # the checkpoint alone makes a killed jobs=N coordinator resume
        # without recomputing the shard it collected
        golden = _campaign().run(jobs=1)
        path = str(tmp_path / "ckpt.json")
        with pytest.raises(Killed):
            _campaign(checkpoint_path=path).run(
                jobs=2, on_verdict=_die_on_first_verdict)
        saved = _saved_ids(path)
        assert 1 <= len(saved) < len(golden.verdicts)
        resumed, rerun = _resume_quietly(path, jobs=2)
        assert resumed.signature() == golden.signature()
        assert saved.isdisjoint(rerun)
        assert sorted(saved | set(rerun)) == sorted(
            v.fault_id for v in golden.verdicts)
        par = resumed.engine_stats["par"]
        assert par["retries"] == 0 and par["quarantined"] == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_deadline_stubs_are_rerun_on_resume(self, tmp_path, jobs):
        # a truncated verdict is no engine's decision: the checkpoint
        # keeps none, and the resumed run computes every such fault
        golden = _campaign().run(jobs=1)
        path = str(tmp_path / "ckpt.json")
        cut = _campaign(checkpoint_path=path,
                        campaign_deadline_s=0.0).run(jobs=jobs)
        assert cut.counts()["truncated"] == len(golden.verdicts)
        assert _saved_ids(path) == set()
        resumed, rerun = _resume_quietly(path, jobs=jobs)
        assert resumed.signature() == golden.signature()
        assert len(rerun) == len(golden.verdicts)

    def test_quarantined_shard_is_rerun_on_resume(self, tmp_path,
                                                  monkeypatch):
        # a shard that failed every attempt leaves error stubs in the
        # report, not in the checkpoint: the resumed run retries it
        from repro.par import workers

        golden = _campaign().run(jobs=1)
        poison = golden.verdicts[0].fault_id
        shard = workers.campaign_shard

        def poisoned(config, faults, *rest):
            if any(f.fault_id == poison for f in faults):
                raise RuntimeError("poisoned shard")
            return shard(config, faults, *rest)

        path = str(tmp_path / "ckpt.json")
        monkeypatch.setattr(workers, "campaign_shard", poisoned)
        first = _campaign(checkpoint_path=path, shard_attempts=1).run(
            jobs=2)
        monkeypatch.undo()
        errors = {v.fault_id for v in first.verdicts
                  if v.outcome == "error"}
        assert poison in errors
        assert first.engine_stats["par"]["quarantined"]
        assert _saved_ids(path).isdisjoint(errors)
        resumed, rerun = _resume_quietly(path, jobs=2)
        assert resumed.signature() == golden.signature()
        assert set(rerun) == errors

    def test_chaos_kill_does_not_change_verdicts(self, tmp_path):
        # an induced worker kill mid-campaign perturbs only timing
        golden = _campaign().run(jobs=1)
        marker = str(tmp_path / "chaos.kill")
        with strike_first_shard(marker, lambda: os._exit(137)):
            report = _campaign().run(jobs=2)
        assert os.path.exists(marker)  # the kill really happened
        assert report.signature() == golden.signature()
        assert report.engine_stats["par"]["retries"] >= 1


# ----------------------------------------------------------------------
# supervision stats surfaced through reports
# ----------------------------------------------------------------------
class TestStatsSurfaced:
    def test_par_stats_new_fields_in_to_dict(self):
        stats = ParStats(2, 3)
        stats.retries = 2
        stats.quarantined = [1]
        stats.killed_workers = 1
        d = stats.to_dict()
        assert d["retries"] == 2
        assert d["quarantined"] == [1]
        assert d["killed_workers"] == 1

    def test_campaign_report_carries_par_stats(self):
        report = _campaign(max_faults=4).run(jobs=2)
        par = report.engine_stats["par"]
        for key in ("retries", "quarantined", "killed_workers"):
            assert key in par
        assert json.dumps(report.to_dict())  # JSON-serializable whole

    def test_sweep_quarantine_degrades_to_inconclusive(self):
        # a quarantined property can never read as a silent pass
        report = PropertySweepReport([], par_stats={"retries": 1},
                                     quarantined=["no_read_conflict"])
        assert report.holds is None
        d = report.to_dict()
        assert d["quarantined"] == ["no_read_conflict"]
        assert d["par"]["retries"] == 1
        combined = report.combined()
        assert combined.holds is None
