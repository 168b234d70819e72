"""Crash-safety tests for the fault campaign: atomic checkpoints,
coordinator-kill recovery through checkpoint and shard journal, chaos
determinism, and the supervision stats surfaced in reports."""

import json
import os

import pytest

from repro.fault.campaign import CampaignConfig, FaultCampaign
from repro.mc.sweep import PropertySweepReport
from repro.par import ParStats

SMALL = dict(banks=1, traffic=6, rtl_cycles=100, max_faults=6)


def _campaign(**overrides):
    return FaultCampaign(CampaignConfig(**{**SMALL, **overrides}))


class Killed(Exception):
    """Stands in for the coordinator dying between callbacks."""


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

        def die_on_first_verdict(verdict):
            raise Killed(verdict.fault_id)

        with pytest.raises(Killed):
            _campaign(checkpoint_path=path).run(
                jobs=1, on_verdict=die_on_first_verdict)
        # the kill struck after the atomic save: state is durable
        with open(path) as fh:
            saved = len(json.load(fh)["verdicts"])
        assert saved >= 1
        resumed = _campaign(checkpoint_path=path).run(jobs=1)
        assert resumed.signature() == golden.signature()

        def content(report):  # everything except the timing fields
            return [{k: v for k, v in verdict.to_dict().items()
                     if k != "cpu_time"} for verdict in report.verdicts]

        assert content(resumed) == content(golden)

    def test_journal_resume_skips_completed_shards(
            self, tmp_path, monkeypatch):
        # journal-only config (no checkpoint): the shard journal alone
        # must make a killed jobs=N coordinator resume without
        # recomputing collected shards -- journal hits prove it
        golden = _campaign().run(jobs=1)
        path = str(tmp_path / "wal.jsonl")

        calls = []

        def die_on_second_shards_verdicts(verdict):
            calls.append(verdict.fault_id)
            raise Killed(verdict.fault_id)

        with pytest.raises(Killed):
            _campaign(journal_path=path).run(
                jobs=2, on_verdict=die_on_second_shards_verdicts)
        assert os.path.exists(path)  # first shard journaled durably
        resumed = _campaign(journal_path=path).run(jobs=2)
        assert resumed.signature() == golden.signature()
        par = resumed.engine_stats["par"]
        assert par["journal_hits"] == 1  # shard 0 replayed, not re-run
        assert par["retries"] == 0 and par["quarantined"] == []

    def test_chaos_kill_does_not_change_verdicts(self, tmp_path):
        # an induced worker kill mid-campaign perturbs only timing
        golden = _campaign().run(jobs=1)
        marker = str(tmp_path / "chaos.kill")
        report = _campaign(chaos_kill_marker=marker,
                           journal_path=str(tmp_path / "wal.jsonl")).run(
            jobs=2)
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
        stats.journal_hits = 3
        d = stats.to_dict()
        assert d["retries"] == 2
        assert d["quarantined"] == [1]
        assert d["killed_workers"] == 1
        assert d["journal_hits"] == 3

    def test_campaign_report_carries_par_stats(self):
        report = _campaign(max_faults=4).run(jobs=2)
        par = report.engine_stats["par"]
        for key in ("retries", "quarantined", "killed_workers",
                    "journal_hits"):
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
