"""Campaign acceptance: smoke coverage, checkpoint kill/resume,
deadline truncation, and exception containment."""

import json

import pytest

from repro.fault import (
    AsmPerturbation,
    CampaignConfig,
    FaultCampaign,
    ProtocolMutation,
    RtlStuckAt,
    default_fault_list,
)
from repro.fault.campaign import golden_logs


@pytest.fixture(scope="module")
def smoke_report():
    """One full 2-bank smoke campaign, shared by the read-only checks."""
    return FaultCampaign(CampaignConfig()).run(resume=False)


class TestSmokeCampaign:
    def test_no_engine_crashes(self, smoke_report):
        assert smoke_report.counts()["error"] == 0

    def test_protocol_detection_coverage_gate(self, smoke_report):
        assert smoke_report.coverage("sysc") >= 0.9

    def test_every_detection_names_its_monitors(self, smoke_report):
        for verdict in smoke_report.verdicts:
            if verdict.outcome == "detected":
                assert verdict.detected_by, verdict.fault_id
            else:
                assert not verdict.detected_by, verdict.fault_id

    def test_all_layers_swept(self, smoke_report):
        layers = {v.layer for v in smoke_report.verdicts}
        assert layers == {"rtl", "sysc", "asm"}

    def test_gap_probes_surface_as_silent(self, smoke_report):
        """The deliberate coverage-gap probes must perturb behaviour
        without detection -- they are the holes the campaign documents."""
        gaps = {v.fault_id: v for v in smoke_report.verdicts
                if not v.expected_detectable}
        assert gaps, "default list must ship gap probes"
        for verdict in gaps.values():
            assert verdict.outcome == "silent", \
                f"{verdict.fault_id}: {verdict.outcome} ({verdict.detail})"

    def test_asm_perturbations_caught_by_expected_properties(
            self, smoke_report):
        from repro.fault import expected_asm_detectors

        for fault in default_fault_list():
            if not isinstance(fault, AsmPerturbation):
                continue
            verdict = next(v for v in smoke_report.verdicts
                           if v.fault_id == fault.fault_id)
            assert verdict.outcome == "detected"
            expected = set(expected_asm_detectors(fault))
            assert expected <= set(verdict.detected_by), \
                f"{fault.fault_id}: {verdict.detected_by}"

    def test_report_counts_sum(self, smoke_report):
        assert sum(smoke_report.counts().values()) \
            == len(smoke_report.verdicts)

    def test_engine_stats_propagated(self, smoke_report):
        stats = smoke_report.engine_stats["rtl_sim"]
        assert stats["backend"] == "compiled"
        assert stats["edges"] > 0
        assert "regs" in stats

    def test_engine_edges_count_every_run(self):
        # stats()["edges"] accumulates across the simulator's resets: the
        # golden run plus one run per RTL-level fault
        golden_logs.cache_clear()
        config = CampaignConfig()
        faults = [f for f in default_fault_list() if f.layer in ("rtl", "stim")]
        report = FaultCampaign(config).run(faults=faults, jobs=1, lanes=1,
                                           resume=False)
        edges = report.engine_stats["rtl_sim"]["edges"]
        assert edges == 2 * config.rtl_cycles * (1 + len(faults))

    def test_render_mentions_coverage(self, smoke_report):
        text = smoke_report.render()
        assert "detection coverage" in text
        assert "protocol" in text


class TestCheckpointResume:
    def test_killed_campaign_resumes_to_same_report(self, tmp_path):
        """Run 5 faults, 'kill', resume: the resumed report equals a
        fresh uninterrupted run, and only the remaining faults re-run."""
        ckpt = str(tmp_path / "campaign.ckpt.json")
        total = len(default_fault_list())
        partial = FaultCampaign(
            CampaignConfig(checkpoint_path=ckpt, max_faults=5)).run()
        assert len(partial.verdicts) == 5

        executed = []
        resumed = FaultCampaign(
            CampaignConfig(checkpoint_path=ckpt)).run(
                on_verdict=executed.append)
        assert len(resumed.verdicts) == total
        # on_verdict fires only for re-executed faults
        assert len(executed) == total - 5

        fresh = FaultCampaign(CampaignConfig()).run(resume=False)
        assert resumed.signature() == fresh.signature()

    def test_checkpoint_is_valid_json_keyed_by_fault_id(self, tmp_path):
        ckpt = str(tmp_path / "c.json")
        FaultCampaign(
            CampaignConfig(checkpoint_path=ckpt, max_faults=2)).run()
        with open(ckpt) as fh:
            state = json.load(fh)
        assert set(state) == {"fingerprint", "verdicts"}
        for fault_id, data in state["verdicts"].items():
            assert data["fault_id"] == fault_id

    def test_corrupted_checkpoint_ignored(self, tmp_path):
        ckpt = tmp_path / "broken.json"
        ckpt.write_text("{ not json")
        report = FaultCampaign(
            CampaignConfig(checkpoint_path=str(ckpt), max_faults=2)).run()
        assert len(report.verdicts) == 2
        assert report.counts()["error"] == 0

    def test_fingerprint_mismatch_forces_rerun(self, tmp_path):
        ckpt = str(tmp_path / "c.json")
        FaultCampaign(
            CampaignConfig(seed=1, checkpoint_path=ckpt, max_faults=3)).run()
        executed = []
        FaultCampaign(
            CampaignConfig(seed=2, checkpoint_path=ckpt, max_faults=3)).run(
                on_verdict=executed.append)
        assert len(executed) == 3  # nothing reused across workloads


class TestDeadlinesAndContainment:
    def test_campaign_deadline_yields_structured_truncations(self):
        report = FaultCampaign(
            CampaignConfig(campaign_deadline_s=0.0)).run(resume=False)
        counts = report.counts()
        assert counts["error"] == 0
        assert counts["truncated"] >= len(report.verdicts) - 1
        for verdict in report.verdicts:
            if verdict.outcome == "truncated":
                assert "deadline" in verdict.detail

    def test_campaign_deadline_truncates_every_shard(self):
        report = FaultCampaign(
            CampaignConfig(banks=1, campaign_deadline_s=0.0)).run(
                jobs=2, resume=False)
        assert len(report.verdicts) == 15
        for verdict in report.verdicts:
            assert verdict.outcome == "truncated"
            assert "deadline" in verdict.detail
        assert report.engine_stats["par"]["timed_out"] == [0, 1]

    def test_fault_deadline_truncates_asm_check(self):
        report = FaultCampaign(
            CampaignConfig(fault_deadline_s=0.0)).run(
                faults=[AsmPerturbation("stall_read", 0)], resume=False)
        (verdict,) = report.verdicts
        assert verdict.outcome == "truncated"
        assert "deadline" in verdict.detail

    def test_bad_fault_contained_as_error_verdict(self):
        faults = [
            RtlStuckAt("la1_top.no.such.net", 0, 1),
            ProtocolMutation("drop_beat0", 0),
        ]
        report = FaultCampaign(CampaignConfig()).run(
            faults=faults, resume=False)
        assert [v.outcome for v in report.verdicts] \
            == ["error", "detected"], "campaign must sweep past the crash"
        assert "no.such.net" in report.verdicts[0].detail

    def test_unreached_mutation_window_is_masked(self):
        report = FaultCampaign(CampaignConfig()).run(
            faults=[ProtocolMutation("drop_beat0", 0, occurrence=999)],
            resume=False)
        (verdict,) = report.verdicts
        assert verdict.outcome == "masked"
        assert "window" in verdict.detail

    def test_coverage_of_empty_pool_is_one(self):
        report = FaultCampaign(CampaignConfig()).run(
            faults=[ProtocolMutation("corrupt_address", 0)], resume=False)
        assert report.coverage("rtl") == 1.0  # no RTL faults in the pool
