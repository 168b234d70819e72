"""Fault campaigns over zoo designs: deterministic verdicts that are
bit-identical across every jobs x lanes execution shape, plus the
service adapters that fingerprint zoo work by elaborated-netlist
content."""

import pytest

from repro.fault.campaign import CampaignConfig, FaultCampaign
from repro.serve.jobs import CampaignJob, FlowJob


def _run(design: str, jobs: int = 1, lanes: int = 1, max_faults: int = 12,
         cycles: int = 24):
    config = CampaignConfig(design=design, seed=2004, backend="interp",
                            rtl_cycles=cycles, max_faults=max_faults)
    return FaultCampaign(config).run(jobs=jobs, lanes=lanes)


def _timeless(report):
    out = []
    for verdict in report.verdicts:
        data = verdict.to_dict()
        data.pop("cpu_time", None)
        out.append(data)
    return out


class TestZooCampaign:
    def test_smoke_campaign_detects_faults(self):
        report = _run("noc")
        counts = report.counts()
        assert counts["detected"] >= 1
        assert counts["error"] == 0
        assert counts["truncated"] == 0

    def test_every_zoo_design_sweeps_cleanly(self):
        for name in ("fifo", "arbiter", "qdr"):
            report = _run(name, max_faults=6)
            counts = report.counts()
            assert counts["error"] == 0, (name, counts)
            assert report.verdicts

    def test_same_seed_same_signature(self):
        assert _run("noc").signature() == _run("noc").signature()

    def test_max_faults_truncates_the_default_list(self):
        # the zoo fault list (stuck-ats + one SEU per register) is
        # deterministic; max_faults keeps a prefix of it
        full = FaultCampaign(CampaignConfig(
            design="arbiter", seed=2004, backend="interp",
            rtl_cycles=24)).run()
        some = _run("arbiter", max_faults=6)
        assert len(some.verdicts) == 6
        assert len(full.verdicts) > len(some.verdicts)

    @pytest.mark.parametrize("jobs,lanes", [(1, 4), (2, 1), (2, 4)])
    def test_jobs_lanes_bit_identity(self, jobs, lanes):
        # the acceptance bar: every execution shape replays the
        # sequential sweep bit-for-bit (verdict set, outcome, detector,
        # and every other verdict field but the timing)
        baseline = _run("noc")
        shaped = _run("noc", jobs=jobs, lanes=lanes)
        assert shaped.signature() == baseline.signature()
        assert _timeless(shaped) == _timeless(baseline)


class TestServeAdapters:
    def test_campaign_fingerprint_pins_netlist(self):
        job = CampaignJob({"design": "fifo"})
        fingerprint = job.fingerprint()
        assert fingerprint["design"] == "fifo"
        assert len(fingerprint["netlist"]) == 32  # blake2b-16 hex
        # zoo campaigns default to the interpreted RTL backend
        assert job.backend == "interp"

    def test_zoo_and_la1_jobs_never_collide(self):
        assert (CampaignJob({"design": "fifo"}).key()
                != CampaignJob({}).key())
        assert (CampaignJob({"design": "fifo"}).key()
                != CampaignJob({"design": "qdr"}).key())

    def test_execution_knobs_keep_identity(self):
        a = CampaignJob({"design": "noc", "seed": 7})
        b = CampaignJob({"design": "noc", "seed": 7, "jobs": 4,
                         "lanes": 8})
        assert a.key() == b.key()

    def test_flow_fingerprint_tracks_engine_and_seed(self):
        base = FlowJob({"design": "fifo"}).key()
        assert FlowJob({"design": "fifo", "seed": 5}).key() != base
        assert FlowJob({"design": "fifo",
                        "mc_engine": "bdd"}).key() != base
        assert FlowJob({"design": "fifo"}).key() == base

    def test_campaign_job_runs_zoo_design(self, tmp_path):
        job = CampaignJob({"design": "arbiter", "max_faults": 6,
                           "rtl_cycles": 24})
        events = []
        result = job.run(events.append, str(tmp_path))
        verdicts = [e for e in events if e["type"] == "verdict"]
        assert verdicts
        assert result["counts"]["error"] == 0

    def test_flow_job_runs_dsl_flow(self, tmp_path):
        job = FlowJob({"design": "fifo"})
        events = []
        result = job.run(events.append, str(tmp_path))
        assert result["ok"] is True
        assert result["design"] == "fifo"
        assert len(result["fingerprint"]) == 32
        names = [s["name"] for s in result["stages"]]
        assert names == ["elaborate", "lint", "conformance",
                         "model_checking", "coverage", "campaign"]
        assert all(s["ok"] for s in result["stages"])
        assert [e["name"] for e in events
                if e["type"] == "stage"] == names
