"""The fault campaign's shard task for :func:`repro.par.run_supervised`.

A shard worker is forked after its coordinator's warm-up, so a task
runs on the coordinator's own objects: nothing but the shard's result
crosses the pipe.  What shards share with their siblings (an elaborated
netlist and the simulator kernels compiled for it, a checker automaton,
a golden log) comes from a bounded per-process memo on the builder
(:func:`functools.lru_cache`), which the coordinator fills before it
forks -- the warm start that keeps per-shard cost at the actual work.

:func:`campaign_shard` is a module-level name so that a wrapper
installed before the fork reaches every worker
(:func:`repro.serve.__main__.strike_first_shard`, the e2e tracing
harness).
"""

from __future__ import annotations

from typing import Optional

__all__ = ["campaign_shard"]


def campaign_shard(config, faults, lanes: int = 1,
                   patterns_per_pass: Optional[int] = None) -> dict:
    """Sweep one shard of faults through the one executor
    (:meth:`~repro.fault.campaign.FaultCampaign.execute_faults`) of a
    campaign of its own; returns a mergeable mini
    :class:`~repro.fault.campaign.CampaignReport` as a dict, whose
    engine stats count this shard alone.  With ``lanes > 1`` the
    compatible (lane-encodable) faults of the shard run as PPSFP
    batches on the bitpar backend (verdicts unchanged), so lane
    parallelism multiplies with the process fan-out;
    ``patterns_per_pass`` caps the pattern-group tiling per pass."""
    from ..fault.campaign import CampaignConfig, CampaignReport, FaultCampaign

    # the workload identity alone: the shard never checkpoints (the
    # coordinator owns the state file) and never enforces the
    # whole-campaign deadline (the coordinator owns the clock)
    campaign = FaultCampaign(CampaignConfig(**config.fingerprint()))
    verdicts = campaign.execute_faults(
        faults, lanes=lanes, patterns_per_pass=patterns_per_pass)
    return CampaignReport(
        verdicts, config.fingerprint(),
        sum(v.cpu_time for v in verdicts), campaign._engine_stats(),
    ).to_dict()
