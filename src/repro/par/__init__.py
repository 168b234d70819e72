"""Deterministic process-pool fan-out for the verification engines.

The paper's evaluation is a throughput story -- cycles simulated and
states explored per second -- and every result-producing engine in this
reproduction was built around *mergeable* results: coverage databases
merge losslessly (:meth:`repro.cover.CoverageDB.merge`), campaign
reports merge by verdict union (:meth:`repro.fault.CampaignReport.merge`)
and property sweeps are independent per property.  This package supplies
the execution layer that exploits that:

* :func:`derive_seed` -- hash-based seed-stream splitting, so the RNG
  stream of every shard is a pure function of ``(root seed, labels)``
  and never depends on shard order or job count;
* :func:`plan_shards` -- stable, weight-balanced chunking of a work list
  into at most ``jobs`` shards (equal inputs always produce equal plans);
* :func:`run_supervised` -- the one fan-out runner
  (:mod:`repro.par.supervise`): one killable worker process per
  in-flight shard, forked after the caller's warm-up, per-shard
  wall-clock accounting (:class:`ParStats`), retry with exponential
  backoff and deterministic jitter, poison-shard quarantine
  (:class:`ShardError` results instead of aborted runs), hung-worker
  reaping on a per-shard deadline, an overall timeout, out-of-order
  collection, optional write-ahead journaling so a killed coordinator
  resumes without recomputing a single collected shard, and an inline
  fallback when the process machinery itself fails, so a parallel
  caller can never do worse than finish sequentially.

The determinism contract: for a fixed work list and configuration,
``jobs=1`` and ``jobs=N`` produce identical *merged* results -- only
timing fields differ.  Every caller in :mod:`repro.fault`,
:mod:`repro.cover` and :mod:`repro.mc` is tested against that contract.
"""

from .pool import ParStats, plan_shards
from .seeds import derive_seed
from .supervise import ShardError, backoff_delay, run_supervised
from .workers import ModelSpec, la1_model_spec

__all__ = [
    "ParStats",
    "plan_shards",
    "run_supervised",
    "ShardError",
    "backoff_delay",
    "derive_seed",
    "ModelSpec",
    "la1_model_spec",
]
