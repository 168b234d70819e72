"""repro.serve -- fault-tolerant verification-as-a-service.

The service layer turns the repository's batch verification tools into
a shared environment: an asyncio, stdlib-only HTTP front-end
(:mod:`repro.serve.server`) accepts fault-campaign, coverage-testgen,
model-checking and full-flow jobs (:mod:`repro.serve.jobs`), dedupes
them by content fingerprint into a crash-safe content-addressed result
store (:mod:`repro.serve.store`), and streams incremental verdicts as
shards land.  Durability rests on the server's write-ahead journal
(:mod:`repro.serve.journal`) of submissions and completions, and on
each campaign job's checkpoint.

Quick start::

    PYTHONPATH=src python -m repro.serve --root /tmp/la1-serve
    curl -s -X POST localhost:8642/jobs \\
        -d '{"kind": "campaign", "spec": {"banks": 1, "jobs": 4}}'
"""

from .jobs import (
    JOB_KINDS,
    CampaignJob,
    CoverJob,
    FlowJob,
    Job,
    McJob,
    build_job,
)
from .journal import Journal
from .server import JobRecord, VerificationServer, serve_in_thread
from .store import ResultStore, content_key

__all__ = [
    "JOB_KINDS",
    "CampaignJob",
    "CoverJob",
    "FlowJob",
    "Job",
    "JobRecord",
    "Journal",
    "McJob",
    "ResultStore",
    "VerificationServer",
    "build_job",
    "content_key",
    "serve_in_thread",
]
