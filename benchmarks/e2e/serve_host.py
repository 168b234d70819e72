"""Run ``python -m repro.serve`` with the benchmark's tracing installed.

Usage::

    python benchmarks/e2e/serve_host.py SPOOL -- [repro.serve arguments]

The traced ``serve`` workload starts the server through this script.
The server process writes the spans it has closed to SPOOL after every
store lookup and journal append, so each job's spans are on disk by the
time its ``finish`` record is journaled, whatever way the server later
ends; each shard worker it forks writes its own after every shard.
"""

from __future__ import annotations

import functools
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402


def _flushing(tracer: Tracer, fn):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.flush("server")

    return call


def main(argv: list[str]) -> int:
    spool, rest = argv[0], argv[1:]
    if rest[:1] == ["--"]:
        rest = rest[1:]
    tracer = Tracer(spool)
    tracer.install()
    from repro.serve.__main__ import main as serve_main
    from repro.serve.journal import Journal
    from repro.serve.store import ResultStore

    # a hit ends at its store lookup, a fresh job at its finish record
    Journal.append = _flushing(tracer, Journal.append)
    ResultStore.get = _flushing(tracer, ResultStore.get)
    try:
        return serve_main(rest)
    finally:
        tracer.flush("server")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
