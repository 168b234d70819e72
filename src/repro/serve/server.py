"""The asyncio verification service front-end (stdlib-only HTTP).

One long-lived server turns the batch verification tools into a shared,
fault-tolerant environment many engineers hammer concurrently -- the
"common reusable verification environment" the methodology papers call
for.  The HTTP surface is deliberately tiny and dependency-free
(:func:`asyncio.start_server` plus a hand-rolled HTTP/1.1 parser):

=====================  ================================================
``GET  /healthz``      liveness + store/job accounting
``POST /jobs``         submit ``{"kind": ..., "spec": {...}}``; returns
                       the job id, its content key, and -- on a store
                       hit -- the cached result immediately
``GET  /jobs``         all job records (id, kind, key, status)
``GET  /jobs/<id>``    one record, with its result once finished
``GET  /jobs/<id>/events``  NDJSON stream: every incremental event
                       (campaign verdicts as their shard lands), then a
                       terminal ``{"type": "done"}`` line
``GET  /store/<key>``  the content-addressed result payload
=====================  ================================================

Fault containment is layered: worker crashes/hangs/poison shards are
contained by the supervised pool *inside* a job
(:func:`repro.par.run_supervised`); a job whose adapter itself raises
lands in status ``error`` with the traceback, never taking the server
down; and the server journals every submission and completion to its
write-ahead journal, so a crashed-and-restarted server knows which jobs
were interrupted -- a campaign's per-key checkpoint under the spool
directory makes resubmission resume instead of recompute.

Requests are bounded: a body longer than :data:`MAX_BODY_BYTES` is
refused with 413 before any of it is read, a malformed
``Content-Length`` gets 400, and an unexpected failure answers 500
naming only the exception type -- no message or stack frame reaches
the client.

Deduplication is content-addressed: submissions with equal ``(kind,
fingerprint)`` share one computation while in flight (the second
submitter receives the first one's job id) and one stored result
forever after (the store hit path).  Only a final result is stored
(``Job.storable``): a campaign with a ``truncated`` or ``error``
verdict keeps its result on its record, and the next submission of its
key runs again.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import threading
import time
import traceback
from typing import Optional

from .jobs import build_job
from .journal import Journal
from .store import ResultStore

__all__ = ["JobRecord", "VerificationServer", "serve_in_thread"]

#: terminal job states (event streams end when these are reached)
_TERMINAL = ("done", "cached", "error")

#: the largest request body the server reads (job specs are small JSON)
MAX_BODY_BYTES = 1 << 20


class _RequestError(Exception):
    """A request answered with a 4xx ``status`` before it is routed."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class JobRecord:
    """The server-side life of one submitted job."""

    def __init__(self, job_id: str, kind: str, key: str, spec: dict):
        self.job_id = job_id
        self.kind = kind
        self.key = key
        self.spec = spec
        #: queued | running | done | cached | error | interrupted
        self.status = "queued"
        self.events: list[dict] = []
        self.result: Optional[dict] = None
        self.error: Optional[str] = None
        self.submitted_at = time.time()
        self.finished_at: Optional[float] = None
        #: woken (then replaced) when an event lands or the job ends;
        #: created by the first waiting stream
        self._wakeup: Optional[asyncio.Event] = None

    @property
    def terminal(self) -> bool:
        return self.status in _TERMINAL

    def publish(self, event: dict) -> None:
        """Append one event and wake the streams waiting on this job
        (event-loop thread only)."""
        self.events.append(event)
        self.notify()

    def notify(self) -> None:
        """Wake every stream waiting on this job (event-loop thread
        only; called on each event and on the terminal status)."""
        wakeup, self._wakeup = self._wakeup, None
        if wakeup is not None:
            wakeup.set()

    async def changed(self) -> None:
        """Wait for the next :meth:`notify`.  Check the record before
        calling: nothing runs between that check and this wait, so no
        wakeup is lost."""
        if self._wakeup is None:
            self._wakeup = asyncio.Event()
        await self._wakeup.wait()

    def to_dict(self, with_result: bool = False) -> dict:
        out = {
            "id": self.job_id,
            "kind": self.kind,
            "key": self.key,
            "status": self.status,
            "events": len(self.events),
            "error": self.error,
        }
        if with_result:
            out["result"] = self.result
        return out


class VerificationServer:
    """The asyncio front-end plus its durable state (store + journal)."""

    def __init__(self, root: str, host: str = "127.0.0.1", port: int = 0,
                 max_workers: int = 2):
        self.root = root
        self.host = host
        self.port = port
        self.store = ResultStore(os.path.join(root, "store"))
        self.spool = os.path.join(root, "spool")
        self.journal = Journal(os.path.join(root, "serve.journal"))
        self.records: dict[str, JobRecord] = {}
        self._by_key: dict[str, JobRecord] = {}
        self._ids = itertools.count(1)
        self._server: Optional[asyncio.AbstractServer] = None
        self._semaphore = asyncio.Semaphore(max_workers)
        self._recover()

    # -- crash recovery ------------------------------------------------
    def _recover(self) -> None:
        """Replay the server journal: submissions without a matching
        completion were interrupted by a crash.  Their records resurface
        as ``interrupted`` -- resubmitting the same campaign resumes
        from its per-key checkpoint in the spool directory."""
        open_jobs: dict[str, dict] = {}
        last_id = 0
        for record in self.journal.replay():
            kind = record.get("type")
            if kind == "submit":
                open_jobs[record["id"]] = record
                try:
                    last_id = max(last_id, int(record["id"].lstrip("j")))
                except ValueError:  # pragma: no cover - foreign id
                    pass
            elif kind == "finish":
                open_jobs.pop(record["id"], None)
        self._ids = itertools.count(last_id + 1)
        for job_id, sub in open_jobs.items():
            record = JobRecord(job_id, sub.get("kind", "?"),
                               sub.get("key", "?"), sub.get("spec", {}))
            record.status = "interrupted"
            record.error = "server was killed while this job ran"
            self.records[job_id] = record

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.journal.close()

    # -- job execution -------------------------------------------------
    def submit(self, kind: str, spec: dict) -> JobRecord:
        """Validate, dedupe, journal and schedule one submission.
        Raises ``ValueError`` for malformed work (the 400 path)."""
        job = build_job(kind, spec)
        key = job.key()
        cached = self.store.get(key)
        if cached is not None:
            record = JobRecord(f"j{next(self._ids)}", kind, key, spec)
            record.status = "cached"
            record.result = cached
            record.finished_at = time.time()
            self.records[record.job_id] = record
            return record
        inflight = self._by_key.get(key)
        if inflight is not None and not inflight.terminal:
            return inflight  # identical work already running: share it
        record = JobRecord(f"j{next(self._ids)}", kind, key, spec)
        self.records[record.job_id] = record
        self._by_key[key] = record
        self.journal.append({
            "type": "submit", "id": record.job_id, "kind": kind,
            "key": key, "spec": spec,
        })
        asyncio.get_running_loop().create_task(self._execute(record, job))
        return record

    async def _execute(self, record: JobRecord, job) -> None:
        loop = asyncio.get_running_loop()

        def emit(event: dict) -> None:
            # called from the worker thread: hand the event to the loop
            loop.call_soon_threadsafe(record.publish, event)

        async with self._semaphore:
            record.status = "running"
            try:
                result = await loop.run_in_executor(
                    None, job.run, emit, self.spool)
            except Exception:
                record.status = "error"
                record.error = traceback.format_exc(limit=5)
            else:
                if job.storable(result):
                    self.store.put(record.key, result)
                record.result = result
                record.status = "done"
            record.finished_at = time.time()
            self.journal.append({
                "type": "finish", "id": record.job_id, "key": record.key,
                "status": record.status,
            })
            record.notify()

    # -- HTTP plumbing -------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, body = request
            await self._route(writer, method, path, body)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away: its problem, not the service's
        except Exception as exc:  # noqa: BLE001 - the server must not die
            # a 500 names the exception type only: no message, no stack
            # frames reach the client
            status, error = ((exc.status, str(exc))
                             if isinstance(exc, _RequestError)
                             else (500, f"internal error "
                                        f"({type(exc).__name__})"))
            try:
                await self._respond(writer, status, {"error": error})
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    @staticmethod
    async def _read_request(reader):
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = -1
                if content_length < 0:
                    raise _RequestError(
                        400, f"bad Content-Length {value.strip()!r}")
                if content_length > MAX_BODY_BYTES:
                    # answered before a byte of the body is read
                    raise _RequestError(
                        413, f"request body of {content_length} bytes "
                             f"exceeds the {MAX_BODY_BYTES}-byte limit")
        body = b""
        if content_length:
            body = await reader.readexactly(content_length)
        return method, path, body

    @staticmethod
    async def _respond(writer, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 413: "Payload Too Large",
                  500: "Internal Server Error"}.get(status, "OK")
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode() + body)
        await writer.drain()

    async def _route(self, writer, method: str, path: str,
                     body: bytes) -> None:
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            counts: dict[str, int] = {}
            for record in self.records.values():
                counts[record.status] = counts.get(record.status, 0) + 1
            await self._respond(writer, 200, {
                "ok": True,
                "jobs": counts,
                "store": self.store.stats(),
                "journal_records": self.journal.appended,
            })
        elif path == "/jobs" and method == "POST":
            try:
                payload = json.loads(body.decode() or "{}")
                if not isinstance(payload, dict):
                    raise ValueError("request body must be a JSON object")
                record = self.submit(
                    str(payload.get("kind", "")),
                    payload.get("spec") or {},
                )
            except ValueError as exc:
                await self._respond(writer, 400, {"error": str(exc)})
                return
            await self._respond(
                writer, 200,
                record.to_dict(with_result=record.status == "cached"))
        elif path == "/jobs" and method == "GET":
            await self._respond(writer, 200, {
                "jobs": [r.to_dict() for r in self.records.values()],
            })
        elif path.startswith("/jobs/") and method == "GET":
            parts = path.split("/")  # ['', 'jobs', id, ...]
            record = self.records.get(parts[2])
            if record is None:
                await self._respond(writer, 404,
                                    {"error": f"no job {parts[2]!r}"})
            elif len(parts) == 3:
                await self._respond(writer, 200,
                                    record.to_dict(with_result=True))
            elif len(parts) == 4 and parts[3] == "events":
                await self._stream_events(writer, record)
            else:
                await self._respond(writer, 404, {"error": "bad path"})
        elif path.startswith("/store/") and method == "GET":
            key = path.split("/")[2]
            payload = self.store.get(key)
            if payload is None:
                await self._respond(writer, 404,
                                    {"error": f"no entry {key!r}"})
            else:
                await self._respond(writer, 200, payload)
        elif path in ("/", "/jobs") or path.startswith(
                ("/jobs/", "/store/", "/healthz")):
            await self._respond(writer, 405,
                                {"error": f"{method} not allowed here"})
        else:
            await self._respond(writer, 404, {"error": f"no route {path}"})

    async def _stream_events(self, writer, record: JobRecord) -> None:
        """NDJSON event stream: incremental verdicts the moment their
        shard lands, then a terminal ``done`` line.  Pushed, not
        polled: the stream sleeps on the record's wakeup, which fires on
        every published event and on the terminal status.  Sent with
        ``Connection: close`` framing, so any HTTP/1.x client that reads
        to EOF consumes it."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n")
        await writer.drain()
        sent = 0
        while True:
            while sent < len(record.events):
                line = json.dumps(record.events[sent], sort_keys=True)
                writer.write(line.encode() + b"\n")
                sent += 1
            await writer.drain()
            if record.terminal or record.status == "interrupted":
                break
            if sent == len(record.events):
                await record.changed()
        writer.write(json.dumps({
            "type": "done", "status": record.status, "events": sent,
            "key": record.key,
        }, sort_keys=True).encode() + b"\n")
        await writer.drain()


def serve_in_thread(root: str, host: str = "127.0.0.1", port: int = 0,
                    max_workers: int = 2):
    """Run a :class:`VerificationServer` on a background thread.

    Returns ``(server, stop)``: the started server (``server.port`` is
    the bound port) and a ``stop()`` that shuts the loop down and joins
    the thread.  The helper the tests, the chaos bench and ``--smoke``
    all use; production deployments run :mod:`repro.serve.__main__`
    instead.
    """
    started = threading.Event()
    box: dict = {}

    def runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        server = VerificationServer(root, host, port,
                                    max_workers=max_workers)
        loop.run_until_complete(server.start())
        box["server"] = server
        box["loop"] = loop
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(server.stop())
            loop.close()

    thread = threading.Thread(target=runner, name="repro-serve",
                              daemon=True)
    thread.start()
    if not started.wait(timeout=10):  # pragma: no cover - startup wedge
        raise RuntimeError("verification server failed to start")

    def stop() -> None:
        box["loop"].call_soon_threadsafe(box["loop"].stop)
        thread.join(timeout=10)

    return box["server"], stop
