"""End-to-end tests of the HTTP front-end: real sockets, real JSON,
a real event stream -- plus the server's own crash recovery."""

import asyncio
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import jobs as jobs_mod
from repro.serve.journal import Journal
from repro.serve.server import (
    MAX_BODY_BYTES,
    VerificationServer,
    serve_in_thread,
)

CAMPAIGN = {"banks": 1, "traffic": 6, "rtl_cycles": 100, "max_faults": 4}


def _http(method, url, payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(url, data=data, method=method)
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read().decode())


def _wait(base, job_id, timeout_s=120.0):
    import time
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        record = _http("GET", f"{base}/jobs/{job_id}")
        if record["status"] in ("done", "cached", "error", "interrupted"):
            return record
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never finished")


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("serve"))
    server, stop = serve_in_thread(root)
    yield server, f"http://127.0.0.1:{server.port}", root
    stop()


class _RaisingJob(jobs_mod.Job):
    """Accepted at submission, then raises once it runs."""

    kind = "raising"

    def fingerprint(self) -> dict:
        return {}

    def run(self, emit, workdir=None) -> dict:
        raise RuntimeError("adapter raised mid-run")


class TestHTTP:
    def test_healthz(self, server):
        __, base, ___ = server
        health = _http("GET", f"{base}/healthz")
        assert health["ok"] is True
        assert "store" in health and "jobs" in health

    def test_submit_run_fetch_and_dedupe(self, server):
        __, base, ___ = server
        submitted = _http("POST", f"{base}/jobs",
                          {"kind": "campaign", "spec": CAMPAIGN})
        assert submitted["status"] in ("queued", "running")
        record = _wait(base, submitted["id"])
        assert record["status"] == "done"
        assert record["result"]["counts"]
        assert len(record["result"]["faults"]) == 4
        # the result is addressable in the store
        stored = _http("GET", f"{base}/store/{submitted['key']}")
        assert stored == record["result"]
        # an identical resubmission is served from the store
        again = _http("POST", f"{base}/jobs",
                      {"kind": "campaign", "spec": dict(CAMPAIGN)})
        assert again["status"] == "cached"
        assert again["key"] == submitted["key"]
        assert again["result"] == record["result"]
        # and a semantically different one is not
        other = _http("POST", f"{base}/jobs", {
            "kind": "campaign", "spec": {**CAMPAIGN, "seed": 99}})
        assert other["status"] != "cached"
        _wait(base, other["id"])

    def test_truncated_result_is_not_stored(self, server):
        # deadline_s is not part of the content key, so a stored partial
        # result would answer the same spec without a deadline
        __, base, ___ = server
        spec = {**CAMPAIGN, "seed": 57}
        partial = _http("POST", f"{base}/jobs", {
            "kind": "campaign", "spec": {**spec, "deadline_s": 0.0}})
        record = _wait(base, partial["id"])
        assert record["status"] == "done"
        assert record["result"]["counts"]["truncated"] == 4
        with pytest.raises(urllib.error.HTTPError) as exc:
            _http("GET", f"{base}/store/{partial['key']}")
        assert exc.value.code == 404
        full = _http("POST", f"{base}/jobs", {"kind": "campaign",
                                              "spec": spec})
        assert full["key"] == partial["key"]
        assert full["status"] != "cached"
        record = _wait(base, full["id"])
        assert record["status"] == "done"
        outcomes = {v["outcome"] for v in record["result"]["faults"]}
        assert outcomes <= {"detected", "silent", "masked"}
        assert _http("GET", f"{base}/store/{full['key']}") == record["result"]

    @pytest.mark.parametrize("kind, spec, stage", [
        ("mc", {"banks": 1}, None),
        ("flow", {"banks": 1, "traffic": 4, "coverage": False,
                  "seed": 58}, "rtl_model_checking"),
    ])
    def test_quarantined_property_is_not_stored(self, server, monkeypatch,
                                                kind, spec, stage):
        # shard_attempts is not part of the content key either, so a
        # stored inconclusive sweep would answer the same spec later
        from repro.mc import sweep

        __, base, ___ = server

        def crash(*args):
            raise RuntimeError("worker lost")

        with monkeypatch.context() as patch:
            patch.setattr(sweep, "check_la1_property", crash)
            partial = _http("POST", f"{base}/jobs", {
                "kind": kind, "spec": {**spec, "shard_attempts": 1}})
            record = _wait(base, partial["id"])
        assert record["status"] == "done"
        if stage is None:
            assert record["result"]["holds"] is None
            assert len(record["result"]["quarantined"]) == 3
        else:
            last = record["result"]["stages"][-1]
            assert (last["name"], last["ok"]) == (stage, False)
            assert last["budget"] == "shard_attempts"
        with pytest.raises(urllib.error.HTTPError) as exc:
            _http("GET", f"{base}/store/{partial['key']}")
        assert exc.value.code == 404
        full = _http("POST", f"{base}/jobs", {"kind": kind, "spec": spec})
        assert full["key"] == partial["key"]
        assert full["status"] != "cached"
        record = _wait(base, full["id"])
        assert record["status"] == "done"
        assert record["result"].get("holds", True) is True
        assert record["result"].get("ok", True) is True
        assert _http("GET", f"{base}/store/{full['key']}") == record["result"]

    def test_event_stream_carries_verdicts_then_done(self, server):
        __, base, ___ = server
        submitted = _http("POST", f"{base}/jobs", {
            "kind": "campaign", "spec": {**CAMPAIGN, "seed": 31}})
        _wait(base, submitted["id"])
        lines = urllib.request.urlopen(
            f"{base}/jobs/{submitted['id']}/events",
            timeout=60).read().decode().splitlines()
        events = [json.loads(line) for line in lines]
        assert events[-1]["type"] == "done"
        assert events[-1]["status"] in ("done", "cached")
        assert sum(1 for e in events if e.get("type") == "verdict") == 4

    def test_jobs_listing(self, server):
        __, base, ___ = server
        listing = _http("GET", f"{base}/jobs")
        assert listing["jobs"]
        assert all("id" in j and "status" in j for j in listing["jobs"])

    def test_error_paths(self, server, monkeypatch):
        __, base, ___ = server
        with pytest.raises(urllib.error.HTTPError) as exc:
            _http("POST", f"{base}/jobs", {"kind": "nope", "spec": {}})
        assert exc.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as exc:
            _http("GET", f"{base}/jobs/j999999")
        assert exc.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as exc:
            _http("GET", f"{base}/store/deadbeef")
        assert exc.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as exc:
            _http("POST", f"{base}/healthz", {})
        assert exc.value.code == 405
        # a job whose adapter raises mid-run lands in status=error
        # (with the traceback) without killing the server
        monkeypatch.setitem(jobs_mod.JOB_KINDS, "raising", _RaisingJob)
        bad = _http("POST", f"{base}/jobs",
                    {"kind": "raising", "spec": {}})
        record = _wait(base, bad["id"])
        assert record["status"] == "error"
        assert "adapter raised mid-run" in record["error"]
        assert _http("GET", f"{base}/healthz")["ok"] is True
        # a spec the engine would reject is refused at submission
        with pytest.raises(urllib.error.HTTPError) as exc:
            _http("POST", f"{base}/jobs",
                  {"kind": "mc", "spec": {"banks": -1}})
        assert exc.value.code == 400


    def test_unknown_design_is_400(self, server):
        __, base, ___ = server
        with pytest.raises(urllib.error.HTTPError) as exc:
            _http("POST", f"{base}/jobs",
                  {"kind": "campaign", "spec": {"design": "nope"}})
        assert exc.value.code == 400
        error = json.loads(exc.value.read().decode())["error"]
        assert "unknown design 'nope'" in error

    @pytest.mark.parametrize("field", ["max_fault", "chaos_kill_marker"])
    def test_unknown_spec_field_is_400(self, server, field):
        # a misspelt field, or one a past version read, would otherwise
        # be dropped: the job would run other work under another key
        __, base, ___ = server
        with pytest.raises(urllib.error.HTTPError) as exc:
            _http("POST", f"{base}/jobs", {
                "kind": "campaign", "spec": {"banks": 1, field: 3}})
        assert exc.value.code == 400
        error = json.loads(exc.value.read().decode())["error"]
        assert f"unknown campaign job field(s) ['{field}']" in error

    def test_out_of_range_execution_knob_is_400(self, server):
        __, base, ___ = server
        with pytest.raises(urllib.error.HTTPError) as exc:
            _http("POST", f"{base}/jobs",
                  {"kind": "cover", "spec": {"lanes": -3}})
        assert exc.value.code == 400
        error = json.loads(exc.value.read().decode())["error"]
        assert "'lanes' must be between 1 and 4096" in error


def _raw(port, request: bytes) -> tuple[int, dict]:
    """Send raw request bytes; returns (status, JSON body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(request)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    head, __, body = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestRequestBounds:
    def test_oversized_body_is_refused_unread(self, server):
        srv, __, ___ = server
        status, body = _raw(srv.port, (
            f"POST /jobs HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n").encode())
        # no body was sent: a server that tried to read it would hang
        assert status == 413
        assert str(MAX_BODY_BYTES) in body["error"]

    @pytest.mark.parametrize("length", ["abc", "-5", ""])
    def test_malformed_length_is_400(self, server, length):
        srv, __, ___ = server
        status, body = _raw(srv.port, (
            f"POST /jobs HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
            "{}").encode())
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_body_at_the_limit_is_read(self, server):
        srv, __, ___ = server
        payload = json.dumps({"kind": "nope", "spec": {}}).encode()
        payload += b" " * (MAX_BODY_BYTES - len(payload))
        status, body = _raw(srv.port, (
            f"POST /jobs HTTP/1.1\r\nContent-Length: {len(payload)}"
            "\r\n\r\n").encode() + payload)
        # routed: the unknown kind is the 400, not the size
        assert status == 400 and "unknown job kind" in body["error"]

    def test_500_names_only_the_exception_type(self, server, monkeypatch):
        srv, base, ___ = server

        async def boom(*args):
            raise RuntimeError("secret detail from deep inside")

        monkeypatch.setattr(srv, "_route", boom)
        with pytest.raises(urllib.error.HTTPError) as exc:
            _http("GET", f"{base}/healthz")
        assert exc.value.code == 500
        assert json.loads(exc.value.read()) == {
            "error": "internal error (RuntimeError)"}


class _GatedJob(jobs_mod.Job):
    """Emits one event, blocks on ``GATE``, then emits three more."""

    kind = "gated"
    GATE = threading.Event()

    def __init__(self, spec: dict):
        super().__init__(spec)
        self.n = self._field("n", None, (int,))

    def fingerprint(self) -> dict:
        return {"n": self.n}

    def run(self, emit, workdir=None) -> dict:
        emit({"type": "tick", "n": 0})
        assert self.GATE.wait(timeout=60)
        for n in range(1, 4):
            emit({"type": "tick", "n": n})
        return {"ticks": 4}


class TestPushedEvents:
    def test_stream_is_pushed_not_polled(self, tmp_path, monkeypatch):
        monkeypatch.setitem(jobs_mod.JOB_KINDS, "gated", _GatedJob)
        _GatedJob.GATE.clear()
        server, stop = serve_in_thread(str(tmp_path))
        base = f"http://127.0.0.1:{server.port}"
        lines: list = []
        try:
            with monkeypatch.context() as patch:
                # a stream that polled would hit this and never send done
                async def no_polling(*args, **kwargs):
                    raise AssertionError("event stream polled")

                patch.setattr(asyncio, "sleep", no_polling)
                job_id = _http("POST", f"{base}/jobs", {
                    "kind": "gated", "spec": {"n": 1}})["id"]
                reader = threading.Thread(target=lambda: lines.extend(
                    urllib.request.urlopen(
                        f"{base}/jobs/{job_id}/events",
                        timeout=60).read().decode().splitlines()))
                reader.start()
                record = server.records[job_id]
                deadline = time.monotonic() + 30
                # wait until the stream is parked on the record's wakeup
                while record._wakeup is None:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                assert not record.terminal
                _GatedJob.GATE.set()
                reader.join(timeout=60)
        finally:
            _GatedJob.GATE.set()
            stop()
        events = [json.loads(line) for line in lines]
        assert [e["n"] for e in events[:-1]] == [0, 1, 2, 3]
        assert events[-1] == {"type": "done", "status": "done",
                              "events": 4, "key": record.key}


class TestRecovery:
    def test_interrupted_jobs_resurface_after_restart(self, tmp_path):
        # forge the durable state a killed server leaves behind: a
        # submission journaled without a matching completion
        root = str(tmp_path)
        with Journal(f"{root}/serve.journal") as journal:
            journal.append({"type": "submit", "id": "j1",
                            "kind": "campaign", "key": "abc",
                            "spec": CAMPAIGN})
            journal.append({"type": "finish", "id": "j1", "key": "abc",
                            "status": "done"})
            journal.append({"type": "submit", "id": "j2",
                            "kind": "campaign", "key": "def",
                            "spec": CAMPAIGN})
        server = VerificationServer(root)
        assert list(server.records) == ["j2"]
        assert server.records["j2"].status == "interrupted"
        # new ids never collide with journaled ones
        assert next(server._ids) == 3
        server.journal.close()

    def test_fresh_root_recovers_to_empty(self, tmp_path):
        server = VerificationServer(str(tmp_path))
        assert server.records == {}
        server.journal.close()
