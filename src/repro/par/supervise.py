"""Supervised shard execution: retry, quarantine, reap, journal, resume.

:func:`run_supervised` is the one fan-out runner of :mod:`repro.par`:
every parallel caller -- the fault campaign, coverage collection and
testgen, the MC property sweep -- runs its shards through it.  A
long-lived verification service needs fine containment: a worker that
segfaults on one poisoned shard must not drag thirty healthy shards
back to sequential execution, a hung shard must be *killed* (not
politely cancelled) and retried elsewhere, and a coordinator restart
must resume from durable state instead of recomputing finished shards.

:func:`run_supervised` provides that ladder.  It manages one worker
:class:`multiprocessing.Process` per in-flight shard (a shard plan has
at most ``jobs`` shards, so this costs one process per job, while
making per-shard kill possible -- a pool executor cannot terminate one
task):

* **retry with backoff** -- a shard whose worker raises, crashes, or
  exceeds ``shard_deadline_s`` is re-attempted up to ``max_attempts``
  times, after an exponential backoff with deterministic jitter
  (hash-derived from ``(seed, shard, attempt)``, so two coordinators
  never thunder in lockstep yet tests replay exactly);
* **quarantine** -- a shard that fails every attempt yields a
  structured :class:`ShardError` result (``stats.quarantined`` records
  the index) while every other shard completes normally: a poisoned
  shard degrades the run, it never aborts it;
* **reaping** -- a shard still running at its deadline has its worker
  process killed (``stats.killed_workers``), immediately freeing the
  slot; cancelled-but-running CPU burners cannot exist;
* **out-of-order collection** -- ``on_result`` fires the moment any
  shard lands, so checkpoint hooks never queue behind a slow shard 0;
* **write-ahead journal** -- with ``journal=`` every collected result
  is durably appended before the next scheduling decision; a killed
  coordinator re-running the same call replays the journal
  (``stats.journal_hits``), refires ``on_result`` for replayed shards,
  and computes only what was never collected.  Results being
  deterministic, the resumed run's merged output is bit-identical to an
  undisturbed one;
* **overall deadline** -- at ``timeout_s`` every running worker is
  killed (``stats.killed_workers``) and every unresolved shard yields
  ``None`` (``stats.timed_out``);
* **infrastructure fallback** -- a failure of the process machinery
  itself (fork refusal, queue teardown) finishes the unresolved shards
  inline (``mode="pool+inline"``).  An exception from the caller's
  ``on_result`` or journal is the caller's, not the pool's: it
  propagates once the workers are reaped, and no shard is recomputed.

Retries never change *what* is computed -- a shard's task and args are
immutable across attempts -- so verdict content is attempt-count
invariant; only the timing fields of :class:`~repro.par.pool.ParStats`
differ.  ``jobs <= 1`` applies the same retry/quarantine/journal ladder
inline (no per-shard deadline: a coordinator cannot kill itself).
"""

from __future__ import annotations

import time
import warnings
from collections import deque
from queue import Empty
from typing import Callable, Optional, Sequence

from .pool import ParStats, _mp_context, _timed_call
from .seeds import derive_seed

__all__ = ["ShardError", "run_supervised", "backoff_delay"]

#: how long a dead worker gets to flush a late result from its queue
#: feeder thread before the coordinator declares the shard crashed
_CRASH_GRACE_S = 0.25

#: coordinator poll quantum (queue waits and liveness checks)
_POLL_S = 0.02


class ShardError:
    """The structured result of a quarantined shard.

    Callers receive this *in place of* the shard's value, so a poisoned
    shard is data, not control flow: the fault campaign turns it into
    per-fault ``error`` verdicts, the MC sweep into an inconclusive
    property, the testgen loop into an inline re-score.
    """

    def __init__(self, index: int, attempts: int, kind: str, detail: str):
        self.index = index
        self.attempts = attempts
        #: "exception" (task raised), "crash" (worker died), or
        #: "deadline" (shard exceeded shard_deadline_s and was killed)
        self.kind = kind
        self.detail = detail

    def to_dict(self) -> dict:
        return {
            "shard_error": True,
            "index": self.index,
            "attempts": self.attempts,
            "kind": self.kind,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardError":
        return cls(data["index"], data["attempts"], data["kind"],
                   data["detail"])

    def __repr__(self):
        return (f"ShardError(shard {self.index}: {self.kind} after "
                f"{self.attempts} attempt(s))")


def backoff_delay(seed: int, index: int, attempt: int,
                  base_s: float, max_s: float) -> float:
    """The sleep before re-attempting shard ``index`` (``attempt`` >= 2):
    exponential in the attempt number, capped at ``max_s``, scaled by a
    deterministic jitter in [0.5, 1.5) hash-derived from the identifying
    triple -- reproducible, yet decorrelated across shards and runs."""
    jitter = 0.5 + derive_seed(seed, "backoff", index, attempt) / 2.0**63
    return min(max_s, base_s * 2.0 ** (attempt - 2)) * jitter


def _supervised_worker(result_q, index: int, attempt: int, task,
                       args) -> None:
    """One shard attempt in its own process: run, report, exit.  Any
    exception reports as a structured error message; only the
    coordinator decides retry vs quarantine."""
    try:
        wall, value = _timed_call(task, args)
        result_q.put(("ok", index, attempt, wall, value))
    except BaseException as exc:  # noqa: BLE001 - containment boundary
        try:
            result_q.put(("error", index, attempt, 0.0,
                          f"{type(exc).__name__}: {exc}"))
        except Exception:  # pragma: no cover - queue torn down
            pass


class _Supervisor:
    """Coordinator state of one :func:`run_supervised` call."""

    def __init__(self, task, shard_args, jobs, timeout_s, shard_deadline_s,
                 max_attempts, backoff_base_s, backoff_max_s, seed,
                 on_result, journal, journal_fingerprint):
        self.task = task
        self.shard_args = [tuple(args) for args in shard_args]
        self.jobs = jobs
        self.shard_deadline_s = shard_deadline_s
        self.max_attempts = max(1, max_attempts)
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.seed = seed
        self.on_result = on_result
        self.journal = journal
        self.journal_fingerprint = journal_fingerprint or {}
        self.stats = ParStats(jobs, len(self.shard_args))
        self.start = time.perf_counter()
        self.deadline = (None if timeout_s is None
                         else self.start + timeout_s)
        n = len(self.shard_args)
        self.results: list = [None] * n
        self.resolved = [False] * n  # collected, quarantined or journaled
        #: set while the journal append or ``on_result`` runs: an
        #: exception escaping then is the caller's, never a pool failure
        self.in_caller = False
        self.attempts = [0] * n
        self.stats.shard_wall_s = [0.0] * n

    # -- shared resolution paths --------------------------------------
    def _collect(self, index: int, wall: float, value,
                 from_journal: bool = False) -> None:
        self.results[index] = value
        self.resolved[index] = True
        self.stats.shard_wall_s[index] = wall
        self.in_caller = True
        if from_journal:
            self.stats.journal_hits += 1
        elif self.journal is not None:
            self.journal.append({
                "type": "shard", "index": index, "wall": wall,
                "value": value,
            })
        if self.on_result is not None:
            self.on_result(index, value)
        self.in_caller = False

    def _quarantine(self, index: int, kind: str, detail: str) -> None:
        error = ShardError(index, self.attempts[index], kind, detail)
        self.results[index] = error
        self.resolved[index] = True
        self.stats.quarantined.append(index)
        if self.journal is not None:
            self.in_caller = True
            self.journal.append({
                "type": "quarantine", "index": index,
                "value": error.to_dict(),
            })
            self.in_caller = False

    def _replay_journal(self) -> None:
        """Adopt every intact shard record of a matching journal; write
        the header on a fresh one.  A journal written for different work
        is ignored wholesale (fingerprint guard)."""
        if self.journal is None:
            return
        records = list(self.journal.replay())
        if not records:
            self.journal.append({
                "type": "header",
                "fingerprint": self.journal_fingerprint,
                "shards": len(self.shard_args),
            })
            return
        header = records[0]
        if (header.get("type") != "header"
                or header.get("fingerprint") != self.journal_fingerprint
                or header.get("shards") != len(self.shard_args)):
            warnings.warn(
                "supervised journal was written for different work "
                "(fingerprint/shard-count mismatch); ignoring it and "
                "running without journaling",
                stacklevel=2,
            )
            self.journal = None
            return
        for record in records[1:]:
            index = record.get("index")
            if not isinstance(index, int) or not (
                    0 <= index < len(self.shard_args)):
                continue
            if self.resolved[index]:
                continue
            if record.get("type") == "shard":
                self._collect(index, float(record.get("wall", 0.0)),
                              record.get("value"), from_journal=True)
            elif record.get("type") == "quarantine":
                # a quarantined shard is retried by the resumed run: the
                # failure may have been environmental (journal replays
                # it as *pending*, not as a verdict)
                continue

    # -- inline execution (jobs <= 1) ---------------------------------
    def run_inline(self) -> None:
        for index in range(len(self.shard_args)):
            if self.resolved[index]:
                continue
            if (self.deadline is not None
                    and time.perf_counter() > self.deadline):
                self.stats.timed_out.append(index)
                continue
            while True:
                self.attempts[index] += 1
                try:
                    wall, value = _timed_call(
                        self.task, self.shard_args[index])
                except Exception as exc:  # noqa: BLE001 - retry ladder
                    if self.attempts[index] >= self.max_attempts:
                        self._quarantine(
                            index, "exception",
                            f"{type(exc).__name__}: {exc}")
                        break
                    self.stats.retries += 1
                    time.sleep(backoff_delay(
                        self.seed, index, self.attempts[index] + 1,
                        self.backoff_base_s, self.backoff_max_s))
                else:
                    self._collect(index, wall, value)
                    break

    # -- pool execution -----------------------------------------------
    def run_pool(self) -> None:
        ctx = _mp_context()
        result_q = ctx.Queue()
        #: (index, eligible_at) of shards waiting for a worker slot
        pending = deque(
            (index, 0.0) for index in range(len(self.shard_args))
            if not self.resolved[index]
        )
        #: proc -> (index, attempt, started_at, dead_since or None)
        running: dict = {}
        workers = max(1, self.jobs)

        def spawn(index: int) -> None:
            self.attempts[index] += 1
            proc = ctx.Process(
                target=_supervised_worker,
                args=(result_q, index, self.attempts[index], self.task,
                      self.shard_args[index]),
                daemon=True,
            )
            proc.start()
            running[proc] = [index, self.attempts[index],
                             time.perf_counter(), None]

        def release(proc) -> None:
            running.pop(proc, None)
            proc.join(timeout=1.0)
            if proc.is_alive():  # pragma: no cover - stuck exiting
                proc.kill()
                proc.join(timeout=1.0)

        def retry_or_quarantine(index: int, kind: str,
                                detail: str) -> None:
            if self.resolved[index]:
                return
            if self.attempts[index] >= self.max_attempts:
                self._quarantine(index, kind, detail)
                return
            self.stats.retries += 1
            eligible = time.perf_counter() + backoff_delay(
                self.seed, index, self.attempts[index] + 1,
                self.backoff_base_s, self.backoff_max_s)
            pending.append((index, eligible))

        def drain(block_s: float = 0.0) -> bool:
            """Pull every available worker message; True if any."""
            got = False
            timeout = block_s
            while True:
                try:
                    message = result_q.get(
                        timeout=timeout) if timeout else result_q.get_nowait()
                except Empty:
                    return got
                got, timeout = True, 0.0
                status, index, attempt, wall, value = message
                owner = next(
                    (p for p, state in running.items()
                     if state[0] == index and state[1] == attempt), None)
                if owner is not None:
                    release(owner)
                if self.resolved[index]:
                    continue  # stale attempt beaten by journal/quarantine
                if status == "ok":
                    self._collect(index, wall, value)
                else:
                    retry_or_quarantine(index, "exception", value)

        try:
            while not all(self.resolved):
                now = time.perf_counter()
                # overall deadline: kill everything still running, mark
                # the unresolved shards timed out (None results)
                if self.deadline is not None and now > self.deadline:
                    for proc in list(running):
                        if proc.is_alive():
                            proc.kill()
                            self.stats.killed_workers += 1
                        release(proc)
                    for index in range(len(self.shard_args)):
                        if not self.resolved[index]:
                            self.stats.timed_out.append(index)
                    break
                # reap shards past their per-shard deadline
                if self.shard_deadline_s is not None:
                    for proc, state in list(running.items()):
                        index, attempt, started, __ = state
                        if now - started > self.shard_deadline_s:
                            if proc.is_alive():
                                proc.kill()
                                self.stats.killed_workers += 1
                            release(proc)
                            drain()  # a result may have raced the kill
                            retry_or_quarantine(
                                index, "deadline",
                                f"shard exceeded its "
                                f"{self.shard_deadline_s}s deadline")
                # declare crashed workers (dead, no result after grace)
                for proc, state in list(running.items()):
                    if proc.is_alive():
                        continue
                    if state[3] is None:
                        state[3] = now
                        continue
                    if now - state[3] < _CRASH_GRACE_S:
                        continue
                    drain()
                    if proc not in running:  # drain released it
                        continue
                    index = state[0]
                    release(proc)
                    retry_or_quarantine(
                        index, "crash",
                        f"worker exited with code {proc.exitcode} "
                        "before reporting a result")
                # fill free slots with eligible pending shards
                for __ in range(len(pending)):
                    if len(running) >= workers:
                        break
                    index, eligible = pending[0]
                    if self.resolved[index]:
                        pending.popleft()
                        continue
                    if eligible > now:
                        pending.rotate(-1)
                        continue
                    pending.popleft()
                    spawn(index)
                drain(block_s=_POLL_S)
            self.stats.mode = "pool"
        finally:
            for proc in list(running):
                if proc.is_alive():  # pragma: no cover - abnormal exit
                    proc.kill()
                proc.join(timeout=1.0)
            result_q.close()
            result_q.cancel_join_thread()


def run_supervised(
    task: Callable,
    shard_args: Sequence[tuple],
    *,
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    shard_deadline_s: Optional[float] = None,
    max_attempts: int = 2,
    backoff_base_s: float = 0.05,
    backoff_max_s: float = 2.0,
    seed: int = 0,
    on_result: Optional[Callable[[int, object], None]] = None,
    journal=None,
    journal_fingerprint: Optional[dict] = None,
) -> tuple[list, ParStats]:
    """Run ``task(*args)`` per shard under supervision (see module doc).

    Returns ``(results, stats)`` in shard order: each entry is the
    task's value, a :class:`ShardError` (quarantined after
    ``max_attempts``), or ``None`` (abandoned by ``timeout_s``,
    recorded in ``stats.timed_out``).  ``on_result(index, value)``
    fires in completion order the moment a shard lands -- including
    once per shard replayed from ``journal``.  An exception raised by
    ``on_result`` or the journal propagates, after the workers are
    reaped.

    ``journal`` is any object with ``append(dict)`` and ``replay()``
    (:class:`repro.serve.journal.Journal`); journaled values must be
    JSON-serializable -- note JSON turns tuples into lists, so resumed
    and fresh results agree only for JSON-shaped payloads, which all
    repro.par worker tasks return.  ``journal_fingerprint`` guards the
    journal against resuming different work.
    """
    supervisor = _Supervisor(
        task, shard_args, jobs, timeout_s, shard_deadline_s, max_attempts,
        backoff_base_s, backoff_max_s, seed, on_result, journal,
        journal_fingerprint,
    )
    supervisor._replay_journal()
    if not supervisor.shard_args or all(supervisor.resolved):
        pass
    elif jobs <= 1 or len(supervisor.shard_args) <= 1:
        supervisor.run_inline()
    else:
        try:
            supervisor.run_pool()
        except Exception as exc:
            if supervisor.in_caller:
                raise  # run_pool's finally has reaped the workers
            # a failure of the pool *infrastructure* (fork refusal,
            # queue teardown, pickling trouble) finishes the unresolved
            # shards inline instead of aborting -- worker failures never
            # get here, they are contained per-shard by the supervision
            supervisor.stats.mode = "pool+inline"
            supervisor.stats.fallback_reason = f"{type(exc).__name__}: {exc}"
            supervisor.run_inline()
    supervisor.stats.timed_out.sort()
    supervisor.stats.quarantined.sort()
    supervisor.stats.wall_s = time.perf_counter() - supervisor.start
    return supervisor.results, supervisor.stats
