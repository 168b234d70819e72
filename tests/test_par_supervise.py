"""Unit tests for repro.par.supervise: the retry / quarantine / reap /
journal ladder underneath the verification service.  Chaos (worker
crashes, hangs) is injected with exactly-once marker files claimed via
O_CREAT|O_EXCL, so every scenario is deterministic."""

import os
import time

import pytest

from repro.par import ShardError, backoff_delay, run_supervised
from repro.serve.journal import Journal


# ----------------------------------------------------------------------
# module-level tasks (must be picklable / importable in workers)
# ----------------------------------------------------------------------
def _square(values):
    return [v * v for v in values]


def _count_and_square(values, count_path):
    with open(count_path, "a") as handle:
        handle.write(f"{values}\n")
    return [v * v for v in values]


def _log_pid_and_square(values, log_path):
    with open(log_path, "a") as handle:
        handle.write(f"{os.getpid()}\n")
    return [v * v for v in values]


def _sleep_then_echo(values, seconds):
    time.sleep(seconds)
    return list(values)


def _poison(values):
    if "bad" in values:
        raise ValueError("poisoned shard")
    return [v * v for v in values if v != "bad"]


def _claim(marker):
    """True exactly once per marker path, across all processes."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        return True
    except FileExistsError:
        return False


def _crash_once(values, marker):
    if "die" in values and _claim(marker):
        os._exit(137)
    return [v * v for v in values if v != "die"]


def _hang_once(values, marker):
    if "hang" in values and _claim(marker):
        time.sleep(600)
    return [v * v for v in values if v != "hang"]


def _tolerant(values):
    return [v for v in values]


def _hang_always(values):
    if "hang" in values:
        time.sleep(600)
    return list(values)


# ----------------------------------------------------------------------
# backoff
# ----------------------------------------------------------------------
class TestBackoffDelay:
    def test_deterministic(self):
        assert backoff_delay(7, 3, 2, 0.1, 2.0) == \
            backoff_delay(7, 3, 2, 0.1, 2.0)

    def test_jitter_bounds_and_exponential_cap(self):
        for attempt in range(2, 10):
            delay = backoff_delay(0, 0, attempt, 0.1, 2.0)
            uncapped = min(2.0, 0.1 * 2.0 ** (attempt - 2))
            assert 0.5 * uncapped <= delay < 1.5 * uncapped

    def test_decorrelated_across_shards(self):
        delays = {backoff_delay(0, i, 2, 0.1, 2.0) for i in range(8)}
        assert len(delays) == 8


# ----------------------------------------------------------------------
# the happy path and the failure ladder
# ----------------------------------------------------------------------
class TestRunSupervised:
    def test_inline_matches_pool(self):
        args = [([i, i + 1],) for i in range(5)]
        inline, s1 = run_supervised(_square, args, jobs=1)
        pooled, s2 = run_supervised(_square, args, jobs=3)
        assert inline == pooled == [[i * i, (i + 1) ** 2]
                                    for i in range(5)]
        assert not s1.quarantined and not s2.quarantined
        assert s2.mode == "pool"

    def test_on_result_fires_once_per_shard(self):
        seen = []
        args = [([i],) for i in range(4)]
        run_supervised(_square, args, jobs=2,
                       on_result=lambda i, v: seen.append((i, v)))
        assert sorted(seen) == [(0, [0]), (1, [1]), (2, [4]), (3, [9])]

    def test_poison_shard_quarantined_others_complete(self):
        args = [([1],), (["bad"],), ([3],)]
        results, stats = run_supervised(
            _poison, args, jobs=2, max_attempts=2, backoff_base_s=0.01)
        assert results[0] == [1] and results[2] == [9]
        error = results[1]
        assert isinstance(error, ShardError)
        assert error.kind == "exception" and error.attempts == 2
        assert "poisoned" in error.detail
        assert stats.quarantined == [1]
        assert stats.retries == 1  # one failed attempt was re-tried

    def test_poison_quarantined_inline_too(self):
        results, stats = run_supervised(
            _poison, [(["bad"],), ([2],)], jobs=1, max_attempts=3,
            backoff_base_s=0.001)
        assert isinstance(results[0], ShardError)
        assert results[0].attempts == 3
        assert results[1] == [4]
        assert stats.quarantined == [0] and stats.retries == 2

    def test_crashed_worker_is_retried(self, tmp_path):
        marker = str(tmp_path / "die.marker")
        args = [([1, "die"], marker), ([2], marker)]
        results, stats = run_supervised(
            _crash_once, args, jobs=2, max_attempts=3,
            backoff_base_s=0.01)
        assert results == [[1], [4]]  # the retry succeeded
        assert stats.retries == 1
        assert not stats.quarantined

    def test_hung_worker_is_reaped_and_retried(self, tmp_path):
        marker = str(tmp_path / "hang.marker")
        args = [(["hang", 2], marker), ([3], marker)]
        start = time.perf_counter()
        results, stats = run_supervised(
            _hang_once, args, jobs=2, shard_deadline_s=0.6,
            max_attempts=3, backoff_base_s=0.01)
        wall = time.perf_counter() - start
        assert results == [[4], [9]]
        assert stats.killed_workers >= 1
        assert stats.retries >= 1
        assert wall < 30  # reaped, not waited out

    def test_always_hanging_shard_quarantined_as_deadline(self):
        results, stats = run_supervised(
            _hang_always, [(["hang"],), ([5],)], jobs=2,
            shard_deadline_s=0.4, max_attempts=2, backoff_base_s=0.01)
        error = results[0]
        assert isinstance(error, ShardError)
        assert error.kind == "deadline"
        assert results[1] == [5]
        assert stats.killed_workers >= 2  # both attempts reaped

    def test_pool_infrastructure_failure_degrades_inline(
            self, monkeypatch):
        def broken_context():
            raise OSError("no fork for you")

        monkeypatch.setattr(
            "repro.par.supervise._mp_context", broken_context)
        args = [([i],) for i in range(3)]
        results, stats = run_supervised(_square, args, jobs=2)
        assert results == [[0], [1], [4]]
        assert stats.mode == "pool+inline"
        assert "no fork for you" in stats.fallback_reason

    def test_overall_timeout_inline_lets_running_shard_finish(self):
        # a coordinator cannot kill itself: the shard running at the
        # deadline completes, the ones after it are abandoned
        results, stats = run_supervised(
            _sleep_then_echo, [([i], 0.3) for i in range(3)], jobs=1,
            timeout_s=0.1)
        assert results == [[0], None, None]
        assert stats.timed_out == [1, 2]

    def test_overall_timeout_kills_running_workers(self):
        start = time.perf_counter()
        results, stats = run_supervised(
            _sleep_then_echo, [([i], 600) for i in range(4)], jobs=2,
            timeout_s=0.1)
        assert results == [None] * 4
        assert stats.timed_out == [0, 1, 2, 3]
        assert stats.killed_workers >= 1
        assert time.perf_counter() - start < 30  # killed, not waited out

    def test_retries_never_change_result_content(self, tmp_path):
        # the satellite property: chaos perturbs timing stats only --
        # results are bit-identical to an undisturbed run
        for seed in (0, 1, 2):
            args = [([seed, "die"], str(tmp_path / f"m{seed}")),
                    ([seed + 1], str(tmp_path / f"m{seed}"))]
            chaotic, chaotic_stats = run_supervised(
                _crash_once, args, jobs=2, max_attempts=3,
                backoff_base_s=0.01, seed=seed)
            clean_args = [([seed, "die"], str(tmp_path / f"claimed{seed}")),
                          ([seed + 1], str(tmp_path / f"claimed{seed}"))]
            # pre-claim the marker so the clean run never crashes
            _claim(str(tmp_path / f"claimed{seed}"))
            clean, clean_stats = run_supervised(
                _crash_once, clean_args, jobs=1, seed=seed)
            assert chaotic == clean
            assert chaotic_stats.retries == 1 and clean_stats.retries == 0


# ----------------------------------------------------------------------
# the write-ahead journal and resume
# ----------------------------------------------------------------------
class TestJournalResume:
    FP = {"work": "squares", "n": 3}

    def test_resume_replays_without_recompute(self, tmp_path):
        journal_path = str(tmp_path / "wal.jsonl")
        count_path = str(tmp_path / "count.log")
        args = [([i], count_path) for i in range(3)]
        with Journal(journal_path) as journal:
            first, s1 = run_supervised(
                _count_and_square, args, jobs=1, journal=journal,
                journal_fingerprint=self.FP)
        assert s1.journal_hits == 0
        with Journal(journal_path) as journal:
            second, s2 = run_supervised(
                _count_and_square, args, jobs=1, journal=journal,
                journal_fingerprint=self.FP)
        assert second == first == [[0], [1], [4]]
        assert s2.journal_hits == 3
        # every shard was computed exactly once across both runs
        with open(count_path) as handle:
            assert len(handle.readlines()) == 3

    def test_coordinator_killed_mid_run_resumes_bit_identically(
            self, tmp_path):
        # simulate the coordinator dying between on_result callbacks:
        # the journal already holds the collected shards durably
        journal_path = str(tmp_path / "wal.jsonl")
        count_path = str(tmp_path / "count.log")
        args = [([i], count_path) for i in range(5)]

        class Killed(Exception):
            pass

        collected = []

        def die_after_two(index, value):
            collected.append(index)
            if len(collected) == 2:
                raise Killed()

        journal = Journal(journal_path)
        with pytest.raises(Killed):
            run_supervised(_count_and_square, args, jobs=1,
                           journal=journal, journal_fingerprint=self.FP,
                           on_result=die_after_two)
        journal.close()

        replayed = []
        with Journal(journal_path) as journal:
            resumed, stats = run_supervised(
                _count_and_square, args, jobs=1, journal=journal,
                journal_fingerprint=self.FP,
                on_result=lambda i, v: replayed.append(i))
        undisturbed, __ = run_supervised(
            _square, [([i],) for i in range(5)], jobs=1)
        assert resumed == undisturbed  # bit-identical final results
        assert stats.journal_hits == 2
        assert sorted(replayed) == [0, 1, 2, 3, 4]  # replays refire too
        # no completed shard was recomputed after the resume
        with open(count_path) as handle:
            assert len(handle.readlines()) == 5

    def test_on_result_exception_is_not_a_pool_failure(self, tmp_path):
        # the caller's on_result raising must escape once: no shard is
        # re-run in the coordinator, none is journaled twice
        journal_path = str(tmp_path / "wal.jsonl")
        log_path = str(tmp_path / "pids.log")
        args = [([i], log_path) for i in range(4)]

        class Killed(Exception):
            pass

        calls = []

        def die_on_first(index, value):
            calls.append(index)
            raise Killed()

        with Journal(journal_path) as journal:
            with pytest.raises(Killed):
                run_supervised(_log_pid_and_square, args, jobs=2,
                               journal=journal, journal_fingerprint=self.FP,
                               on_result=die_on_first)
        assert len(calls) == 1
        with open(log_path) as handle:
            assert str(os.getpid()) not in handle.read().split()
        with Journal(journal_path) as journal:
            shards = [r for r in journal.replay() if r["type"] == "shard"]
        assert len(shards) == 1

    def test_foreign_journal_is_ignored_with_warning(self, tmp_path):
        journal_path = str(tmp_path / "wal.jsonl")
        args = [([i],) for i in range(2)]
        with Journal(journal_path) as journal:
            run_supervised(_square, args, jobs=1, journal=journal,
                           journal_fingerprint={"work": "a"})
        with Journal(journal_path) as journal:
            with pytest.warns(UserWarning, match="different work"):
                results, stats = run_supervised(
                    _square, args, jobs=1, journal=journal,
                    journal_fingerprint={"work": "b"})
        assert results == [[0], [1]]
        assert stats.journal_hits == 0

    def test_quarantine_is_replayed_as_pending(self, tmp_path):
        # a shard quarantined last run (maybe an environmental failure)
        # must be *retried* on resume, not adopted as a verdict
        journal_path = str(tmp_path / "wal.jsonl")
        fingerprint = {"work": "poison"}
        with Journal(journal_path) as journal:
            results, __ = run_supervised(
                _poison, [(["bad"],), ([2],)], jobs=1, max_attempts=1,
                journal=journal, journal_fingerprint=fingerprint)
        assert isinstance(results[0], ShardError)
        # "the environment heals": same journal, now the task succeeds
        with Journal(journal_path) as journal:
            results, stats = run_supervised(
                _tolerant, [(["bad"],), ([2],)], jobs=1, max_attempts=1,
                journal=journal, journal_fingerprint=fingerprint)
        assert results == [["bad"], [4]]
        assert stats.journal_hits == 1  # shard 1 replayed, shard 0 reran
