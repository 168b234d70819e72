"""Unit tests for the service's durable state: the content-addressed
result store, the durable-write helper it shares with the campaign
checkpoint, and the write-ahead journal."""

import json
import os
import warnings

import pytest

from repro.fault.campaign import CampaignConfig, FaultCampaign
from repro.fault.models import RtlStuckAt
from repro.serve.journal import Journal
from repro.serve.store import ResultStore, content_key


# ----------------------------------------------------------------------
# content addressing
# ----------------------------------------------------------------------
class TestContentKey:
    def test_deterministic_and_order_insensitive(self):
        a = content_key("campaign", {"banks": 2, "seed": 7})
        b = content_key("campaign", {"seed": 7, "banks": 2})
        assert a == b
        assert len(a) == 32  # blake2b-16 hex

    def test_semantic_differences_land_elsewhere(self):
        base = content_key("campaign", {"banks": 2, "seed": 7})
        assert content_key("campaign", {"banks": 4, "seed": 7}) != base
        assert content_key("campaign", {"banks": 2, "seed": 8}) != base
        assert content_key("cover", {"banks": 2, "seed": 7}) != base


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        key = content_key("campaign", {"banks": 1})
        assert store.get(key) is None  # miss first
        store.put(key, {"counts": {"detected": 3}})
        assert store.get(key) == {"counts": {"detected": 3}}
        assert store.has(key) and len(store) == 1
        stats = store.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["writes"] == 1 and stats["corrupt"] == 0

    def test_no_temp_file_left_behind(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        key = content_key("mc", {"banks": 2})
        path = store.put(key, {"holds": True})
        parent = os.path.dirname(path)
        assert [n for n in os.listdir(parent) if ".tmp." in n] == []

    def test_overwrite_is_atomic_replace(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        key = content_key("mc", {"banks": 2})
        store.put(key, {"v": 1})
        store.put(key, {"v": 2})
        assert store.get(key) == {"v": 2}
        assert len(store) == 1

    def test_corrupt_entry_is_quarantined_miss(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        key = content_key("campaign", {"banks": 1})
        path = store.put(key, {"ok": True})
        with open(path, "w") as fh:
            fh.write('{"torn": tru')  # a pre-atomic writer died here
        with pytest.warns(UserWarning, match="corrupt"):
            assert store.get(key) is None
        assert os.path.exists(f"{path}.corrupt")
        assert not os.path.exists(path)
        assert store.stats()["corrupt"] == 1
        # the service recomputes and the key works again
        store.put(key, {"ok": True})
        assert store.get(key) == {"ok": True}

    def test_non_object_payload_is_miss(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        key = content_key("campaign", {"banks": 1})
        path = store.put(key, {"ok": True})
        with open(path, "w") as fh:
            json.dump([1, 2, 3], fh)
        with pytest.warns(UserWarning, match="non-object"):
            assert store.get(key) is None


# ----------------------------------------------------------------------
# the durable-write helper under the store and the campaign checkpoint
# ----------------------------------------------------------------------
def _crash_at_rename(monkeypatch) -> None:
    """Fail the durable-write helper between its fsync'd temp file and
    the rename that would publish it."""
    def crash(src, dst):
        raise OSError("crash at the rename")

    monkeypatch.setattr(os, "replace", crash)


class TestWriteAtomic:
    def test_failed_rename_keeps_store_entry(self, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path / "store"))
        key = content_key("campaign", {"banks": 1})
        path = store.put(key, {"v": 1})
        with open(path) as fh:
            before = fh.read()
        _crash_at_rename(monkeypatch)
        with pytest.raises(OSError, match="crash at the rename"):
            store.put(key, {"v": 2})
        monkeypatch.undo()
        with open(path) as fh:
            assert fh.read() == before
        assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]

    def test_failed_rename_keeps_checkpoint(self, tmp_path, monkeypatch):
        path = str(tmp_path / "ckpt.json")
        config = CampaignConfig(banks=1, traffic=8, rtl_cycles=80,
                                checkpoint_path=path)
        FaultCampaign(config).run(
            [RtlStuckAt("la1_top.bank0.read_port.st_out0", 0, 0)])
        with open(path) as fh:
            before = fh.read()
        _crash_at_rename(monkeypatch)
        with pytest.raises(OSError, match="crash at the rename"):
            FaultCampaign(config).run(
                [RtlStuckAt("la1_top.bank0.read_port.st_out1", 0, 0)])
        monkeypatch.undo()
        with open(path) as fh:
            assert fh.read() == before
        assert os.listdir(str(tmp_path)) == ["ckpt.json"]


# ----------------------------------------------------------------------
# the journal
# ----------------------------------------------------------------------
class TestJournal:
    def test_append_replay_round_trip(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        with Journal(path) as journal:
            journal.append({"type": "header", "fingerprint": {"x": 1}})
            journal.append({"type": "shard", "index": 0, "value": [1]})
        assert Journal(path).appended == 0  # per-process counter
        records = list(Journal(path).replay())
        assert [r["type"] for r in records] == ["header", "shard"]

    def test_missing_file_replays_empty(self, tmp_path):
        assert list(Journal(str(tmp_path / "nope.jsonl")).replay()) == []

    def test_torn_tail_ends_replay_with_warning(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        with Journal(path) as journal:
            journal.append({"type": "header"})
            journal.append({"type": "shard", "index": 0})
        with open(path, "a") as fh:
            fh.write('{"type": "shard", "ind')  # kill -9 mid-write
        with pytest.warns(UserWarning, match="torn"):
            records = list(Journal(path).replay())
        assert len(records) == 2  # everything before the tear is intact

    def test_append_after_replay_appends_not_truncates(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        with Journal(path) as journal:
            journal.append({"n": 1})
        with Journal(path) as journal:
            assert len(list(journal.replay())) == 1
            journal.append({"n": 2})
        assert [r["n"] for r in Journal(path).replay()] == [1, 2]

    @pytest.mark.parametrize("tail", [
        '{"type": "resu',  # kill -9 mid-record
        '{"i": 0.5}',  # the record landed, its newline did not
    ])
    def test_append_after_torn_tail_replays(self, tmp_path, tail):
        path = str(tmp_path / "wal.jsonl")
        with Journal(path) as journal:
            journal.append({"type": "header"})
            journal.append({"i": 0})
        with open(path, "a") as fh:
            fh.write(tail)
        with Journal(path) as journal:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                replayed = list(journal.replay())
            journal.append({"i": 1})
        # the restarted writer's record is not glued onto the torn line
        assert list(Journal(path).replay()) == replayed + [{"i": 1}]
