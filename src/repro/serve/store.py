"""The content-addressed result store behind the verification service.

Results are addressed by the blake2b hash of the *work's identity* --
for a campaign job that is ``(design fingerprint, stimulus seed,
config)``, canonically JSON-encoded by :func:`content_key` -- so two
users submitting the same verification work share one computation and
one stored result, regardless of submission order or concurrency.

Durability contract (the store may be hammered by many writers and
survive kill -9 at any instant):

* writes are atomic (:func:`write_atomic`, which the campaign
  checkpoint shares): the payload lands in a same-directory temp file,
  is flushed and fsync'd, and only then renamed over the final path
  with ``os.replace`` (readers see the old entry or the new one, never
  a torn one); the containing directory is fsync'd so the rename itself
  survives a crash;
* a corrupt entry (torn by a pre-atomic writer, or bit-rotted) reads as
  a *miss with a warning*, never an exception -- the service recomputes
  and atomically replaces it; the corrupt file is quarantined aside
  with a ``.corrupt`` suffix for post-mortem.

Entries are sharded into 256 two-hex-digit subdirectories so a store
holding millions of results never puts millions of entries in one
directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import warnings
from typing import Optional

__all__ = ["content_key", "ResultStore", "write_atomic"]


def content_key(kind: str, fingerprint: dict) -> str:
    """The content address of one piece of verification work: blake2b
    over the canonical JSON of ``(kind, fingerprint)``.  Equal work --
    regardless of dict ordering -- hashes equal; any semantic difference
    (one more bank, a different stimulus seed) lands elsewhere."""
    canon = json.dumps([kind, fingerprint], sort_keys=True,
                       separators=(",", ":"))
    return hashlib.blake2b(canon.encode(), digest_size=16).hexdigest()


def write_atomic(path: str, text: str) -> None:
    """Durably replace ``path`` with ``text``: a same-directory temp
    file, fsync'd, renamed over ``path`` with ``os.replace``, then the
    directory fsync'd so the rename itself survives a crash.  A reader
    -- or a process killed at any instant -- sees the old file or the
    new one, never a torn one.  On any failure before the rename the
    temp file is removed and the error re-raised."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    try:
        fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class ResultStore:
    """A content-addressed JSON store with atomic, durable writes."""

    def __init__(self, root: str):
        self.root = root
        #: accounting surfaced through the server's /healthz
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.writes = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    # -- writing -------------------------------------------------------
    def put(self, key: str, payload: dict) -> str:
        """Atomically store ``payload`` under ``key``; returns the final
        path.  Concurrent writers of the same key are safe: whichever
        ``os.replace`` lands last wins wholesale."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_atomic(path, json.dumps(payload, sort_keys=True))
        self.writes += 1
        return path

    # -- reading -------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        """The stored payload, or None on miss.  A corrupt entry is
        quarantined aside and reads as a miss (the caller recomputes)."""
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError) as exc:
            self.corrupt += 1
            self.misses += 1
            quarantined = f"{path}.corrupt"
            try:
                os.replace(path, quarantined)
            except OSError:  # pragma: no cover - raced with a rewriter
                quarantined = "<unquarantinable>"
            warnings.warn(
                f"result store entry {key} is corrupt ({exc}); moved to "
                f"{quarantined} and treated as a miss",
                stacklevel=2,
            )
            return None
        if not isinstance(payload, dict):
            self.corrupt += 1
            self.misses += 1
            warnings.warn(
                f"result store entry {key} holds a non-object payload; "
                "treated as a miss",
                stacklevel=2,
            )
            return None
        self.hits += 1
        return payload

    def has(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def __len__(self) -> int:
        count = 0
        if not os.path.isdir(self.root):
            return 0
        for shard in os.listdir(self.root):
            shard_dir = os.path.join(self.root, shard)
            if os.path.isdir(shard_dir):
                count += sum(1 for name in os.listdir(shard_dir)
                             if name.endswith(".json"))
        return count

    def stats(self) -> dict:
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "writes": self.writes,
        }

    def __repr__(self):
        return f"ResultStore({self.root!r}, {len(self)} entries)"
