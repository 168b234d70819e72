"""Crash-safe write-ahead journaling for coordinators and the server.

A :class:`Journal` is an append-only JSONL file with one durability
guarantee: :meth:`append` returns only after the record's bytes are
flushed *and* fsync'd, so a coordinator killed at any instant finds
every record it ever appended -- except possibly a torn final line,
which a crash mid-``write`` can leave behind.  :meth:`replay` therefore
treats a truncated or corrupt *tail* line as the end of the journal
(with a warning) instead of an error; a corrupt line in the *middle*
also stops replay there, on the grounds that nothing after a torn write
can be trusted to have been ordered correctly.  Before its first
append a journal cuts the file back to the end of the last record
replay yields (newline-terminating that record if the crash took only
its newline), so a record appended after a crash is never glued onto
the torn line -- where the next replay would drop it.

The first record of a journal is conventionally a ``header`` carrying a
fingerprint of the work the journal describes.  :meth:`matches` lets a
resuming coordinator refuse a journal written for different work (the
records would be meaningless) without crashing: a mismatched journal
simply replays as empty.

Used by :func:`repro.par.supervise.run_supervised` to make shard
results durable the moment they are collected, and by
:class:`repro.serve.server.VerificationServer` to persist job
submissions and completions across restarts.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import BinaryIO, Iterator, Optional

__all__ = ["Journal"]


class Journal:
    """An append-only, fsync'd JSONL journal.

    The file handle opens lazily on first :meth:`append` (a journal that
    is only ever replayed never creates its file) and stays open for the
    journal's lifetime so repeated appends pay one ``fsync`` each, not
    an open/close pair.
    """

    def __init__(self, path: str):
        self.path = path
        self._fh: Optional[BinaryIO] = None
        #: records appended by *this* process (replayed ones excluded)
        self.appended = 0

    # -- writing -------------------------------------------------------
    def _handle(self) -> BinaryIO:
        if self._fh is None:
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
            end = 0
            for __, end in self._records(warn=False):
                pass
            # cut a torn tail back to the last intact record, ending that
            # record's line if the crash took only its newline: a record
            # appended after torn bytes is glued onto them, and the next
            # replay drops both.  The first append's fsync makes the cut
            # durable.
            fh = self._fh = open(self.path, "a+b")
            fh.truncate(end)
            fh.seek(max(end - 1, 0))
            if fh.read(1) not in (b"", b"\n"):
                fh.write(b"\n")
        return self._fh

    def append(self, record: dict) -> None:
        """Durably append one record: newline-framed canonical JSON,
        flushed and fsync'd before returning."""
        fh = self._handle()
        fh.write((json.dumps(record, sort_keys=True) + "\n").encode())
        fh.flush()
        os.fsync(fh.fileno())
        self.appended += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- replay --------------------------------------------------------
    def replay(self) -> Iterator[dict]:
        """Yield every intact record in append order.

        A missing file replays as empty.  A torn line (crash mid-write)
        ends the replay with a warning; everything before it is intact
        by the fsync-per-append contract.
        """
        for record, __ in self._records():
            yield record

    def _records(self, warn: bool = True) -> Iterator[tuple]:
        """``(record, end offset)`` of every intact record, in order."""
        if not os.path.exists(self.path):
            return
        end = 0
        with open(self.path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                end += len(line)
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    problem = (f"discarding torn record at line {lineno} "
                               "(crash mid-write)")
                else:
                    if isinstance(record, dict):
                        yield record, end
                        continue
                    problem = f"non-object record at line {lineno}"
                if warn:
                    warnings.warn(
                        f"journal {self.path}: {problem}; replay stops here",
                        stacklevel=3,
                    )
                return

    def matches(self, fingerprint: dict) -> bool:
        """True when the journal is empty/new or its header record's
        fingerprint equals ``fingerprint`` -- the guard a resuming
        coordinator uses before trusting replayed shard results."""
        for record in self.replay():
            if record.get("type") == "header":
                return record.get("fingerprint") == fingerprint
            return False  # first record is not a header: unknown origin
        return True

    def __repr__(self):
        return f"Journal({self.path!r}, appended={self.appended})"
