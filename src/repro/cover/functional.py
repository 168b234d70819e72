"""Functional coverage: covergroup / coverpoint / cross primitives.

SystemVerilog-style functional coverage at the transaction level: a
:class:`Covergroup` owns named :class:`Coverpoint` bins and
:class:`Cross` products, sampled explicitly by a transactor wrapper.
:class:`La1FunctionalCoverage` is the LA-1 binding -- it instruments the
host transactor's ``read`` / ``write`` entry points (the same API on the
kernel-level :class:`~repro.core.sysc_model.La1Host` and the RTL
:class:`~repro.core.rtl_testbench.RtlHost`, so one covergroup serves
both sides of the Table 3 experiment) and records

* command kinds (``read`` / ``write``),
* the bank x command cross,
* back-to-back command pairs (``read_read`` ... ``write_write``),
* burst run lengths per kind (1 / 2 / 3 / 4+ consecutive same-kind
  commands).

All bins are declared up front from the device configuration, so a run
that never touches bank 3 still reports the hole.  Points land in the
``func.la1.<point>.<bin>`` namespace.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .db import CoverageDB

__all__ = ["Coverpoint", "Cross", "Covergroup", "La1FunctionalCoverage"]


class Coverpoint:
    """A named point with an explicit, finite bin set."""

    def __init__(self, name: str, bins: Sequence[str]):
        self.name = name
        self.bins = list(bins)
        self.hits = {label: 0 for label in self.bins}
        self.last: Optional[str] = None

    def sample(self, label: str) -> None:
        """Record one hit of ``label`` (must be a declared bin)."""
        if label not in self.hits:
            raise KeyError(f"coverpoint {self.name} has no bin {label!r}")
        self.hits[label] += 1
        self.last = label

    def __repr__(self):
        covered = sum(1 for n in self.hits.values() if n)
        return f"Coverpoint({self.name}, {covered}/{len(self.bins)} bins)"


class Cross:
    """The cartesian product of two coverpoints.

    Bins are ``"<a>@<b>"`` labels; :meth:`sample` reads the factors'
    ``last`` sampled bins, so the owning covergroup samples the factors
    first and then its crosses.
    """

    def __init__(self, name: str, a: Coverpoint, b: Coverpoint):
        self.name = name
        self.a = a
        self.b = b
        self.bins = [f"{x}@{y}" for x in a.bins for y in b.bins]
        self.hits = {label: 0 for label in self.bins}

    def sample(self) -> None:
        """Record the cross of the factors' most recent samples."""
        if self.a.last is None or self.b.last is None:
            return
        self.hits[f"{self.a.last}@{self.b.last}"] += 1

    def __repr__(self):
        covered = sum(1 for n in self.hits.values() if n)
        return f"Cross({self.name}, {covered}/{len(self.bins)} bins)"


class Covergroup:
    """A bundle of coverpoints and crosses harvested as one namespace."""

    def __init__(self, name: str):
        self.name = name
        self.points: list = []

    def coverpoint(self, name: str, bins: Sequence[str]) -> Coverpoint:
        """Declare a coverpoint; returns it for sampling."""
        point = Coverpoint(name, bins)
        self.points.append(point)
        return point

    def cross(self, name: str, a: Coverpoint, b: Coverpoint) -> Cross:
        """Declare a cross of two declared coverpoints."""
        product = Cross(name, a, b)
        self.points.append(product)
        return product

    def harvest(self, db: Optional[CoverageDB] = None,
                prefix: str = "func") -> CoverageDB:
        """Drain accumulated samples into ``db`` as
        ``<prefix>.<point>.<bin>`` hits (all bins declared).

        Draining keeps repeated harvests lossless: each sample is written
        to exactly one database, so shard merges sum to the sequential
        run's counts.
        """
        db = db if db is not None else CoverageDB()
        for point in self.points:
            for label in point.bins:
                key = f"{prefix}.{point.name}.{label}"
                db.declare(key)
                count = point.hits[label]
                if count:
                    db.hit(key, count)
                    point.hits[label] = 0
        return db

    def coverage(self) -> float:
        """Fraction of bins hit so far (without draining)."""
        total = hit = 0
        for point in self.points:
            total += len(point.bins)
            hit += sum(1 for n in point.hits.values() if n)
        return hit / total if total else 1.0

    def __repr__(self):
        return f"Covergroup({self.name}, {len(self.points)} points)"


#: burst run-length bins (consecutive same-kind commands)
_BURST_BINS = ("1", "2", "3", "4plus")


class La1FunctionalCoverage:
    """LA-1 transaction coverage bound at the host transactor.

    Wraps ``host.read`` / ``host.write`` of any
    :class:`~repro.core.sysc_model.HostQueue` (the kernel-level
    :class:`~repro.core.sysc_model.La1Host` and the RTL
    :class:`~repro.core.rtl_testbench.RtlHost`) and samples the
    covergroup on every queued command.
    :meth:`detach` restores the original methods.
    """

    def __init__(self, host, namespace: str = "func.la1"):
        self.host = host
        self.namespace = namespace
        banks = host.config.banks
        self.group = Covergroup("la1")
        self.cp_cmd = self.group.coverpoint("cmd", ["read", "write"])
        self.cp_bank = self.group.coverpoint(
            "bank", [f"b{b}" for b in range(banks)])
        self.cx_bank_cmd = self.group.cross(
            "bank_cmd", self.cp_cmd, self.cp_bank)
        self.cp_seq = self.group.coverpoint(
            "seq", [f"{a}_{b}" for a in ("read", "write")
                    for b in ("read", "write")])
        self.cp_burst = self.group.coverpoint(
            "burst", [f"{kind}_{length}" for kind in ("read", "write")
                      for length in _BURST_BINS])
        self._prev_kind: Optional[str] = None
        self._run_kind: Optional[str] = None
        self._run_length = 0
        self._attached = False
        self.samples = 0
        self.attach()

    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Instrument the host's transaction entry points (idempotent)."""
        if self._attached:
            return
        self._orig_read = self.host.read
        self._orig_write = self.host.write

        def read(bank, addr):
            self._on_command("read", bank)
            return self._orig_read(bank, addr)

        def write(bank, addr, word, byte_enables=None):
            self._on_command("write", bank)
            return self._orig_write(bank, addr, word, byte_enables)

        self.host.read = read
        self.host.write = write
        self._attached = True

    def detach(self) -> None:
        """Restore the host's original ``read`` / ``write`` methods."""
        if not self._attached:
            return
        self.host.read = self._orig_read
        self.host.write = self._orig_write
        self._attached = False

    # ------------------------------------------------------------------
    def _on_command(self, kind: str, bank: int) -> None:
        self.samples += 1
        self.cp_cmd.sample(kind)
        self.cp_bank.sample(f"b{bank}")
        self.cx_bank_cmd.sample()
        if self._prev_kind is not None:
            self.cp_seq.sample(f"{self._prev_kind}_{kind}")
        self._prev_kind = kind
        if kind == self._run_kind:
            self._run_length += 1
        else:
            self._flush_run()
            self._run_kind = kind
            self._run_length = 1

    def _flush_run(self) -> None:
        if self._run_kind is None or self._run_length == 0:
            return
        length = min(self._run_length, 4)
        label = _BURST_BINS[length - 1]
        self.cp_burst.sample(f"{self._run_kind}_{label}")
        self._run_length = 0

    # ------------------------------------------------------------------
    def harvest(self, db: Optional[CoverageDB] = None) -> CoverageDB:
        """Finalise the open burst and drain all samples into ``db``."""
        self._flush_run()
        self._run_kind = None
        return self.group.harvest(db, prefix=self.namespace)

    def coverage(self) -> float:
        """Current bin-coverage fraction (open burst not yet counted)."""
        return self.group.coverage()

    def __repr__(self):
        return (
            f"La1FunctionalCoverage({self.namespace}, "
            f"samples={self.samples}, attached={self._attached})"
        )
