"""Host-side testbench for the RTL LA-1 model.

Drives an :class:`~repro.rtl.simulator.RtlSimulator` holding the LA-1 top
with the same edge discipline as the kernel-level
:class:`~repro.core.sysc_model.La1Host`: read selects and the read address
are presented for rising K; the write address, first beat and its byte
enables for the following rising K#; the second beat for the next rising
K.  Completed reads are collected off the shared (tristate) data bus, so
the two hosts produce directly comparable transaction logs -- the
cross-level equivalence tests rely on this.
"""

from __future__ import annotations

from ..rtl.simulator import RtlSimulator
from .spec import La1Config
from .sysc_model import HostQueue, ReadResult

__all__ = ["LaneVec", "RtlHost"]


class LaneVec:
    """Per-lane input values for one transaction field.

    Queue a read/write with a ``LaneVec`` instead of an int and
    :class:`RtlHost` drives the field through
    :meth:`~repro.rtl.simulator.RtlSimulator.set_input_lanes`, so lane
    *i* of a bitpar simulator sees ``values[i]`` while the shared
    command schedule (selects, ordering) stays identical across lanes.
    The handful of int operators the host applies to transaction fields
    (beat slicing, byte-enable masking) work elementwise.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = list(values)

    def lane(self, index: int) -> int:
        return self.values[index]

    def __len__(self) -> int:
        return len(self.values)

    def __rshift__(self, n: int) -> "LaneVec":
        return LaneVec([v >> n for v in self.values])

    def __lshift__(self, n: int) -> "LaneVec":
        return LaneVec([v << n for v in self.values])

    def __and__(self, mask: int) -> "LaneVec":
        return LaneVec([v & mask for v in self.values])

    def __or__(self, other) -> "LaneVec":
        if isinstance(other, LaneVec):
            return LaneVec([a | b for a, b in zip(self.values, other.values)])
        return LaneVec([v | other for v in self.values])

    def __xor__(self, mask: int) -> "LaneVec":
        return LaneVec([v ^ mask for v in self.values])

    def __eq__(self, other) -> bool:
        return isinstance(other, LaneVec) and self.values == other.values

    def __repr__(self) -> str:
        return f"LaneVec({self.values!r})"


def _lane0(value) -> int:
    """Scalar (lane-0) view of a transaction field."""
    return value.lane(0) if isinstance(value, LaneVec) else value


class RtlHost(HostQueue):
    """Transaction driver + monitor for the RTL model."""

    def __init__(self, sim: RtlSimulator, config: La1Config,
                 top_name: str = "la1_top", concurrent: bool = False):
        super().__init__(config, concurrent)
        self.sim = sim
        self.top = top_name
        # the issue/collect logic polls a handful of nets many times per
        # cycle; pre-render their hierarchical paths once instead of
        # formatting f-strings on every poll
        self._in_paths = {
            name: f"{top_name}.{name}"
            for name in ("r_sel", "w_sel", "addr", "wdata", "bw")
        }
        self._stat_paths = {
            (bank, name): f"{top_name}.bank{bank}.{name}"
            for bank in range(config.banks)
            for name in (
                "stat_read_req", "stat_read_fetch", "stat_data_valid",
                "stat_data_valid2", "stat_write_sel", "stat_write_data",
                "stat_write_commit",
            )
        }
        self._data_bus = f"{top_name}.data_bus"
        self._par_bus = f"{top_name}.par_bus"
        self.half_cycles = 0

    # -- helpers -----------------------------------------------------------
    def _in(self, name: str, value) -> None:
        if isinstance(value, LaneVec):
            self.sim.set_input_lanes(self._in_paths[name], value.values)
        else:
            self.sim.set_input(self._in_paths[name], value)

    def _stat(self, bank: int, name: str) -> int:
        return self.sim.read(self._stat_paths[bank, name])

    def _sample_bus(self) -> list:
        """Sample the shared data/parity buses at a collection point.

        Split out so subclasses (e.g. the lane-class hosts of
        :mod:`repro.fault.ppsfp`) can capture per-lane words instead of
        the scalar (lane-0) values."""
        return [self.sim.read(self._data_bus), self.sim.read(self._par_bus)]

    def _finish_read(self, bank: int, addr: int, issued: int,
                     sample0: list, sample1: list) -> None:
        """Combine the two beat samples of a completed read into a
        :class:`ReadResult` (subclass hook, like :meth:`_sample_bus`)."""
        beat0, par0 = sample0
        beat1, par1 = sample1
        word = beat0 | (beat1 << self.config.beat_bits)
        self.results.append(
            ReadResult(bank, _lane0(addr), word, (beat0, beat1),
                       (par0, par1), issued, self.half_cycles)
        )

    def _any_read_busy(self) -> bool:
        return any(
            self._stat(b, "stat_read_req")
            or self._stat(b, "stat_read_fetch")
            or self._stat(b, "stat_data_valid")
            or self._stat(b, "stat_data_valid2")
            for b in range(self.config.banks)
        ) or bool(self._read_watch)

    def _any_write_busy(self) -> bool:
        return self._pending_write is not None or any(
            self._stat(b, "stat_write_sel") or self._stat(b, "stat_write_data")
            for b in range(self.config.banks)
        )

    # -- one full clock period ----------------------------------------------
    def cycle(self) -> None:
        """Drive one K edge then one K# edge, issuing and collecting."""
        self.setup_k()
        self.sim.step("K")
        self.observe_k()
        self.setup_k_sharp()
        self.sim.step("K#")
        self.observe_k_sharp()

    def setup_k(self) -> None:
        """Set up the K edge: issue the head read or write when the
        pipelines allow it, and drive the second beat of a write in its
        data phase."""
        r_sel_bits = 0
        w_sel_bits = 0
        read_busy = self._any_read_busy()
        write_busy = self._any_write_busy()
        issue_read = (
            self._read_is_head()
            and not read_busy
            and (self.concurrent or not write_busy)
        )
        if issue_read:
            __, bank, addr = self._reads.popleft()
            r_sel_bits |= 1 << bank
            self._in("addr", addr)
            self._read_watch.append((bank, addr, self.half_cycles))
        issue_write = (
            self._write_is_head()
            and not write_busy
            and (self.concurrent or not (read_busy or issue_read))
        )
        if issue_write:
            __, bank, addr, word, bw = self._writes.popleft()
            w_sel_bits |= 1 << bank
            self._pending_write = (bank, addr, word, bw, "sel")
        self._in("r_sel", r_sel_bits)
        self._in("w_sel", w_sel_bits)
        # beat1 of a write in its data phase is sampled at this K edge
        if self._pending_write is not None and self._pending_write[4] == "data":
            bank, addr, word, bw, __ = self._pending_write
            self._in("wdata", self._beat_of(word, 1))
            self._in("bw", (bw >> self.config.byte_lanes)
                     & ((1 << self.config.byte_lanes) - 1))
            self._pending_write = None

    def observe_k(self) -> None:
        """After the K edge: sample the first beat of the watched read."""
        self.half_cycles += 1
        for b in range(self.config.banks):
            if self._stat(b, "stat_data_valid") and self._read_watch \
                    and self._read_watch[0][0] == b:
                self._collecting = self._sample_bus()

    def setup_k_sharp(self) -> None:
        """Set up the K# edge: the address, first beat and its byte
        enables of a write in its select phase."""
        if self._pending_write is not None and self._pending_write[4] == "sel":
            bank, addr, word, bw, __ = self._pending_write
            self._in("addr", addr)
            self._in("wdata", self._beat_of(word, 0))
            self._in("bw", bw & ((1 << self.config.byte_lanes) - 1))
            self._pending_write = (bank, addr, word, bw, "data")

    def observe_k_sharp(self) -> None:
        """After the K# edge: sample the second beat and complete the
        watched read."""
        self.half_cycles += 1
        for b in range(self.config.banks):
            if self._stat(b, "stat_data_valid2") and self._read_watch \
                    and self._read_watch[0][0] == b \
                    and self._collecting is not None:
                bank, addr, issued = self._read_watch.popleft()
                sample0 = self._collecting
                self._collecting = None
                self._finish_read(bank, addr, issued, sample0,
                                  self._sample_bus())

    def run_cycles(self, n: int) -> None:
        """Run ``n`` full clock periods."""
        for __ in range(n):
            self.cycle()

    def run_until_idle(self, max_cycles: int = 10000) -> None:
        """Run until every queued transaction has completed."""
        for __ in range(max_cycles):
            if self.idle:
                return
            self.cycle()
        raise RuntimeError("RtlHost did not drain within the cycle budget")
