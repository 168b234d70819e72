"""The SystemC-level LA-1 model (the paper's Section 4.3).

"The SystemC design is directly obtained from the ASM model using a syntax
transformation ... every class from the ASM model is translated to a
SystemC module.  The pre-conditions in the ASM methods are included ... as
triggering conditions for the SystemC methods."  Accordingly:

* :class:`SramMemory` -- the SRAM array class (byte-merge writes);
* :class:`ReadPort` / :class:`WritePort` -- the port classes, as kernel
  modules with one method process per clock edge (the ASM rules' clock
  preconditions become edge sensitivities);
* :class:`La1Bank` -- one bank: both ports plus its array;
* :class:`La1Device` -- the N-bank device of Figure 1: the master clock
  pair, a single shared address bus, unidirectional write and read data
  paths, per-bank select lines, and a read-bus multiplexer standing in
  for the RTL tristate buffers (with single-driver checking);
* :class:`La1Host` -- the host-side driver: a transaction queue
  (:class:`HostQueue`, shared with the RTL host) that presents
  selects/addresses/data on the correct edges (read address on K, write
  address and first beat on the following K#, second beat on the next
  K) and collects completed read words.

Data here is concrete (16-bit beats by default, with even byte parity),
unlike the ASM model's abstract words -- this level refines the data
path while preserving the control behaviour, which the conformance check
(:mod:`repro.core.conformance`) verifies.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..sysc.clock import ClockPair
from ..sysc.kernel import Simulator
from ..sysc.module import Module
from ..sysc.signal import Signal
from .spec import (
    BEATS_PER_WORD,
    La1Config,
    even_parity_int,
    merge_byte_lanes,
)

__all__ = [
    "SramMemory",
    "ReadPort",
    "WritePort",
    "La1Bank",
    "La1Device",
    "HostQueue",
    "La1Host",
    "ReadResult",
    "build_la1_system",
]


class SramMemory:
    """A bank's SRAM array: word read, byte-merged write.

    This is the paper's ``SRAM_Memory`` class; it is plain storage (no
    processes) accessed synchronously by the two ports.
    """

    def __init__(self, config: La1Config):
        self.config = config
        self._words = [0] * config.mem_words

    def read(self, addr: int) -> int:
        """Read the full word at ``addr``."""
        return self._words[addr % self.config.mem_words]

    def write(self, addr: int, word: int, byte_enables: Optional[int] = None) -> None:
        """Write ``word``; ``byte_enables`` selects 8-bit lanes (None = all)."""
        addr %= self.config.mem_words
        lanes = self.config.byte_lanes * BEATS_PER_WORD
        if byte_enables is None:
            byte_enables = (1 << lanes) - 1
        if self.config.beat_bits >= 8:
            merged = merge_byte_lanes(self._words[addr], word, byte_enables, lanes)
        else:
            # sub-byte scale model: enables act on whole beats
            merged = word if byte_enables else self._words[addr]
        self._words[addr] = merged & ((1 << self.config.word_bits) - 1)

    def snapshot(self) -> tuple:
        """The whole array (for conformance comparison)."""
        return tuple(self._words)


class ReadPort(Module):
    """One bank's read port: the Figure 3 pipeline.

    Stages advance on rising K (request capture, array access, first
    beat) and rising K# (second beat), publishing the same status strobes
    the ASM atoms observe plus the concrete DDR beats with parity.
    """

    def __init__(self, sim: Simulator, name: str, parent: Module,
                 config: La1Config, memory: SramMemory,
                 clocks: ClockPair, r_sel: Signal, addr_bus: Signal):
        super().__init__(sim, name, parent)
        self.config = config
        self.memory = memory
        self.r_sel = r_sel
        self.addr_bus = addr_bus
        # pipeline state (module-internal, like the ASM rp variable)
        self._stage = "idle"
        self._addr = 0
        self._word = 0
        # published status and data signals
        self.stat_read_req = self.signal("stat_read_req", False)
        self.stat_read_fetch = self.signal("stat_read_fetch", False)
        self.stat_data_valid = self.signal("stat_data_valid", False)
        self.stat_data_valid2 = self.signal("stat_data_valid2", False)
        self.data_out = self.signal("data_out", 0)
        self.parity_out = self.signal("parity_out", 0)
        self.method_process(self._on_k, (clocks.posedge_k,), "on_k")
        self.method_process(self._on_k_sharp, (clocks.posedge_k_bar,), "on_k_sharp")

    # ------------------------------------------------------------------
    def _beat(self, index: int) -> int:
        shift = index * self.config.beat_bits
        return (self._word >> shift) & ((1 << self.config.beat_bits) - 1)

    def _beat_parity(self, beat: int) -> int:
        lanes = self.config.byte_lanes
        if self.config.beat_bits < 8:
            return even_parity_int(beat, self.config.beat_bits)
        parity = 0
        for lane in range(lanes):
            parity |= even_parity_int((beat >> (8 * lane)) & 0xFF, 8) << lane
        return parity

    def _on_k(self) -> None:
        stage = self._stage
        # advance the pipeline from the pre-edge stage
        if stage == "req":
            self._word = self.memory.read(self._addr)
            self._stage = "fetch"
            self.stat_read_fetch.write(True)
        elif stage == "fetch":
            self._stage = "out0"
            self.stat_read_fetch.write(False)
            self.stat_data_valid.write(True)
            self.data_out.write(self._beat(0))
            self.parity_out.write(self._beat_parity(self._beat(0)))
        elif stage == "out1":
            self._stage = "idle"
        # request capture (the ASM guard: port idle)
        if self.r_sel.read() and self._stage == "idle" and stage not in (
            "req", "fetch", "out0"
        ):
            self._addr = int(self.addr_bus.read())
            self._stage = "req"
            self.stat_read_req.write(True)

    def _on_k_sharp(self) -> None:
        self.stat_read_req.write(False)
        if self._stage == "out0":
            self._stage = "out1"
            self.stat_data_valid.write(False)
            self.stat_data_valid2.write(True)
            self.data_out.write(self._beat(1))
            self.parity_out.write(self._beat_parity(self._beat(1)))
        elif self._stage == "out1":
            pass
        if self._stage != "out1":
            self.stat_data_valid2.write(False)

    @property
    def busy(self) -> bool:
        """True while a read is in flight."""
        return self._stage != "idle"


class WritePort(Module):
    """One bank's write port: W# at K, address/beat0 at K#, commit at K."""

    def __init__(self, sim: Simulator, name: str, parent: Module,
                 config: La1Config, memory: SramMemory,
                 clocks: ClockPair, w_sel: Signal, addr_bus: Signal,
                 wdata_bus: Signal, bw_bus: Signal):
        super().__init__(sim, name, parent)
        self.config = config
        self.memory = memory
        self.w_sel = w_sel
        self.addr_bus = addr_bus
        self.wdata_bus = wdata_bus
        self.bw_bus = bw_bus
        self._stage = "idle"
        self._addr = 0
        self._beat0 = 0
        self._bw0 = 0
        self.stat_write_sel = self.signal("stat_write_sel", False)
        self.stat_write_data = self.signal("stat_write_data", False)
        self.stat_write_commit = self.signal("stat_write_commit", False)
        # the array mutation is deferred one delta cycle so a concurrent
        # read-port fetch at the same K edge deterministically observes
        # the pre-edge array contents (the ASM update-set semantics)
        from ..sysc.kernel import Event

        self._commit_event = Event(sim, f"{self.name}.commit")
        self._staged: Optional[tuple] = None
        self.method_process(self._apply_commit, (self._commit_event,),
                            "apply_commit")
        self.method_process(self._on_k, (clocks.posedge_k,), "on_k")
        self.method_process(self._on_k_sharp, (clocks.posedge_k_bar,), "on_k_sharp")

    def _apply_commit(self) -> None:
        if self._staged is None:
            return
        addr, word, enables = self._staged
        self._staged = None
        self.memory.write(addr, word, enables)

    def _on_k(self) -> None:
        stage = self._stage
        if stage == "data":
            beat1 = int(self.wdata_bus.read())
            bw1 = int(self.bw_bus.read())
            word = self._beat0 | (beat1 << self.config.beat_bits)
            enables = self._bw0 | (bw1 << self.config.byte_lanes)
            self._staged = (self._addr, word, enables)
            self._commit_event.notify()
            self._stage = "idle"
            self.stat_write_data.write(False)
            self.stat_write_commit.write(True)
        if self.w_sel.read() and self._stage == "idle" and stage != "sel":
            self._stage = "sel"
            self.stat_write_sel.write(True)

    def _on_k_sharp(self) -> None:
        self.stat_write_sel.write(False)
        self.stat_write_commit.write(False)
        if self._stage == "sel":
            self._addr = int(self.addr_bus.read())
            self._beat0 = int(self.wdata_bus.read())
            self._bw0 = int(self.bw_bus.read())
            self._stage = "data"
            self.stat_write_data.write(True)

    @property
    def busy(self) -> bool:
        """True while a write is in flight."""
        return self._stage != "idle"


class La1Bank(Module):
    """One LA-1 bank: read port + write port + SRAM array."""

    def __init__(self, sim: Simulator, name: str, parent: Module,
                 config: La1Config, clocks: ClockPair,
                 r_sel: Signal, w_sel: Signal, addr_bus: Signal,
                 wdata_bus: Signal, bw_bus: Signal):
        super().__init__(sim, name, parent)
        self.memory = SramMemory(config)
        self.read_port = ReadPort(
            sim, "read_port", self, config, self.memory, clocks, r_sel,
            addr_bus,
        )
        self.write_port = WritePort(
            sim, "write_port", self, config, self.memory, clocks, w_sel,
            addr_bus, wdata_bus, bw_bus,
        )


class La1Device(Module):
    """The N-bank LA-1 slave device of Figure 1."""

    def __init__(self, sim: Simulator, config: La1Config,
                 clocks: ClockPair, name: str = "la1"):
        super().__init__(sim, name)
        self.config = config
        self.clocks = clocks
        # host-driven interface signals
        self.addr_bus = self.signal("addr", 0)
        self.wdata_bus = self.signal("wdata", 0)
        self.bw_bus = self.signal("bw", (1 << config.byte_lanes) - 1)
        self.r_sel = [self.signal(f"r_sel{b}", False) for b in range(config.banks)]
        self.w_sel = [self.signal(f"w_sel{b}", False) for b in range(config.banks)]
        # slave-driven shared read bus (tristate at RTL, muxed here)
        self.read_bus = self.signal("read_bus", 0)
        self.read_parity = self.signal("read_parity", 0)
        self.read_valid = self.signal("read_valid", False)
        self.banks = [
            La1Bank(
                sim, f"bank{b}", self, config, clocks,
                self.r_sel[b], self.w_sel[b], self.addr_bus,
                self.wdata_bus, self.bw_bus,
            )
            for b in range(config.banks)
        ]
        self.bus_conflicts = 0
        sensitivity = []
        for bank in self.banks:
            sensitivity.append(bank.read_port.stat_data_valid.changed)
            sensitivity.append(bank.read_port.stat_data_valid2.changed)
            sensitivity.append(bank.read_port.data_out.changed)
        self.method_process(self._drive_read_bus, tuple(sensitivity),
                            "read_bus_mux")

    def _drive_read_bus(self) -> None:
        drivers = [
            bank.read_port
            for bank in self.banks
            if bank.read_port.stat_data_valid.read()
            or bank.read_port.stat_data_valid2.read()
        ]
        if len(drivers) > 1:
            self.bus_conflicts += 1
        if drivers:
            port = drivers[0]
            self.read_bus.write(port.data_out.read())
            self.read_parity.write(port.parity_out.read())
            self.read_valid.write(True)
        else:
            self.read_valid.write(False)


class ReadResult:
    """A completed read transaction observed by the host."""

    __slots__ = ("bank", "addr", "word", "beats", "parities", "issued_at",
                 "completed_at")

    def __init__(self, bank: int, addr: int, word: int, beats: tuple,
                 parities: tuple, issued_at: int, completed_at: int):
        self.bank = bank
        self.addr = addr
        self.word = word
        self.beats = beats
        self.parities = parities
        self.issued_at = issued_at
        self.completed_at = completed_at

    def __repr__(self):
        return (
            f"ReadResult(bank={self.bank}, addr={self.addr:#x}, "
            f"word={self.word:#x})"
        )


class HostQueue:
    """The host's transaction queue, shared by the kernel-level
    :class:`La1Host` and the RTL :class:`~repro.core.rtl_testbench.RtlHost`.

    Reads and writes wait in program order (``_seq`` numbers them); a
    selected write sits in ``_pending_write`` through its select and
    data phases; an issued read waits in ``_read_watch`` for its beats,
    the first one held in ``_collecting``; completed reads land in
    ``results``.  ``concurrent=True`` lets a read and a write issue in
    the same cycle (LA-1's concurrent read/write feature); the default
    keeps program order, so reads observe earlier writes.
    """

    def __init__(self, config: La1Config, concurrent: bool = False):
        self.config = config
        self.concurrent = concurrent
        self._seq = 0
        self._reads: deque = deque()  # (seq, bank, addr)
        self._writes: deque = deque()  # (seq, bank, addr, word, bw)
        self._pending_write: Optional[tuple] = None  # (bank, addr, word, bw, phase)
        self._read_watch: deque = deque()  # (bank, addr, issued_at)
        self._collecting: Optional[list] = None
        self.results: list[ReadResult] = []

    def read(self, bank: int, addr: int) -> None:
        """Queue a read of ``addr`` from ``bank``."""
        self._reads.append((self._seq, bank, addr))
        self._seq += 1

    def write(self, bank: int, addr: int, word: int,
              byte_enables: Optional[int] = None) -> None:
        """Queue a write of ``word`` to ``addr`` of ``bank``."""
        lanes = self.config.byte_lanes * BEATS_PER_WORD
        if byte_enables is None:
            byte_enables = (1 << lanes) - 1
        self._writes.append((self._seq, bank, addr, word, byte_enables))
        self._seq += 1

    @property
    def idle(self) -> bool:
        """True when no transaction is queued or in flight."""
        return (
            not self._reads
            and not self._writes
            and self._pending_write is None
            and not self._read_watch
        )

    def _read_is_head(self) -> bool:
        if not self._reads:
            return False
        if self.concurrent or not self._writes:
            return True
        return self._reads[0][0] < self._writes[0][0]

    def _write_is_head(self) -> bool:
        if not self._writes:
            return False
        if self.concurrent or not self._reads:
            return True
        return self._writes[0][0] < self._reads[0][0]

    def _beat_of(self, word: int, index: int) -> int:
        return (word >> (index * self.config.beat_bits)) & (
            (1 << self.config.beat_bits) - 1
        )


class La1Host(Module, HostQueue):
    """The host (network processor) side: queues transactions and drives
    the interface pins on the correct edges."""

    def __init__(self, sim: Simulator, device: La1Device,
                 name: str = "host", concurrent: bool = False):
        Module.__init__(self, sim, name)
        HostQueue.__init__(self, device.config, concurrent)
        self.device = device
        self._proc_k = self.method_process(
            self._on_k, (device.clocks.posedge_k,), "host_k")
        self._proc_ks = self.method_process(
            self._on_k_sharp, (device.clocks.posedge_k_bar,), "host_k_sharp")
        # beat collection is sensitive to the ports' own valid strobes so
        # it observes post-edge (committed) data values
        for bank_idx, bank in enumerate(device.banks):
            port = bank.read_port
            self.method_process(
                self._make_beat0_collector(bank_idx, port),
                (port.stat_data_valid.posedge,),
                f"collect0_{bank_idx}",
            )
            self.method_process(
                self._make_beat1_collector(bank_idx, port),
                (port.stat_data_valid2.posedge,),
                f"collect1_{bank_idx}",
            )

    def _make_beat0_collector(self, bank_idx: int, port: ReadPort):
        def collect() -> None:
            # guard on the strobe: the kernel also runs every process once
            # during initialisation
            if (
                port.stat_data_valid.read()
                and self._read_watch
                and self._read_watch[0][0] == bank_idx
            ):
                self._collecting = [port.data_out.read(),
                                    port.parity_out.read()]
        return collect

    def _make_beat1_collector(self, bank_idx: int, port: ReadPort):
        def collect() -> None:
            if (
                port.stat_data_valid2.read()
                and self._read_watch
                and self._read_watch[0][0] == bank_idx
                and self._collecting is not None
            ):
                bank, addr, issued = self._read_watch.popleft()
                beat0, par0 = self._collecting
                self._collecting = None
                beat1 = port.data_out.read()
                par1 = port.parity_out.read()
                word = beat0 | (beat1 << self.config.beat_bits)
                self.results.append(
                    ReadResult(bank, addr, word, (beat0, beat1),
                               (par0, par1), issued, self.sim.time)
                )
        return collect

    # -- pin driving -------------------------------------------------------
    def _on_k(self) -> None:
        """After a rising K: deassert selects, present write addr/beat0."""
        if self._proc_k.trigger is None:
            return  # initialization run, no edge yet
        device = self.device
        # deassert the selects sampled at this K edge
        for sig in device.r_sel:
            if sig.read():
                sig.write(False)
        for sig in device.w_sel:
            if sig.read():
                sig.write(False)
        # a write selected at this edge presents its address + beat0 for
        # the upcoming K# edge
        if self._pending_write is not None and self._pending_write[4] == "sel":
            bank, addr, word, bw, __ = self._pending_write
            device.addr_bus.write(addr)
            device.wdata_bus.write(self._beat_of(word, 0))
            device.bw_bus.write(bw & ((1 << self.config.byte_lanes) - 1))
            self._pending_write = (bank, addr, word, bw, "data")

    def _on_k_sharp(self) -> None:
        """After a rising K#: present beat 1, set up the next K edge."""
        if self._proc_ks.trigger is None:
            return  # initialization run, no edge yet
        device = self.device
        # write beat1 presentation (sampled at the next K edge)
        if self._pending_write is not None and self._pending_write[4] == "data":
            bank, addr, word, bw, __ = self._pending_write
            device.wdata_bus.write(self._beat_of(word, 1))
            device.bw_bus.write(
                (bw >> self.config.byte_lanes)
                & ((1 << self.config.byte_lanes) - 1)
            )
            self._pending_write = None
        # issue new selects for the next K edge; in program-order mode a
        # read additionally waits for earlier writes to retire (and vice
        # versa) so memory effects are observed in call order
        write_in_flight = self._pending_write is not None or any(
            b.write_port.busy for b in self.device.banks
        )
        read_in_flight = bool(self._read_watch) or any(
            b.read_port.busy for b in self.device.banks
        )
        issue_read = (
            self._read_is_head()
            and not read_in_flight
            and (self.concurrent or not write_in_flight)
        )
        if issue_read:
            __, bank, addr = self._reads.popleft()
            device.r_sel[bank].write(True)
            device.addr_bus.write(addr)
            self._read_watch.append((bank, addr, self.sim.time))
        issue_write = (
            self._write_is_head()
            and not write_in_flight
            and (self.concurrent or not (read_in_flight or issue_read))
        )
        if issue_write:
            __, bank, addr, word, bw = self._writes.popleft()
            device.w_sel[bank].write(True)
            self._pending_write = (bank, addr, word, bw, "sel")


def build_la1_system(
    config: Optional[La1Config] = None,
    concurrent: bool = False,
) -> tuple[Simulator, ClockPair, La1Device, La1Host]:
    """Convenience constructor: kernel + clock pair + device + host."""
    config = config or La1Config()
    sim = Simulator()
    clocks = ClockPair(sim, "K", half_period=1)
    device = La1Device(sim, config, clocks)
    host = La1Host(sim, device, concurrent=concurrent)
    return sim, clocks, device, host
