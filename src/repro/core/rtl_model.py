"""The synthesizable RTL LA-1 model (the paper's Section 4.4).

"For the case of the LA-1 Interface, we map each class to a Verilog
module ... Multiple banks model is obtained from the single one by
instantiating the Read, Write and Memory modules.  The connection between
the control signals is performed using tristate buffers."

Modules:

* :func:`build_sram_rtl` -- the per-bank array: one wide register file
  with combinational read and byte-merged synchronous write;
* :func:`build_read_port_rtl` -- the Figure 3 read pipeline as one-hot
  stage registers split across the K and K# clock domains (DDR);
* :func:`build_write_port_rtl` -- W# capture (K), address/beat0 capture
  (K#), commit (K);
* :func:`build_bank_rtl` -- one bank instantiating the three;
* :func:`build_la1_top_rtl` -- the N-bank device: a phase tracker (two
  cross-domain toggles), shared address/write-data buses, and the shared
  read bus driven through per-bank **tristate buffers**;
* :func:`la1_netlist` -- the one elaborated netlist per shape that every
  LA-1 consumer (model checking, lint, CEC, simulation, fault
  campaigns, coverage) shares.

Status nets: each bank exposes ``stat_*`` wires gated by the phase net so
each strobe is true for exactly the half-cycle its ASM atom is -- the
labeling contract of :func:`repro.core.properties.rtl_labels`.
"""

from __future__ import annotations

import functools
from typing import Optional

from ..rtl import FlatDesign, elaborate
from ..rtl.hdl import C, Concat, Expr, Mux, RtlModule, Wire
from .spec import BEATS_PER_WORD, La1Config

__all__ = [
    "build_sram_rtl",
    "build_read_port_rtl",
    "build_write_port_rtl",
    "build_bank_rtl",
    "build_la1_top_rtl",
    "la1_netlist",
]


def _merge_word(old: Expr, new: Expr, enables: Expr, config: La1Config) -> Expr:
    """Byte-lane merge of a full word under write enables."""
    total_lanes = config.byte_lanes * BEATS_PER_WORD
    lane_bits = config.word_bits // total_lanes
    parts = []
    for lane in range(total_lanes):
        lo = lane * lane_bits
        hi = lo + lane_bits - 1
        parts.append(
            Mux(enables.bit(lane), new.slice(lo, hi), old.slice(lo, hi))
        )
    return Concat(parts)


def build_sram_rtl(config: La1Config, name: str = "la1_sram") -> RtlModule:
    """The SRAM array module: ``mem_words`` words in one wide register."""
    m = RtlModule(name)
    total_lanes = config.byte_lanes * BEATS_PER_WORD
    raddr = m.input("raddr", config.addr_bits)
    wen = m.input("wen", 1)
    waddr = m.input("waddr", config.addr_bits)
    wword = m.input("wword", config.word_bits)
    wbe = m.input("wbe", total_lanes)
    rdata = m.output("rdata", config.word_bits)

    words = config.mem_words
    m.lint_waive(
        "cdc-no-sync", "mem",
        "DDR by design: the array commits on K from the K#-captured "
        "write pipeline; both edges belong to one differential clock "
        "pair",
    )
    mem = m.reg("mem", words * config.word_bits, clock="K", init=0)

    def word_slice(expr: Expr, index: int) -> Expr:
        lo = index * config.word_bits
        return expr.slice(lo, lo + config.word_bits - 1)

    next_words = []
    for w in range(words):
        old = word_slice(mem.ref(), w)
        hit = wen.ref() & waddr.ref().eq(C(w, config.addr_bits))
        merged = _merge_word(old, wword.ref(), wbe.ref(), config)
        next_words.append(Mux(hit, merged, old))
    m.sync(mem, Concat(next_words))

    read_value: Expr = word_slice(mem.ref(), 0)
    for w in range(1, words):
        read_value = Mux(
            raddr.ref().eq(C(w, config.addr_bits)),
            word_slice(mem.ref(), w),
            read_value,
        )
    m.assign(rdata, read_value)
    return m


def _build_sram_stub(config: La1Config, name: str) -> RtlModule:
    """A stateless SRAM stub (rdata tied to 0) for control-only models."""
    m = RtlModule(name)
    total_lanes = config.byte_lanes * BEATS_PER_WORD
    m.input("raddr", config.addr_bits)
    m.input("wen", 1)
    m.input("waddr", config.addr_bits)
    m.input("wword", config.word_bits)
    m.input("wbe", total_lanes)
    rdata = m.output("rdata", config.word_bits)
    m.assign(rdata, C(0, config.word_bits))
    return m


def build_read_port_rtl(config: La1Config, name: str = "la1_read_port",
                        datapath: bool = True) -> RtlModule:
    """The read-port pipeline module (one bank).

    ``datapath=False`` builds the control skeleton only (stages, status
    strobes, bus-driver enable; data and parity tied to zero) -- the
    abstracted *behavioral model* one writes for a capacity-limited
    symbolic model checker, as the paper's authors did for RuleBase.
    """
    m = RtlModule(name)
    r_sel = m.input("r_sel", 1)
    addr = m.input("addr", config.addr_bits)
    rdata = m.input("rdata", config.word_bits)
    phase = m.input("phase", 1)

    raddr = m.output("raddr", config.addr_bits)
    dout = m.output("dout", config.beat_bits)
    dpar = m.output("dpar", config.byte_lanes)
    drive_en = m.output("drive_en", 1)
    stat_read_req = m.output("stat_read_req", 1)
    stat_read_fetch = m.output("stat_read_fetch", 1)
    stat_data_valid = m.output("stat_data_valid", 1)
    stat_data_valid2 = m.output("stat_data_valid2", 1)

    # one-hot pipeline stages; st_out1 lives in the K# domain (DDR)
    m.lint_waive(
        "cdc-no-sync", "*",
        "DDR by design: K and K# are the two edges of one differential "
        "clock pair (paper Fig. 3), so the pipeline's cross-edge sampling "
        "is synchronous and needs no synchronizer",
    )
    st_req = m.reg("st_req", 1, clock="K", init=0)
    st_fetch = m.reg("st_fetch", 1, clock="K", init=0)
    st_out0 = m.reg("st_out0", 1, clock="K", init=0)
    st_out1 = m.reg("st_out1", 1, clock="K#", init=0)

    busy = st_req.ref() | st_fetch.ref() | st_out0.ref() | st_out1.ref()
    capture = r_sel.ref() & ~busy
    m.sync(st_req, capture)
    m.sync(st_fetch, st_req.ref())
    m.sync(st_out0, st_fetch.ref())
    m.sync(st_out1, st_out0.ref())

    valid0 = st_out0.ref() & phase.ref()
    valid1 = st_out1.ref() & ~phase.ref()
    if datapath:
        addr_reg = m.reg("addr_reg", config.addr_bits, clock="K", init=0)
        word_reg = m.reg("word_reg", config.word_bits, clock="K", init=0)
        m.sync(addr_reg, Mux(capture, addr.ref(), addr_reg.ref()))
        # the array word is latched when the req stage completes
        # (pre-edge rdata is addressed by addr_reg, i.e. the pre-edge
        # array contents)
        m.sync(word_reg, Mux(st_req.ref(), rdata.ref(), word_reg.ref()))
        m.assign(raddr, addr_reg.ref())
        beat0 = word_reg.ref().slice(0, config.beat_bits - 1)
        beat1 = word_reg.ref().slice(config.beat_bits, config.word_bits - 1)
        beat = Mux(valid0, beat0, beat1)
        m.assign(dout, beat)
        lane_bits = max(1, config.beat_bits // max(1, config.byte_lanes))
        parity_bits = []
        for lane in range(config.byte_lanes):
            lo = lane * lane_bits
            parity_bits.append(beat.slice(lo, lo + lane_bits - 1).reduce_xor())
        m.assign(dpar, Concat(parity_bits) if len(parity_bits) > 1
                 else parity_bits[0])
    else:
        m.assign(raddr, C(0, config.addr_bits))
        m.assign(dout, C(0, config.beat_bits))
        m.assign(dpar, C(0, config.byte_lanes))
    m.assign(drive_en, valid0 | valid1)
    m.assign(stat_read_req, st_req.ref() & phase.ref())
    m.assign(stat_read_fetch, st_fetch.ref())
    m.assign(stat_data_valid, valid0)
    m.assign(stat_data_valid2, valid1)
    # raw (ungated) stage levels for edge-clocked external monitors (OVL
    # checkers sample pre-edge values, where the phase-gated strobes are
    # always low)
    for stage_name, stage_reg in (
        ("mon_req", st_req), ("mon_fetch", st_fetch),
        ("mon_out0", st_out0), ("mon_out1", st_out1),
    ):
        out = m.output(stage_name, 1)
        m.assign(out, stage_reg.ref())
    return m


def build_write_port_rtl(config: La1Config, name: str = "la1_write_port",
                         datapath: bool = True) -> RtlModule:
    """The write-port module (one bank).

    ``datapath=False`` keeps only the phase registers and status strobes
    (see :func:`build_read_port_rtl`).
    """
    m = RtlModule(name)
    total_lanes = config.byte_lanes * BEATS_PER_WORD
    w_sel = m.input("w_sel", 1)
    addr = m.input("addr", config.addr_bits)
    wdata = m.input("wdata", config.beat_bits)
    bw = m.input("bw", config.byte_lanes)
    phase = m.input("phase", 1)

    wen = m.output("wen", 1)
    waddr = m.output("waddr", config.addr_bits)
    wword = m.output("wword", config.word_bits)
    wbe = m.output("wbe", total_lanes)
    stat_write_sel = m.output("stat_write_sel", 1)
    stat_write_data = m.output("stat_write_data", 1)
    stat_write_commit = m.output("stat_write_commit", 1)

    m.lint_waive(
        "cdc-no-sync", "*",
        "DDR by design: W# capture (K), data capture (K#) and commit (K) "
        "alternate edges of one differential clock pair (paper Fig. 4)",
    )
    st_sel = m.reg("st_sel", 1, clock="K", init=0)
    st_data = m.reg("st_data", 1, clock="K#", init=0)
    committed = m.reg("committed", 1, clock="K", init=0)

    busy = st_sel.ref() | st_data.ref()
    m.sync(st_sel, w_sel.ref() & ~busy)
    m.sync(st_data, st_sel.ref())
    m.sync(committed, st_data.ref())
    if datapath:
        addr_reg = m.reg("addr_reg", config.addr_bits, clock="K#", init=0)
        beat0_reg = m.reg("beat0_reg", config.beat_bits, clock="K#", init=0)
        bw0_reg = m.reg("bw0_reg", config.byte_lanes, clock="K#", init=0)
        m.sync(addr_reg, Mux(st_sel.ref(), addr.ref(), addr_reg.ref()))
        m.sync(beat0_reg, Mux(st_sel.ref(), wdata.ref(), beat0_reg.ref()))
        m.sync(bw0_reg, Mux(st_sel.ref(), bw.ref(), bw0_reg.ref()))
        # commit on the K edge while st_data holds: beat1 and its
        # enables are taken live off the buses at that edge
        m.assign(waddr, addr_reg.ref())
        m.assign(wword, Concat([beat0_reg.ref(), wdata.ref()]))
        m.assign(wbe, Concat([bw0_reg.ref(), bw.ref()]))
    else:
        m.assign(waddr, C(0, config.addr_bits))
        m.assign(wword, C(0, config.word_bits))
        m.assign(wbe, C(0, total_lanes))
    m.assign(wen, st_data.ref())
    m.assign(stat_write_sel, st_sel.ref() & phase.ref())
    m.assign(stat_write_data, st_data.ref() & ~phase.ref())
    m.assign(stat_write_commit, committed.ref() & phase.ref())
    for stage_name, stage_reg in (
        ("mon_sel", st_sel), ("mon_wdata", st_data),
        ("mon_committed", committed),
    ):
        out = m.output(stage_name, 1)
        m.assign(out, stage_reg.ref())
    return m


def build_bank_rtl(config: La1Config, name: str = "la1_bank",
                   datapath: bool = True) -> RtlModule:
    """One LA-1 bank: read port + write port + SRAM, as instances.

    ``datapath=False`` builds the control-only abstraction (the SRAM is
    replaced by a zero stub so the interface stays identical).
    """
    m = RtlModule(name)
    total_lanes = config.byte_lanes * BEATS_PER_WORD
    r_sel = m.input("r_sel", 1)
    w_sel = m.input("w_sel", 1)
    addr = m.input("addr", config.addr_bits)
    wdata = m.input("wdata", config.beat_bits)
    bw = m.input("bw", config.byte_lanes)
    phase = m.input("phase", 1)

    dout = m.output("dout", config.beat_bits)
    dpar = m.output("dpar", config.byte_lanes)
    drive_en = m.output("drive_en", 1)
    stat_nets: dict[str, Wire] = {}
    for stat in (
        "stat_read_req", "stat_read_fetch", "stat_data_valid",
        "stat_data_valid2", "stat_write_sel", "stat_write_data",
        "stat_write_commit",
        "mon_req", "mon_fetch", "mon_out0", "mon_out1",
        "mon_sel", "mon_wdata", "mon_committed",
    ):
        stat_nets[stat] = m.output(stat, 1)

    rdata = m.wire("rdata", config.word_bits)
    raddr = m.wire("raddr", config.addr_bits)
    wen = m.wire("wen", 1)
    waddr = m.wire("waddr", config.addr_bits)
    wword = m.wire("wword", config.word_bits)
    wbe = m.wire("wbe", total_lanes)

    if datapath:
        sram = build_sram_rtl(config, f"{name}_sram")
    else:
        sram = _build_sram_stub(config, f"{name}_sram")
    read_port = build_read_port_rtl(config, f"{name}_read_port", datapath)
    write_port = build_write_port_rtl(config, f"{name}_write_port", datapath)

    m.instantiate(sram, "sram", {
        "raddr": raddr.ref(),
        "wen": wen.ref(),
        "waddr": waddr.ref(),
        "wword": wword.ref(),
        "wbe": wbe.ref(),
        "rdata": rdata,
    })
    m.instantiate(read_port, "read_port", {
        "r_sel": r_sel.ref(),
        "addr": addr.ref(),
        "rdata": rdata.ref(),
        "phase": phase.ref(),
        "raddr": raddr,
        "dout": dout,
        "dpar": dpar,
        "drive_en": drive_en,
        "stat_read_req": stat_nets["stat_read_req"],
        "stat_read_fetch": stat_nets["stat_read_fetch"],
        "stat_data_valid": stat_nets["stat_data_valid"],
        "stat_data_valid2": stat_nets["stat_data_valid2"],
        "mon_req": stat_nets["mon_req"],
        "mon_fetch": stat_nets["mon_fetch"],
        "mon_out0": stat_nets["mon_out0"],
        "mon_out1": stat_nets["mon_out1"],
    })
    m.instantiate(write_port, "write_port", {
        "w_sel": w_sel.ref(),
        "addr": addr.ref(),
        "wdata": wdata.ref(),
        "bw": bw.ref(),
        "phase": phase.ref(),
        "wen": wen,
        "waddr": waddr,
        "wword": wword,
        "wbe": wbe,
        "stat_write_sel": stat_nets["stat_write_sel"],
        "stat_write_data": stat_nets["stat_write_data"],
        "stat_write_commit": stat_nets["stat_write_commit"],
        "mon_sel": stat_nets["mon_sel"],
        "mon_wdata": stat_nets["mon_wdata"],
        "mon_committed": stat_nets["mon_committed"],
    })
    return m


def build_la1_top_rtl(
    config: Optional[La1Config] = None, name: str = "la1_top",
    datapath: bool = True,
) -> RtlModule:
    """The N-bank LA-1 device with tristate-multiplexed read bus.

    Free inputs (testbench-driven): ``r_sel`` / ``w_sel`` (one bit per
    bank), ``addr``, ``wdata`` (one beat), ``bw`` (byte enables of the
    beat on the bus).  Outputs: the shared ``data_bus`` / ``par_bus``
    (tristate, reads 0 when undriven), ``read_valid`` and per-bank
    ``stat_*`` status wires.
    """
    config = config or La1Config()
    m = RtlModule(name)
    banks = config.banks
    r_sel = m.input("r_sel", banks)
    w_sel = m.input("w_sel", banks)
    addr = m.input("addr", config.addr_bits)
    wdata = m.input("wdata", config.beat_bits)
    bw = m.input("bw", config.byte_lanes)

    data_bus = m.output("data_bus", config.beat_bits)
    par_bus = m.output("par_bus", config.byte_lanes)
    read_valid = m.output("read_valid", 1)

    # phase tracker: two cross-domain toggles; phase == 1 on post-K
    # half-cycles, 0 on post-K# half-cycles
    tk = m.reg("tk", 1, clock="K", init=0)
    tks = m.reg("tks", 1, clock="K#", init=0)
    m.sync(tk, ~tk.ref())
    m.sync(tks, ~tks.ref())
    phase = m.wire("phase", 1)
    m.assign(phase, tk.ref() ^ tks.ref())

    bank_module = build_bank_rtl(config, "la1_bank", datapath)
    drive_ens = []
    for b in range(banks):
        douts = m.wire(f"bank{b}_dout", config.beat_bits)
        dpars = m.wire(f"bank{b}_dpar", config.byte_lanes)
        den = m.wire(f"bank{b}_drive_en", 1)
        stats = {
            # output ports, not internal wires: the status strobes and raw
            # stage levels are the device's observation points (labeling
            # taps and monitor hooks), read from outside the design
            stat: m.output(f"bank{b}_{stat}", 1)
            for stat in (
                "stat_read_req", "stat_read_fetch", "stat_data_valid",
                "stat_data_valid2", "stat_write_sel", "stat_write_data",
                "stat_write_commit",
                "mon_req", "mon_fetch", "mon_out0", "mon_out1",
                "mon_sel", "mon_wdata", "mon_committed",
            )
        }
        m.instantiate(bank_module, f"bank{b}", {
            "r_sel": r_sel.ref().bit(b),
            "w_sel": w_sel.ref().bit(b),
            "addr": addr.ref(),
            "wdata": wdata.ref(),
            "bw": bw.ref(),
            "phase": phase.ref(),
            "dout": douts,
            "dpar": dpars,
            "drive_en": den,
            **stats,
        })
        m.tristate(data_bus, den.ref(), douts.ref())
        m.tristate(par_bus, den.ref(), dpars.ref())
        drive_ens.append(den.ref())
    any_drive = drive_ens[0]
    for den in drive_ens[1:]:
        any_drive = any_drive | den
    m.assign(read_valid, any_drive)
    return m


# ----------------------------------------------------------------------
# the shared netlist
# ----------------------------------------------------------------------
# one flow task cycles through nine shapes (the control model-checking
# netlist, the plain and the OVL netlist, each at 1, 2 and 4 banks) and
# a serve process sees any bank count, so the memo holds a few more
@functools.lru_cache(maxsize=12)
def _netlist(config: La1Config, datapath: bool, ovl: bool) -> FlatDesign:
    if ovl:
        from .ovl_bindings import build_la1_top_with_ovl

        return elaborate(build_la1_top_with_ovl(config))
    return elaborate(build_la1_top_rtl(config, datapath=datapath))


def la1_netlist(config: La1Config, datapath: bool = True,
                ovl: bool = False) -> FlatDesign:
    """The elaborated LA-1 device of ``config``, one object per shape
    per process.

    ``datapath=False`` is the control-only abstraction the model
    checkers use; ``ovl=True`` is the full device with the read-mode
    OVL checker set of :func:`~repro.core.ovl_bindings.build_la1_top_with_ovl`
    (``datapath`` is then ignored).  A netlist is immutable after
    elaboration (:class:`~repro.rtl.netlist.FlatDesign`), so every
    consumer of one shape -- and every shard worker forked after it --
    shares the object and the simulator kernels compiled for it.  The
    memo is a bounded ``functools.lru_cache`` (``cache_info()``,
    ``cache_clear()``) keyed on the normalised shape, so keyword and
    positional calls share an entry.
    """
    return _netlist(config, datapath or ovl, ovl)


la1_netlist.cache_info = _netlist.cache_info
la1_netlist.cache_clear = _netlist.cache_clear
