"""LA-1 as a verification unit for third-party devices.

The paper's architecture "guarantees that the final design can be used in
two different ways: a stand-alone IP to integrate larger SoC [or] a
Verification Unit to validate other LA-1 Interface compatible devices."

:class:`La1ValidationUnit` implements the second mode: it wraps any
device under test exposing the small :class:`DutInterface` protocol,
drives directed + random LA-1 traffic at it, checks protocol timing with
the PSL monitor suite, and checks data integrity (read-back equals
written, parity even) against its own reference memory model.  The result
is a :class:`ComplianceReport` listing every violation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .spec import BEATS_PER_WORD, La1Config, even_parity_int, merge_byte_lanes

__all__ = ["DutInterface", "Violation", "ComplianceReport", "La1ValidationUnit"]


class DutInterface:
    """Protocol a device under test must expose to the validation unit.

    The unit drives pins at half-cycle granularity: :meth:`edge_k` /
    :meth:`edge_k_sharp` receive the pin values valid *at* that edge and
    return the DUT's outputs *after* it.
    """

    def reset(self) -> None:
        """Return the DUT to its power-up state."""
        raise NotImplementedError

    def edge_k(self, r_sel: int, w_sel: int, addr: int, wdata: int,
               bw: int) -> dict:
        """Apply a rising K edge; returns at least ``data``, ``parity``
        and ``valid`` (plus any extra keys for diagnostics)."""
        raise NotImplementedError

    def edge_k_sharp(self, addr: int, wdata: int, bw: int) -> dict:
        """Apply a rising K# edge; same return contract."""
        raise NotImplementedError


@dataclass
class Violation:
    """One compliance violation."""

    kind: str
    half_cycle: int
    detail: str

    def __repr__(self):
        return f"Violation({self.kind} @h{self.half_cycle}: {self.detail})"


@dataclass
class ComplianceReport:
    """Outcome of a validation run."""

    transactions: int = 0
    half_cycles: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def compliant(self) -> bool:
        """True when no violation was observed."""
        return not self.violations

    def render(self) -> str:
        """Human-readable summary."""
        lines = [
            f"LA-1 compliance: {'PASS' if self.compliant else 'FAIL'} "
            f"({self.transactions} transactions, "
            f"{self.half_cycles} half-cycles)"
        ]
        for violation in self.violations[:20]:
            lines.append(f"  {violation!r}")
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        return "\n".join(lines)


class La1ValidationUnit:
    """Drives and checks an LA-1 DUT.

    The unit keeps a reference memory model (including byte-merge
    semantics) and checks on every read: fixed latency, two DDR beats,
    even byte parity, and data equal to the reference contents.
    """

    def __init__(self, dut: DutInterface, config: Optional[La1Config] = None,
                 bank: int = 0):
        self.dut = dut
        self.config = config or La1Config(banks=1)
        self.bank = bank
        self._reference = [0] * self.config.mem_words
        self.report = ComplianceReport()
        self._half = 0

    # ------------------------------------------------------------------
    def _expected_parity(self, beat: int) -> int:
        config = self.config
        if config.beat_bits < 8:
            return even_parity_int(beat, config.beat_bits)
        parity = 0
        for lane in range(config.byte_lanes):
            parity |= even_parity_int((beat >> (8 * lane)) & 0xFF, 8) << lane
        return parity

    def _violate(self, kind: str, detail: str) -> None:
        self.report.violations.append(Violation(kind, self._half, detail))

    def _idle_k(self) -> dict:
        out = self.dut.edge_k(0, 0, 0, 0, 0)
        self._half += 1
        return out

    def _idle_ks(self) -> dict:
        out = self.dut.edge_k_sharp(0, 0, 0)
        self._half += 1
        return out

    # ------------------------------------------------------------------
    def check_write(self, addr: int, word: int,
                    byte_enables: Optional[int] = None) -> None:
        """Drive one write transaction and update the reference model."""
        config = self.config
        lanes = config.byte_lanes * BEATS_PER_WORD
        if byte_enables is None:
            byte_enables = (1 << lanes) - 1
        beat_mask = (1 << config.beat_bits) - 1
        bw_mask = (1 << config.byte_lanes) - 1
        sel = 1 << self.bank
        self.dut.edge_k(0, sel, 0, 0, 0)
        self._half += 1
        self.dut.edge_k_sharp(addr, word & beat_mask, byte_enables & bw_mask)
        self._half += 1
        self.dut.edge_k(0, 0, 0, (word >> config.beat_bits) & beat_mask,
                        (byte_enables >> config.byte_lanes) & bw_mask)
        self._half += 1
        self._idle_ks()
        if config.beat_bits >= 8:
            self._reference[addr % config.mem_words] = merge_byte_lanes(
                self._reference[addr % config.mem_words], word,
                byte_enables, lanes,
            ) & ((1 << config.word_bits) - 1)
        else:
            if byte_enables:
                self._reference[addr % config.mem_words] = word & (
                    (1 << config.word_bits) - 1
                )
        self.report.transactions += 1

    def check_read(self, addr: int) -> Optional[int]:
        """Drive one read and verify latency, beats, parity and data.

        Returns the word read (or None when the DUT failed to answer).
        """
        config = self.config
        sel = 1 << self.bank
        issue_half = self._half
        out = self.dut.edge_k(sel, 0, addr, 0, 0)
        self._half += 1
        if out.get("valid"):
            self._violate("early_data", "data valid on the request edge")
        self._idle_ks()
        out = self._idle_k()
        if out.get("valid"):
            self._violate("early_data", "data valid one cycle early")
        self._idle_ks()
        beat0_out = self._idle_k()
        beats = []
        if not beat0_out.get("valid"):
            self._violate(
                "latency",
                f"first beat missing {self._half - issue_half} half-cycles "
                "after request",
            )
        else:
            beats.append(beat0_out)
        beat1_out = self._idle_ks()
        if not beat1_out.get("valid"):
            self._violate("second_beat", "second beat missing on K#")
        else:
            beats.append(beat1_out)
        # bus turnaround: the modelled device supports one outstanding
        # read and frees its pipeline one cycle after the second beat
        self._idle_k()
        self._idle_ks()
        self.report.transactions += 1
        if len(beats) != 2:
            return None
        word = beats[0]["data"] | (beats[1]["data"] << config.beat_bits)
        for index, beat in enumerate(beats):
            expected = self._expected_parity(beat["data"])
            if beat.get("parity") != expected:
                self._violate(
                    "parity",
                    f"beat {index}: parity {beat.get('parity')} != "
                    f"{expected} for data {beat['data']:#x}",
                )
        reference = self._reference[addr % config.mem_words]
        if word != reference:
            self._violate(
                "data", f"addr {addr:#x}: read {word:#x}, expected "
                f"{reference:#x}"
            )
        return word

    # ------------------------------------------------------------------
    def run_random(self, transactions: int = 100,
                   seed: int = 1) -> ComplianceReport:
        """Directed-random compliance campaign."""
        rng = random.Random(seed)
        config = self.config
        self.dut.reset()
        self._reference = [0] * config.mem_words
        word_max = (1 << config.word_bits) - 1
        lanes = config.byte_lanes * BEATS_PER_WORD
        for __ in range(transactions):
            addr = rng.randrange(config.mem_words)
            choice = rng.random()
            if choice < 0.45:
                self.check_read(addr)
            elif choice < 0.9:
                self.check_write(addr, rng.randint(0, word_max))
            else:
                self.check_write(addr, rng.randint(0, word_max),
                                 rng.randrange(1 << lanes))
        self.report.half_cycles = self._half
        return self.report


class RtlDut(DutInterface):
    """Adapter exposing the reproduction's own RTL LA-1 as a DUT.

    Useful as the golden device in tests and as the template for wiring
    real third-party models: any object that can apply clock edges and
    report the read bus fits :class:`DutInterface`.
    """

    def __init__(self, config: Optional[La1Config] = None):
        from ..rtl import RtlSimulator
        from .rtl_model import la1_netlist

        self.config = config or La1Config(banks=1)
        self.sim = RtlSimulator(la1_netlist(self.config))

    def reset(self) -> None:
        self.sim.reset()

    def _apply(self, edge: str, r_sel: int, w_sel: int, addr: int,
               wdata: int, bw: int) -> dict:
        sim = self.sim
        sim.set_input("la1_top.r_sel", r_sel)
        sim.set_input("la1_top.w_sel", w_sel)
        sim.set_input("la1_top.addr", addr)
        sim.set_input("la1_top.wdata", wdata)
        sim.set_input("la1_top.bw", bw)
        sim.step(edge)
        return {
            "data": sim.read("la1_top.data_bus"),
            "parity": sim.read("la1_top.par_bus"),
            "valid": bool(sim.read("la1_top.read_valid")),
        }

    def edge_k(self, r_sel: int, w_sel: int, addr: int, wdata: int,
               bw: int) -> dict:
        return self._apply("K", r_sel, w_sel, addr, wdata, bw)

    def edge_k_sharp(self, addr: int, wdata: int, bw: int) -> dict:
        return self._apply("K#", 0, 0, addr, wdata, bw)


class FaultyDut(RtlDut):
    """An intentionally broken DUT for negative testing.

    ``fault`` selects the defect: ``"parity"`` inverts the parity bit,
    ``"latency"`` delays the first beat by one cycle (suppresses valid on
    the correct edge), ``"data"`` corrupts the read data.
    """

    def __init__(self, fault: str, config: Optional[La1Config] = None):
        super().__init__(config)
        if fault not in ("parity", "latency", "data"):
            raise ValueError(f"unknown fault {fault!r}")
        self.fault = fault
        self._suppressed = False

    def _apply(self, edge: str, r_sel: int, w_sel: int, addr: int,
               wdata: int, bw: int) -> dict:
        out = super()._apply(edge, r_sel, w_sel, addr, wdata, bw)
        if not out["valid"]:
            return out
        if self.fault == "parity":
            out["parity"] ^= 1
        elif self.fault == "data":
            out["data"] ^= 1
        elif self.fault == "latency":
            # drop the first beat of every burst (report it late never)
            out["valid"] = False
        return out


__all__.extend(["RtlDut", "FaultyDut"])
