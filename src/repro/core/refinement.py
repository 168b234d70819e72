"""Bounded refinement checking from ASM directly to RTL.

The paper's future work: "proving the soundness of the complete
refinement process from ASM to RTL.  This will allow reusing the
verification results that can be proved at any level for the other lower
levels."  This module implements the bounded version of that idea:

* :class:`La1RtlImplementation` adapts the *RTL* model to the same
  co-execution protocol the SystemC model uses, replaying ASM edge rules
  as pin wiggles on the bit-level simulator;
* :func:`check_asm_rtl_refinement` co-executes the ASM model and the RTL
  over every edge sequence up to a depth bound, comparing the full
  observable vocabulary (pipeline stages, commit strobes, memory).

A conformant run establishes that, up to the bound, every PSL property
verified on the ASM's atoms holds of the RTL's status nets too -- the
"reuse the verification results" payoff, since the atoms are literally
the same labels :func:`repro.core.properties.rtl_labels` feeds the
symbolic checker.
"""

from __future__ import annotations

from typing import Optional

from ..asm.conformance import ConformanceResult, Implementation, check_conformance
from ..rtl import RtlSimulator
from .asm_model import La1AsmConfig, build_la1_asm
from .conformance import observables_for
from .rtl_model import la1_netlist
from .spec import La1Config

__all__ = ["La1RtlImplementation", "check_asm_rtl_refinement"]


class La1RtlImplementation(Implementation):
    """The RTL LA-1 model as a conformance test subject.

    Observation decodes the one-hot pipeline registers back into the ASM
    stage vocabulary; the abstract-word embedding matches
    :class:`repro.core.conformance.La1SyscImplementation` (abstract word
    = first beat, second beat zero).
    """

    def __init__(self, asm_config: La1AsmConfig):
        self.asm_config = asm_config
        data_max = max(asm_config.data_values)
        addr_count = len(asm_config.addr_values)
        self.la1_config = La1Config(
            banks=asm_config.banks,
            beat_bits=max(1, data_max.bit_length()),
            addr_bits=max(1, (addr_count - 1).bit_length()),
        )
        self.sim = RtlSimulator(la1_netlist(self.la1_config))
        self._phase = 0

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self.sim.reset()
        self._phase = 0

    def _addr_index(self, value) -> int:
        return self.asm_config.addr_values.index(value)

    def _in(self, name: str, value: int) -> None:
        self.sim.set_input(f"la1_top.{name}", value)

    def apply(self, rule_name: str, args: dict) -> None:
        if rule_name == "EdgeK":
            rsel = args.get("rsel", -1)
            wsel = args.get("wsel", -1)
            self._in("r_sel", 0 if rsel < 0 else 1 << rsel)
            self._in("w_sel", 0 if wsel < 0 else 1 << wsel)
            if rsel >= 0:
                self._in("addr", self._addr_index(args["raddr"]))
            # the second beat of any in-flight write is zero
            self._in("wdata", 0)
            self._in("bw", (1 << self.la1_config.byte_lanes) - 1)
            self.sim.step("K")
            self._phase = 1
        elif rule_name == "EdgeKSharp":
            self._in("r_sel", 0)
            self._in("w_sel", 0)
            self._in("addr", self._addr_index(args["waddr"]))
            self._in("wdata", int(args["wdata"]))
            self._in("bw", (1 << self.la1_config.byte_lanes) - 1)
            self.sim.step("K#")
            self._phase = 0
        else:
            raise ValueError(f"unknown rule {rule_name}")

    # ------------------------------------------------------------------
    def _read(self, bank: int, name: str) -> int:
        return self.sim.read(f"la1_top.bank{bank}.{name}")

    def _rp_tuple(self, bank: int) -> tuple:
        config = self.asm_config
        beat_mask = (1 << self.la1_config.beat_bits) - 1
        port = f"la1_top.bank{bank}.read_port"
        addr = config.addr_values[self.sim.read(f"{port}.addr_reg")]
        word = self.sim.read(f"{port}.word_reg") & beat_mask
        if self._read(bank, "mon_req"):
            return ("req", addr)
        if self._read(bank, "mon_fetch"):
            return ("fetch", addr, word)
        # out0 and out1 overlap in the RTL's one-hot encoding (out0 is
        # K-clocked and spans post-K..post-K#; out1 is K#-clocked and
        # spans post-K#..post-K).  The ASM stages are phase-exact: out0
        # exists only in post-K states, out1 only in post-K# states; a
        # lingering RTL stage bit outside its phase is ASM-idle.
        out0 = self._read(bank, "mon_out0")
        out1 = self._read(bank, "mon_out1")
        if out1 and self._phase == 0:
            return ("out1", addr, word)
        if out0 and self._phase == 1:
            return ("out0", addr, word)
        return ("idle",)

    def _wp_tuple(self, bank: int) -> tuple:
        config = self.asm_config
        beat_mask = (1 << self.la1_config.beat_bits) - 1
        port = f"la1_top.bank{bank}.write_port"
        if self._read(bank, "mon_sel") and self._phase == 1:
            return ("sel",)
        if self._read(bank, "mon_wdata") and self._phase == 0:
            addr = config.addr_values[self.sim.read(f"{port}.addr_reg")]
            beat0 = self.sim.read(f"{port}.beat0_reg") & beat_mask
            return ("data", addr, beat0)
        return ("idle",)

    def observe(self) -> dict:
        config = self.asm_config
        beat_mask = (1 << self.la1_config.beat_bits) - 1
        word_bits = self.la1_config.word_bits
        obs: dict = {"phase": self._phase}
        for bank in range(config.banks):
            obs[f"rp{bank}"] = self._rp_tuple(bank)
            obs[f"wp{bank}"] = self._wp_tuple(bank)
            raw = self.sim.read(f"la1_top.bank{bank}.sram.mem")
            obs[f"mem{bank}"] = tuple(
                (raw >> (self._addr_index(a) * word_bits)) & beat_mask
                for a in config.addr_values
            )
            obs[f"wcommit{bank}"] = bool(
                self._read(bank, "stat_write_commit")
            )
        return obs


def check_asm_rtl_refinement(
    asm_config: Optional[La1AsmConfig] = None,
    max_depth: int = 6,
    max_paths: int = 4000,
) -> ConformanceResult:
    """Co-execute the ASM model and the RTL over all edge sequences up to
    ``max_depth`` half-cycles (the bounded ASM->RTL soundness check)."""
    asm_config = asm_config or La1AsmConfig(banks=1)
    machine = build_la1_asm(asm_config)
    implementation = La1RtlImplementation(asm_config)
    return check_conformance(
        machine,
        implementation,
        observables_for(asm_config.banks),
        max_depth=max_depth,
        max_paths=max_paths,
    )
