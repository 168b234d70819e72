"""CNF front-end for flattened RTL netlists.

:class:`NetlistEncoder` is the SAT counterpart of
:class:`repro.mc.transition.SymbolicModel`: both lower the same
:class:`~repro.rtl.netlist.FlatDesign` through :mod:`repro.rtl.bitblast`,
the BDD model with a :class:`~repro.bdd.BddManager` as gate builder and
this encoder with a :class:`~repro.sat.cnf.Tseitin`, so every gate
becomes Tseitin clauses instead of BDD nodes.  Because the semantics
match the interpreter bit for bit, a frame encoded over *constant*
literals folds completely and must equal an ``RtlSimulator`` settle --
the differential consistency suite in ``tests/test_sat_encode.py``
leans on exactly that.

Unlike the monolithic BDD model there is no global transition relation:
callers encode one :class:`Frame` per time step (fresh literals for that
step's free inputs, whatever literals they like for the register state)
and chain frames functionally -- frame ``t+1``'s state literals simply
*are* frame ``t``'s next-state literals.  DDR phase is static per frame
(``(t + start_phase) % 2``), so no phase variable is ever allocated.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..rtl.bitblast import lower_comb, lower_expr
from ..rtl.netlist import FlatDesign, FlatNet
from .cnf import Tseitin

__all__ = ["Frame", "NetlistEncoder"]


class Frame:
    """One encoded time step: literal vectors for every live net."""

    __slots__ = ("bits", "state", "inputs", "phase")

    def __init__(self, bits, state, inputs, phase):
        #: FlatNet -> list of literals (regs, inputs and comb nets)
        self.bits: Dict[FlatNet, List[int]] = bits
        #: reg path -> literal vector (this frame's register state)
        self.state: Dict[str, List[int]] = state
        #: input path -> literal vector
        self.inputs: Dict[str, List[int]] = inputs
        #: 0 = rising K, 1 = rising K# (None on single-clock designs)
        self.phase: Optional[int] = phase


class NetlistEncoder:
    """Encode frames of a flat design into a :class:`Tseitin` builder."""

    def __init__(
        self,
        design: FlatDesign,
        tseitin: Tseitin,
        coi_roots: Optional[Sequence[str]] = None,
    ):
        if coi_roots is not None:
            from ..lint.coi import reduce_design

            design = reduce_design(design, coi_roots)
        if len(design.clocks) > 2:
            raise ValueError(
                "SAT encoder supports at most two clock domains "
                f"(got {design.clocks})"
            )
        self.design = design
        self.t = tseitin
        self.multi_clock = len(design.clocks) > 1

    # ------------------------------------------------------------------
    # state construction
    # ------------------------------------------------------------------
    def init_state(self) -> Dict[str, List[int]]:
        """Register state at reset, as constant literals."""
        t = self.t
        return {
            reg.path: [
                t.TRUE if (reg.init >> i) & 1 else t.FALSE
                for i in range(reg.width)
            ]
            for reg in self.design.regs
        }

    def free_state(self) -> Dict[str, List[int]]:
        """A fully unconstrained register state (fresh variables);
        the k-induction hypothesis frames start from one of these."""
        t = self.t
        return {
            reg.path: [t.new_var() for _ in range(reg.width)]
            for reg in self.design.regs
        }

    def free_inputs(self) -> Dict[str, List[int]]:
        """Fresh variables for every free input bit of one frame."""
        t = self.t
        return {
            inp.path: [t.new_var() for _ in range(inp.width)]
            for inp in self.design.inputs
        }

    # ------------------------------------------------------------------
    # frame encoding
    # ------------------------------------------------------------------
    def frame(
        self,
        state: Dict[str, List[int]],
        inputs: Dict[str, List[int]],
        phase: Optional[int] = None,
    ) -> Frame:
        """Encode the combinational closure of one time step.

        ``state``/``inputs`` map net paths to literal vectors; ``phase``
        must be 0 or 1 on dual-clock designs (which rising edge this
        step models) and ``None`` otherwise.
        """
        if self.multi_clock and phase is None:
            raise ValueError("dual-clock design: frame needs phase 0 or 1")
        bits: Dict[FlatNet, List[int]] = {}
        for reg in self.design.regs:
            vec = state[reg.path]
            assert len(vec) == reg.width, reg.path
            bits[reg] = list(vec)
        for inp in self.design.inputs:
            vec = inputs[inp.path]
            assert len(vec) == inp.width, inp.path
            bits[inp] = list(vec)
        lower_comb(self.t, self.design, bits)
        return Frame(bits, dict(state), dict(inputs), phase)

    def next_state(self, frame: Frame) -> Dict[str, List[int]]:
        """Register state after this frame's clock edge.

        On dual-clock designs only the active domain's registers load
        (``phase`` 0 clocks ``design.clocks[0]``, i.e. ``K``); the other
        domain's literals pass through unchanged -- the static analogue
        of the BDD model's phase-gated ``ite``.
        """
        out: Dict[str, List[int]] = {}
        clocks = self.design.clocks
        for reg in self.design.regs:
            if self.multi_clock and clocks.index(reg.clock) != frame.phase:
                out[reg.path] = list(frame.bits[reg])
                continue
            assert reg.next_expr is not None
            out[reg.path] = lower_expr(
                self.t, reg.next_expr, reg.scope, frame.bits
            )
        return out
