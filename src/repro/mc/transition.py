"""Symbolic encoding of a flattened RTL design.

This is the front half of the RuleBase substitute: it bit-blasts a
:class:`~repro.rtl.netlist.FlatDesign` into BDDs --

* every register bit becomes a *current* variable ``path[i]`` and a
  *next* variable ``path[i]'``;
* every free input bit becomes an input variable;
* when the design uses both LA-1 clock domains a ``phase`` state bit is
  added: even steps are rising-K edges, odd steps rising-K# edges, and a
  register's next-state function holds its value on the other domain's
  edges (the standard way to model-check a DDR design at half-cycle
  granularity);
* combinational nets become vectors of BDD functions over state and
  input variables, lowered by :mod:`repro.rtl.bitblast` -- the same
  lowering the CNF encoder (:mod:`repro.sat.encode`) runs, here with the
  :class:`~repro.bdd.BddManager` as its gate builder.

Variable order is interleaved current/next by default (see
:mod:`repro.bdd.ordering`), which the ordering ablation compares against
the naive order.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..bdd import BddManager, interleaved_order, naive_order, NEXT_SUFFIX
from ..rtl.bitblast import lower_comb, lower_expr
from ..rtl.netlist import FlatDesign, FlatNet

__all__ = ["SymbolicModel"]

PHASE_VAR = "__phase"


class SymbolicModel:
    """BDD-encoded transition system of a flattened RTL design."""

    def __init__(
        self,
        design: FlatDesign,
        node_budget: Optional[int] = None,
        ordering: str = "interleaved",
        aux_slots: int = 16,
        coi_roots: Optional[Sequence[str]] = None,
    ):
        """``aux_slots`` reserves variable pairs early in the order for
        property-automaton state bits: satellite automata correlate with
        the design signals they label, so placing their variables near the
        front (instead of after every bank) keeps the reached-set BDD
        small -- the same consideration RuleBase users tuned orders for.

        ``coi_roots`` (flat net paths) restricts the encoding to the
        cone of influence of the listed nets before any BDD variable is
        created: registers and logic a property never observes do not get
        state variables at all.  The reduced design shares net objects
        with the original, so it must only be used for symbolic encoding,
        never simulated."""
        if coi_roots is not None:
            from ..lint.coi import reduce_design

            design = reduce_design(design, coi_roots)
        self.design = design
        self.manager = BddManager(node_budget=node_budget)
        self._net_bits: dict[FlatNet, list[int]] = {}
        self._state_bit_names: list[str] = []
        self._input_bit_names: list[str] = []
        self._aux_free: list[str] = []
        self._aux_slots = aux_slots
        self._build_variables(ordering)
        lower_comb(self.manager, design, self._net_bits)
        self._build_next_functions()
        self._build_init()

    # ------------------------------------------------------------------
    # variable creation
    # ------------------------------------------------------------------
    def _bit_names(self, flat: FlatNet) -> list[str]:
        if flat.width == 1:
            return [flat.path]
        return [f"{flat.path}[{i}]" for i in range(flat.width)]

    def _build_variables(self, ordering: str) -> None:
        design = self.design
        self.multi_clock = len(design.clocks) > 1
        if len(design.clocks) > 2:
            raise ValueError(
                "symbolic model supports at most two clock domains "
                f"(got {design.clocks})"
            )
        state_bits: list[str] = []
        if self.multi_clock:
            state_bits.append(PHASE_VAR)
        for reg in design.regs:
            state_bits.extend(self._bit_names(reg))
        input_bits: list[str] = []
        for inp in design.inputs:
            input_bits.extend(self._bit_names(inp))
        aux_names = [f"__aux{i}" for i in range(self._aux_slots)]
        if ordering == "interleaved":
            order = interleaved_order(aux_names + state_bits, input_bits)
        elif ordering == "naive":
            order = naive_order(aux_names + state_bits, input_bits)
        else:
            raise ValueError(f"unknown ordering {ordering!r}")
        for name in order:
            self.manager.add_var(name)
        self._aux_free = list(aux_names)
        self._state_bit_names = state_bits
        self._input_bit_names = input_bits
        # expose per-net variable vectors
        for reg in design.regs:
            self._net_bits[reg] = [
                self.manager.var(n) for n in self._bit_names(reg)
            ]
        for inp in design.inputs:
            self._net_bits[inp] = [
                self.manager.var(n) for n in self._bit_names(inp)
            ]
        if self.multi_clock:
            self.phase = self.manager.var(PHASE_VAR)

    # ------------------------------------------------------------------
    # transition and init
    # ------------------------------------------------------------------
    def _build_next_functions(self) -> None:
        m = self.manager
        self.next_functions: dict[str, int] = {}
        if self.multi_clock:
            self.next_functions[PHASE_VAR] = m.not_(self.phase)
        # phase == 0 -> rising K (clocks[0] in sorted order is "K" before
        # "K#"), phase == 1 -> rising K#
        clocks = self.design.clocks
        for reg in self.design.regs:
            names = self._bit_names(reg)
            assert reg.next_expr is not None
            next_bits = lower_expr(m, reg.next_expr, reg.scope,
                                   self._net_bits)
            current_bits = self._net_bits[reg]
            if self.multi_clock:
                clock_index = clocks.index(reg.clock)
                enable = (
                    m.not_(self.phase) if clock_index == 0 else self.phase
                )
                next_bits = [
                    m.ite(enable, nb, cb)
                    for nb, cb in zip(next_bits, current_bits)
                ]
            for name, bit in zip(names, next_bits):
                self.next_functions[name] = bit

    def _build_init(self) -> None:
        m = self.manager
        init = m.TRUE
        if self.multi_clock:
            init = m.and_(init, m.not_(self.phase))
        for reg in self.design.regs:
            for i, name in enumerate(self._bit_names(reg)):
                bit = m.var(name)
                if (reg.init >> i) & 1:
                    init = m.and_(init, bit)
                else:
                    init = m.and_(init, m.not_(bit))
        self.init = init

    # ------------------------------------------------------------------
    # public helpers
    # ------------------------------------------------------------------
    @property
    def state_bits(self) -> list[str]:
        """Current-state variable names."""
        return list(self._state_bit_names)

    @property
    def input_bits(self) -> list[str]:
        """Free input variable names."""
        return list(self._input_bit_names)

    def net_bdd(self, path: str) -> list[int]:
        """The BDD vector of any flat net by hierarchical path."""
        return list(self._net_bits[self.design.net(path)])

    def net_bit(self, path: str, bit: int = 0) -> int:
        """One bit of a net as a BDD."""
        return self._net_bits[self.design.net(path)][bit]

    def add_state_var(self, name: str, next_function: int, init_value: bool) -> int:
        """Add an auxiliary state bit (used to embed property automata).

        The variable (and its primed copy) must already exist in the
        manager -- use :meth:`declare_aux_vars` before compiling the
        next function.
        """
        self._state_bit_names.append(name)
        self.next_functions[name] = next_function
        bit = self.manager.var(name)
        self.init = self.manager.and_(
            self.init, bit if init_value else self.manager.not_(bit)
        )
        return bit

    def alloc_aux_vars(self, count: int) -> list[str]:
        """Allocate ``count`` auxiliary state variables.

        Reserved early-order slots are used first; when exhausted, extra
        variables (and their primed copies) are appended at the end of
        the order, which still works but orders worse.
        """
        names: list[str] = []
        for __ in range(count):
            if self._aux_free:
                names.append(self._aux_free.pop(0))
            else:
                name = f"__aux_late{len(self._state_bit_names)}_{len(names)}"
                self.manager.add_var(name)
                self.manager.add_var(name + NEXT_SUFFIX)
                names.append(name)
        return names

    def declare_aux_vars(self, names: list[str]) -> dict[str, int]:
        """Declare auxiliary state variables (current + next) at the end
        of the order; returns ``{name: current_var_bdd}``.

        Prefer :meth:`alloc_aux_vars`, which uses the reserved
        early-order slots.
        """
        result = {}
        for name in names:
            result[name] = self.manager.add_var(name)
            self.manager.add_var(name + NEXT_SUFFIX)
        return result
