"""Elaboration: flatten an :class:`~repro.rtl.hdl.RtlModule` tree.

Elaboration produces a :class:`FlatDesign` -- the single data structure
shared by the interpreted RTL simulator and the symbolic model checker:

* every net of every module *occurrence* becomes a :class:`FlatNet` with a
  unique hierarchical path (the same ``RtlModule`` object instantiated N
  times yields N independent copies of its nets, which is how the N-bank
  LA-1 device is built);
* child input ports become combinational nets driven by the parent's
  binding expression, child outputs drive the bound parent wire;
* tristate-driven wires become priority-mux chains (drivers checked in
  attachment order, undriven buses read 0) with optional run-time conflict
  detection;
* combinational nets are topologically sorted; a combinational cycle is a
  hard elaboration error.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .hdl import Expr, HdlError, Net, Reg, RtlModule, TristateDriver, Wire

__all__ = ["FlatNet", "FlatMonitor", "FlatDesign", "elaborate"]


class FlatNet:
    """One flattened net.

    ``kind`` is ``"input"`` (free, testbench-driven), ``"comb"``
    (combinational function of other nets) or ``"reg"`` (state).  ``scope``
    maps the :class:`Net` objects referenced by ``expr`` / ``next_expr``
    to their flat counterparts for this occurrence.  ``slot`` is the net's
    index into the simulator's flat value array (assigned at the end of
    elaboration); both simulator backends and the codegen of
    :mod:`repro.rtl.compile` address state through it.
    """

    __slots__ = (
        "path",
        "width",
        "kind",
        "expr",
        "next_expr",
        "scope",
        "clock",
        "init",
        "tristate",
        "slot",
        "src_loc",
    )

    def __init__(self, path: str, width: int, kind: str):
        self.path = path
        self.width = width
        self.kind = kind
        self.expr: Optional[Expr] = None
        self.next_expr: Optional[Expr] = None
        self.scope: dict[Net, "FlatNet"] = {}
        self.clock: Optional[str] = None
        self.init = 0
        self.tristate: Optional[list[TristateDriver]] = None
        self.slot = -1
        #: frontend source location ("file:line") carried over from the
        #: originating hdl.Net when a design-language frontend set one
        self.src_loc: Optional[str] = None

    def __repr__(self):
        return f"FlatNet({self.path!r}, {self.kind}, w={self.width})"


class FlatMonitor:
    """An assertion monitor surviving elaboration: fires when its net is 1.

    ``clock`` names the edge on which the monitor samples (monitors are
    only checked after edges of their own clock domain, like an OVL
    checker clocked on ``clk``).
    """

    __slots__ = ("fire", "message", "severity", "name", "clock")

    def __init__(self, fire: FlatNet, message: str, severity: str, name: str,
                 clock: str = "K"):
        self.fire = fire
        self.message = message
        self.severity = severity
        self.name = name
        self.clock = clock

    def __repr__(self):
        return f"FlatMonitor({self.name!r}@{self.clock})"


class FlatDesign:
    """The flattened design: inputs, combinational nets (topo order), regs.

    A design is immutable once :func:`elaborate` returns it: simulators
    share the compiled kernels cached in :attr:`kernels`, so a later
    edit to a net (``next_expr``, ``expr``, drivers) would be invisible
    to every simulator built from the same object.  Netlist surgery
    belongs on a freshly elaborated design, before any simulator sees
    it.
    """

    def __init__(self) -> None:
        #: compiled simulator kernels of this design, keyed by
        #: ``(backend, detect_bus_conflicts, lanes)``
        #: (:func:`repro.rtl.simulator.design_kernel`)
        self.kernels: dict = {}
        self.nets: dict[str, FlatNet] = {}
        self.inputs: list[FlatNet] = []
        self.comb_order: list[FlatNet] = []
        self.regs: list[FlatNet] = []
        self.monitors: list[FlatMonitor] = []
        self.clocks: list[str] = []
        #: flat paths of the top module's output ports (lint observation
        #: points)
        self.top_outputs: list[str] = []
        #: inline lint waivers collected from every module occurrence,
        #: patterns prefixed with the occurrence path
        self.lint_waivers: list[tuple[str, str, str]] = []

    def net(self, path: str) -> FlatNet:
        """Look up a flat net by hierarchical path."""
        return self.nets[path]

    @property
    def num_slots(self) -> int:
        """Size of the flat value array (one slot per net)."""
        return len(self.nets)

    def stats(self) -> dict[str, int]:
        """Size summary used in reports: net/reg/input counts and state bits."""
        return {
            "nets": len(self.nets),
            "inputs": len(self.inputs),
            "comb": len(self.comb_order),
            "regs": len(self.regs),
            "state_bits": sum(r.width for r in self.regs),
            "monitors": len(self.monitors),
        }


def elaborate(top: RtlModule, top_path: Optional[str] = None) -> FlatDesign:
    """Flatten ``top`` (and its instance tree) into a :class:`FlatDesign`.

    Top-level input ports become free inputs; everything else is derived.
    Raises :class:`HdlError` on undriven wires, missing reg next-state
    assignments or combinational cycles.
    """
    design = FlatDesign()
    clocks: set[str] = set()

    def walk(
        module: RtlModule,
        path: str,
        input_bindings: dict[str, tuple[Expr, dict[Net, FlatNet]]],
    ) -> dict[Net, FlatNet]:
        """Flatten one occurrence of ``module``; returns its scope map."""
        scope: dict[Net, FlatNet] = {}
        input_names = {p.name for p in module.input_ports()}
        # 1. create flat nets for every local net
        for net in module.nets.values():
            flat_path = f"{path}.{net.name}"
            if flat_path in design.nets:
                raise HdlError(f"duplicate flat path {flat_path}")
            if isinstance(net, Reg):
                flat = FlatNet(flat_path, net.width, "reg")
                flat.clock = net.clock
                flat.init = net.init
                clocks.add(net.clock)
                design.regs.append(flat)
            elif net.name in input_names:
                if net.name in input_bindings:
                    flat = FlatNet(flat_path, net.width, "comb")
                else:
                    flat = FlatNet(flat_path, net.width, "input")
                    design.inputs.append(flat)
            else:
                flat = FlatNet(flat_path, net.width, "comb")
            flat.src_loc = net.src_loc
            design.nets[flat_path] = flat
            scope[net] = flat
        # 2. wire up drivers
        for net in module.nets.values():
            flat = scope[net]
            if isinstance(net, Reg):
                if net.next is None:
                    raise HdlError(f"reg {flat.path} has no next-state assignment")
                flat.next_expr = net.next
                flat.scope = scope
                continue
            if net.name in input_names:
                if net.name in input_bindings:
                    expr, parent_scope = input_bindings[net.name]
                    flat.expr = expr
                    flat.scope = parent_scope
                continue
            wire = net
            assert isinstance(wire, Wire)
            if wire.tristate_drivers:
                flat.tristate = list(wire.tristate_drivers)
                flat.scope = scope
            elif wire.driver is not None:
                flat.expr = wire.driver
                flat.scope = scope
            # wires with neither driver may be bound to an instance output
            # below; a final validation pass catches truly undriven wires
        # 3. recurse into instances
        for instance in module.instances:
            child_path = f"{path}.{instance.name}"
            bindings: dict[str, tuple[Expr, dict[Net, FlatNet]]] = {}
            for port in instance.module.input_ports():
                bindings[port.name] = (instance.connections[port.name], scope)
            child_scope = walk(instance.module, child_path, bindings)
            for port in instance.module.output_ports():
                parent_wire = instance.connections[port.name]
                parent_flat = scope[parent_wire]
                if parent_flat.expr is not None or parent_flat.tristate:
                    raise HdlError(
                        f"wire {parent_flat.path} bound to instance output "
                        "but already driven"
                    )
                child_net = instance.module.net(port.name)
                parent_flat.expr = child_net.ref()
                parent_flat.scope = child_scope
        # 4. collect monitors declared on this module
        for monitor in module.monitors:
            net, message, severity, name, clock = monitor
            design.monitors.append(
                FlatMonitor(scope[net], message, severity, f"{path}.{name}",
                            clock)
            )
        # 5. carry inline lint waivers, path-prefixed per occurrence
        for rule, pattern, reason in module.lint_waivers:
            design.lint_waivers.append((rule, f"{path}.{pattern}", reason))
        return scope

    top_scope = walk(top, top_path or top.name, {})
    design.top_outputs = [
        f"{top_path or top.name}.{p.name}" for p in top.output_ports()
    ]
    for flat in design.nets.values():
        if flat.kind == "comb" and flat.expr is None and not flat.tristate:
            raise HdlError(f"wire {flat.path} is never driven")
    design.clocks = sorted(clocks)
    _toposort(design)
    for index, flat in enumerate(design.nets.values()):
        flat.slot = index
    design.top_scope = top_scope  # type: ignore[attr-defined]
    return design


def _flat_deps(flat: FlatNet) -> list[FlatNet]:
    deps: list[FlatNet] = []
    exprs: list[Expr] = []
    if flat.expr is not None:
        exprs.append(flat.expr)
    if flat.tristate:
        for driver in flat.tristate:
            exprs.append(driver.enable)
            exprs.append(driver.value)
    for expr in exprs:
        for net in expr.refs():
            try:
                deps.append(flat.scope[net])
            except KeyError:
                raise HdlError(
                    f"net {net.name} referenced by {flat.path} is not in scope"
                ) from None
    return deps


def _toposort(design: FlatDesign) -> None:
    """Order combinational nets so every net follows its dependencies.

    Depth-first with an explicit stack: comb cones can be arbitrarily
    deep (wide-bank elaborations chain thousands of nets), so a recursive
    walk would overflow the Python stack.
    """
    order: list[FlatNet] = []
    state: dict[str, int] = {}  # 0 unvisited / 1 in-progress / 2 done

    for root in design.nets.values():
        if root.kind != "comb" or state.get(root.path, 0) == 2:
            continue
        state[root.path] = 1
        stack: list[tuple[FlatNet, Iterator[FlatNet]]] = [
            (root, iter(_flat_deps(root)))
        ]
        while stack:
            flat, deps = stack[-1]
            descended = False
            for dep in deps:
                if dep.kind != "comb":
                    continue
                mark = state.get(dep.path, 0)
                if mark == 2:
                    continue
                if mark == 1:
                    cycle = " -> ".join([f.path for f, __ in stack]
                                        + [dep.path])
                    raise HdlError(f"combinational cycle: {cycle}")
                state[dep.path] = 1
                stack.append((dep, iter(_flat_deps(dep))))
                descended = True
                break
            if not descended:
                state[flat.path] = 2
                order.append(flat)
                stack.pop()
    design.comb_order = order
