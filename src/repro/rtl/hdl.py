"""A synthesizable RTL intermediate representation (the "Verilog level").

The paper's lowest refinement level is a synthesizable Verilog model where
"each class maps to a Verilog module" and multi-bank devices are built "by
instantiating the Read, Write and Memory modules; the connection between
the control signals is performed using tristate buffers".  This module is
the IR those models are built from:

* :class:`Expr` trees -- constants, net references, bitwise operators,
  comparisons, mux, slice, concat, reduction and ripple-carry addition.
  Everything reduces to pure boolean logic, so the same IR feeds both the
  interpreted simulator (:mod:`repro.rtl.simulator`) and the bit-level
  netlist used by the symbolic model checker (:mod:`repro.rtl.netlist`).
* :class:`Net` -- a named bundle of bits, either combinational
  (:class:`Wire`) or state-holding (:class:`Reg` with a clock edge).
* :class:`RtlModule` -- a design unit with ports, nets, continuous
  assignments, registers and child instances.
* :class:`TristateDriver` -- a conditional driver on a shared net;
  elaboration turns a multiply-driven net into a priority mux (the
  standard synthesizable mapping of a tristate bus).

Values are plain non-negative integers interpreted at the net's width
(two-state semantics; the four-valued world lives at the SystemC level).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Union

__all__ = [
    "Expr",
    "Const",
    "Ref",
    "UnOp",
    "BinOp",
    "Mux",
    "Slice",
    "Concat",
    "Reduce",
    "Net",
    "Wire",
    "Reg",
    "Port",
    "Instance",
    "TristateDriver",
    "RtlModule",
    "HdlError",
    "BusConflict",
    "C",
]


class HdlError(Exception):
    """Raised on malformed RTL (width mismatches, duplicate drivers, ...)."""


class BusConflict(HdlError):
    """Raised by a simulator when two tristate drivers enable one bus in
    the same settle (a real bus would go ``X``): the design, not the
    engine, misbehaved, so a fault campaign reports it as a detection."""


def _mask(width: int) -> int:
    return (1 << width) - 1


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------
class Expr:
    """Base class of RTL expressions.  All expressions have a fixed width."""

    width: int

    # -- operator sugar -------------------------------------------------
    def __and__(self, other: "Expr") -> "Expr":
        return BinOp("and", self, _as_expr(other, self.width))

    def __or__(self, other: "Expr") -> "Expr":
        return BinOp("or", self, _as_expr(other, self.width))

    def __xor__(self, other: "Expr") -> "Expr":
        return BinOp("xor", self, _as_expr(other, self.width))

    def __invert__(self) -> "Expr":
        return UnOp("not", self)

    def __add__(self, other: "Expr") -> "Expr":
        return BinOp("add", self, _as_expr(other, self.width))

    def eq(self, other: Union["Expr", int]) -> "Expr":
        """1-bit equality comparison."""
        return BinOp("eq", self, _as_expr(other, self.width))

    def ne(self, other: Union["Expr", int]) -> "Expr":
        """1-bit inequality comparison."""
        return UnOp("not", self.eq(other))

    def bit(self, index: int) -> "Expr":
        """Select a single bit."""
        return Slice(self, index, index)

    def slice(self, lo: int, hi: int) -> "Expr":
        """Select bits ``hi:lo`` inclusive (Verilog ``x[hi:lo]``)."""
        return Slice(self, lo, hi)

    def reduce_xor(self) -> "Expr":
        """XOR-reduce to one bit (parity)."""
        return Reduce("xor", self)

    def reduce_or(self) -> "Expr":
        """OR-reduce to one bit (any bit set)."""
        return Reduce("or", self)

    def reduce_and(self) -> "Expr":
        """AND-reduce to one bit (all bits set)."""
        return Reduce("and", self)

    def refs(self) -> Iterable["Net"]:  # pragma: no cover - overridden
        """All nets referenced by this expression tree."""
        raise NotImplementedError

    def evaluate(self, read: Callable[["Net"], int]) -> int:  # pragma: no cover
        """Evaluate with ``read(net) -> int`` supplying net values."""
        raise NotImplementedError


def _as_expr(value: Union[Expr, int, bool], width: int) -> Expr:
    if isinstance(value, Expr):
        return value
    return Const(int(value), width)


class Const(Expr):
    """A literal of explicit width."""

    def __init__(self, value: int, width: int = 1):
        if width <= 0:
            raise HdlError("constant width must be positive")
        if value < 0 or value > _mask(width):
            raise HdlError(f"constant {value} does not fit in {width} bits")
        self.value = value
        self.width = width

    def refs(self):
        return ()

    def evaluate(self, read):
        return self.value

    def __repr__(self):
        return f"Const({self.value}, w={self.width})"


def C(value: int, width: int = 1) -> Const:
    """Shorthand constructor for :class:`Const`."""
    return Const(value, width)


class Ref(Expr):
    """A reference to a :class:`Net`'s current value."""

    def __init__(self, net: "Net"):
        self.net = net
        self.width = net.width

    def refs(self):
        return (self.net,)

    def evaluate(self, read):
        return read(self.net)

    def __repr__(self):
        return f"Ref({self.net.name})"


class UnOp(Expr):
    """Unary operator: ``not`` (bitwise complement at the operand width)."""

    OPS = ("not",)

    def __init__(self, op: str, a: Expr):
        if op not in self.OPS:
            raise HdlError(f"unknown unary op {op}")
        self.op = op
        self.a = a
        self.width = a.width

    def refs(self):
        return self.a.refs()

    def evaluate(self, read):
        return (~self.a.evaluate(read)) & _mask(self.width)

    def __repr__(self):
        return f"UnOp({self.op}, {self.a!r})"


class BinOp(Expr):
    """Binary operator: ``and``, ``or``, ``xor``, ``add`` (same-width) and
    ``eq`` (1-bit result)."""

    OPS = ("and", "or", "xor", "add", "eq")

    def __init__(self, op: str, a: Expr, b: Expr):
        if op not in self.OPS:
            raise HdlError(f"unknown binary op {op}")
        if a.width != b.width:
            raise HdlError(
                f"width mismatch in {op}: {a.width} vs {b.width}"
            )
        self.op = op
        self.a = a
        self.b = b
        self.width = 1 if op == "eq" else a.width

    def refs(self):
        yield from self.a.refs()
        yield from self.b.refs()

    def evaluate(self, read):
        av = self.a.evaluate(read)
        bv = self.b.evaluate(read)
        if self.op == "and":
            return av & bv
        if self.op == "or":
            return av | bv
        if self.op == "xor":
            return av ^ bv
        if self.op == "add":
            return (av + bv) & _mask(self.width)
        return 1 if av == bv else 0

    def __repr__(self):
        return f"BinOp({self.op}, {self.a!r}, {self.b!r})"


class Mux(Expr):
    """Two-way multiplexer: ``sel ? if_true : if_false``."""

    def __init__(self, sel: Expr, if_true: Expr, if_false: Expr):
        if sel.width != 1:
            raise HdlError("mux select must be 1 bit wide")
        if if_true.width != if_false.width:
            raise HdlError(
                f"mux arm widths differ: {if_true.width} vs {if_false.width}"
            )
        self.sel = sel
        self.if_true = if_true
        self.if_false = if_false
        self.width = if_true.width

    def refs(self):
        yield from self.sel.refs()
        yield from self.if_true.refs()
        yield from self.if_false.refs()

    def evaluate(self, read):
        if self.sel.evaluate(read):
            return self.if_true.evaluate(read)
        return self.if_false.evaluate(read)

    def __repr__(self):
        return f"Mux({self.sel!r}, {self.if_true!r}, {self.if_false!r})"


class Slice(Expr):
    """Bit-range selection ``a[hi:lo]`` (inclusive, lo <= hi)."""

    def __init__(self, a: Expr, lo: int, hi: int):
        if not (0 <= lo <= hi < a.width):
            raise HdlError(f"slice [{hi}:{lo}] out of range for width {a.width}")
        self.a = a
        self.lo = lo
        self.hi = hi
        self.width = hi - lo + 1

    def refs(self):
        return self.a.refs()

    def evaluate(self, read):
        return (self.a.evaluate(read) >> self.lo) & _mask(self.width)

    def __repr__(self):
        return f"Slice({self.a!r}, [{self.hi}:{self.lo}])"


class Concat(Expr):
    """Concatenation; ``parts[0]`` occupies the least-significant bits."""

    def __init__(self, parts: Sequence[Expr]):
        if not parts:
            raise HdlError("empty concatenation")
        self.parts = tuple(parts)
        self.width = sum(p.width for p in self.parts)

    def refs(self):
        for part in self.parts:
            yield from part.refs()

    def evaluate(self, read):
        value = 0
        shift = 0
        for part in self.parts:
            value |= part.evaluate(read) << shift
            shift += part.width
        return value

    def __repr__(self):
        return f"Concat({list(self.parts)!r})"


class Reduce(Expr):
    """Reduction operator producing one bit: ``xor`` / ``or`` / ``and``."""

    OPS = ("xor", "or", "and")

    def __init__(self, op: str, a: Expr):
        if op not in self.OPS:
            raise HdlError(f"unknown reduction {op}")
        self.op = op
        self.a = a
        self.width = 1

    def refs(self):
        return self.a.refs()

    def evaluate(self, read):
        value = self.a.evaluate(read)
        if self.op == "xor":
            # deliberately bitwise-serial: the interpreter stands in for a
            # gate-level simulator's cost model (the compiled backend uses
            # int.bit_count instead; both yield the same parity bit)
            return bin(value).count("1") & 1
        if self.op == "or":
            return 1 if value else 0
        return 1 if value == _mask(self.a.width) else 0

    def __repr__(self):
        return f"Reduce({self.op}, {self.a!r})"


# ----------------------------------------------------------------------
# nets and modules
# ----------------------------------------------------------------------
class Net:
    """A named bundle of bits inside a module."""

    def __init__(self, module: "RtlModule", name: str, width: int):
        if width <= 0:
            raise HdlError("net width must be positive")
        self.module = module
        self.name = name
        self.width = width
        #: optional frontend source location ("file:line") when this
        #: net was generated from a design-language declaration
        #: (repro.dsl); carried through flattening into lint diagnostics
        self.src_loc: Optional[str] = None

    @property
    def path(self) -> str:
        """Hierarchical name used by the simulator and netlister."""
        return f"{self.module.path}.{self.name}"

    def ref(self) -> Ref:
        """An expression reading this net."""
        return Ref(self)

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r}, w={self.width})"


class Wire(Net):
    """A combinational net driven by one assign or by tristate drivers."""

    def __init__(self, module: "RtlModule", name: str, width: int):
        super().__init__(module, name, width)
        self.driver: Optional[Expr] = None
        self.tristate_drivers: list[TristateDriver] = []


class Reg(Net):
    """A state-holding net clocked on a named clock edge.

    ``clock`` names a clock domain (e.g. ``"K"`` or ``"K#"``); the register
    updates to ``next`` on that clock's rising edge.  ``init`` is the reset
    (power-up) value.
    """

    def __init__(
        self, module: "RtlModule", name: str, width: int, clock: str, init: int = 0
    ):
        super().__init__(module, name, width)
        if init < 0 or init > _mask(width):
            raise HdlError(f"init value {init} does not fit in {width} bits")
        self.clock = clock
        self.init = init
        self.next: Optional[Expr] = None


class Port:
    """A module port: direction, name and width.

    Top-level input ports become free (testbench-driven) nets; instance
    ports are bound to parent expressions/nets at instantiation.
    """

    def __init__(self, direction: str, name: str, width: int):
        if direction not in ("in", "out"):
            raise HdlError("port direction must be 'in' or 'out'")
        self.direction = direction
        self.name = name
        self.width = width


class TristateDriver:
    """A conditional driver ``enable ? value : Z`` on a shared wire."""

    def __init__(self, enable: Expr, value: Expr):
        if enable.width != 1:
            raise HdlError("tristate enable must be 1 bit")
        self.enable = enable
        self.value = value


class Instance:
    """A child module instantiation with port bindings.

    ``connections`` maps the child's port names to parent-side objects:
    input ports bind to parent :class:`Expr`; output ports bind to a parent
    :class:`Wire` which the child output will drive.
    """

    def __init__(self, module: "RtlModule", name: str, connections: dict):
        self.module = module
        self.name = name
        self.connections = dict(connections)


class RtlModule:
    """A synthesizable RTL design unit.

    A module owns ports, wires, regs, tristate buffers and child
    instances.  ``path`` gives hierarchical names once the module is part
    of an instance tree (the top module's path is its own name).
    """

    def __init__(self, name: str):
        self.name = name
        self.parent_path: Optional[str] = None
        self.ports: list[Port] = []
        self.nets: dict[str, Net] = {}
        self.instances: list[Instance] = []
        # module-level assertion monitors attach here (see repro.ovl)
        self.monitors: list = []
        # inline lint suppressions; see RtlModule.lint_waive
        self.lint_waivers: list[tuple[str, str, str]] = []

    # -- construction API -----------------------------------------------
    @property
    def path(self) -> str:
        """Hierarchical path (set during elaboration; defaults to name)."""
        if self.parent_path is None:
            return self.name
        return f"{self.parent_path}.{self.name}"

    def _add_net(self, net: Net) -> Net:
        if net.name in self.nets:
            raise HdlError(f"duplicate net {net.name} in module {self.name}")
        self.nets[net.name] = net
        return net

    def input(self, name: str, width: int = 1) -> Wire:
        """Declare an input port; returns the port's wire."""
        self.ports.append(Port("in", name, width))
        return self._add_net(Wire(self, name, width))  # type: ignore[return-value]

    def output(self, name: str, width: int = 1) -> Wire:
        """Declare an output port; returns the port's wire (assign to it)."""
        self.ports.append(Port("out", name, width))
        return self._add_net(Wire(self, name, width))  # type: ignore[return-value]

    def wire(self, name: str, width: int = 1) -> Wire:
        """Declare an internal combinational wire."""
        return self._add_net(Wire(self, name, width))  # type: ignore[return-value]

    def reg(self, name: str, width: int = 1, clock: str = "K", init: int = 0) -> Reg:
        """Declare a register clocked on rising ``clock``."""
        return self._add_net(Reg(self, name, width, clock, init))  # type: ignore[return-value]

    def assign(self, wire: Wire, expr: Expr) -> None:
        """Continuous assignment ``assign wire = expr``."""
        if not isinstance(wire, Wire):
            raise HdlError(f"can only assign to wires, not {wire!r}")
        if wire.driver is not None or wire.tristate_drivers:
            raise HdlError(f"wire {wire.name} already driven")
        if expr.width != wire.width:
            raise HdlError(
                f"assign width mismatch on {wire.name}: "
                f"{expr.width} != {wire.width}"
            )
        wire.driver = expr

    def tristate(self, wire: Wire, enable: Expr, value: Expr) -> None:
        """Attach a tristate buffer driving ``wire`` when ``enable`` is high."""
        if wire.driver is not None:
            raise HdlError(f"wire {wire.name} already has a plain driver")
        if value.width != wire.width:
            raise HdlError(
                f"tristate width mismatch on {wire.name}: "
                f"{value.width} != {wire.width}"
            )
        wire.tristate_drivers.append(TristateDriver(enable, value))

    def sync(self, reg: Reg, next_expr: Expr) -> None:
        """Register next-state: ``always @(posedge clock) reg <= next_expr``."""
        if not isinstance(reg, Reg):
            raise HdlError(f"sync target must be a reg, not {reg!r}")
        if reg.next is not None:
            raise HdlError(f"reg {reg.name} already has a next-state assignment")
        if next_expr.width != reg.width:
            raise HdlError(
                f"sync width mismatch on {reg.name}: "
                f"{next_expr.width} != {reg.width}"
            )
        reg.next = next_expr

    def instantiate(self, child: "RtlModule", name: str, connections: dict) -> Instance:
        """Instantiate ``child`` under this module with port ``connections``."""
        port_names = {p.name for p in child.ports}
        for key in connections:
            if key not in port_names:
                raise HdlError(
                    f"{child.name} has no port {key!r} "
                    f"(ports: {sorted(port_names)})"
                )
        for port in child.ports:
            if port.name not in connections:
                raise HdlError(
                    f"port {port.name} of {child.name} left unconnected"
                )
            bound = connections[port.name]
            if port.direction == "in":
                if not isinstance(bound, Expr):
                    raise HdlError(
                        f"input port {port.name} must bind to an expression"
                    )
                if bound.width != port.width:
                    raise HdlError(
                        f"width mismatch binding {port.name}: "
                        f"{bound.width} != {port.width}"
                    )
            else:
                if not isinstance(bound, Wire):
                    raise HdlError(
                        f"output port {port.name} must bind to a parent wire"
                    )
                if bound.width != port.width:
                    raise HdlError(
                        f"width mismatch binding {port.name}: "
                        f"{bound.width} != {port.width}"
                    )
        instance = Instance(child, name, connections)
        self.instances.append(instance)
        return instance

    def lint_waive(self, rule: str, pattern: str, reason: str) -> None:
        """Suppress a lint rule inside this module, with a justification.

        ``pattern`` is a glob over net names *relative to this module*
        (elaboration prefixes it with each occurrence's hierarchical
        path); ``rule`` is a :mod:`repro.lint` rule id or ``"*"``.  The
        finding still appears in lint reports, marked waived with
        ``reason``, but does not fail the run -- the equivalent of an
        inline ``// lint_off`` pragma.
        """
        if not reason:
            raise HdlError("a lint waiver requires a justification")
        self.lint_waivers.append((rule, pattern, reason))

    # -- queries ----------------------------------------------------------
    def input_ports(self) -> list[Port]:
        """All input ports."""
        return [p for p in self.ports if p.direction == "in"]

    def output_ports(self) -> list[Port]:
        """All output ports."""
        return [p for p in self.ports if p.direction == "out"]

    def net(self, name: str) -> Net:
        """Look up a net by local name."""
        return self.nets[name]

    def __repr__(self):
        return f"RtlModule({self.name!r})"
