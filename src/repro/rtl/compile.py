"""Compiled-simulation backend: codegen a :class:`FlatDesign` to Python.

The interpreted simulator re-walks every expression tree through virtual
``evaluate(read)`` calls on each edge, paying a closure allocation per
register and a dict lookup per net read.  This module does what a
Verilator-style compiled simulator does at a smaller scale: it walks the
flattened netlist **once**, lowers every expression to inline Python
source over a flat slot array ``v`` (``v[slot]`` per net, no dicts, no
closures), and compiles the result with ``compile()``/``exec()`` into

* one ``settle(v)`` function -- the combinational nets in topological
  order, each a single ``v[slot] = <expr>`` statement (tristate nets
  lower to ``if``/``elif`` priority ladders, mirroring the interpreter's
  driver ordering and conflict detection);
* one ``step_<edge>(v, fired, forces)`` function per clock edge
  (``step_K``, ``step_Ksharp``, ...) -- next-state temporaries,
  simultaneous commit, the simulator's stuck-at table applied to the
  committed state (``_force``, see :class:`Forces`), a ``settle`` call,
  then the edge's assertion monitors lowered to inline guard checks
  appending monitor indices to ``fired``.

Lowering performs constant folding (any subtree without net references
becomes a literal) and width-mask elision: the invariant is that every
emitted expression already fits its declared width, so masks are only
materialised where an operator can overflow it (``~``, ``+``, inner
slices) -- exactly the places the interpreter masks too, which keeps the
two backends bit-identical.
"""

from __future__ import annotations

from typing import Callable, Optional

from .hdl import (
    BinOp,
    BusConflict,
    Concat,
    Const,
    Expr,
    HdlError,
    Mux,
    Net,
    Reduce,
    Ref,
    Slice,
    UnOp,
)
from .netlist import FlatDesign, FlatNet

__all__ = ["CompiledDesign", "Forces", "apply_forces", "compile_design",
           "mangle_edge"]


def _mask(width: int) -> int:
    return (1 << width) - 1


def mangle_edge(edge: str) -> str:
    """A Python-identifier-safe rendering of a clock edge name."""
    out = []
    for ch in edge:
        if ch.isalnum():
            out.append(ch)
        elif ch == "#":
            out.append("sharp")
        else:
            out.append("_")
    return "".join(out) or "edge"


# ----------------------------------------------------------------------
# expression lowering
# ----------------------------------------------------------------------
def _lower(expr: Expr, scope: dict[Net, FlatNet]) -> tuple[str, Optional[int]]:
    """Lower ``expr`` to ``(source, const_value)``.

    ``const_value`` is the statically known value when the subtree folds
    to a constant (``source`` is then its literal).  The emitted source is
    always parenthesised or atomic, and its run-time value is guaranteed
    to fit ``expr.width`` -- the same invariant the interpreter maintains
    for stored net values.
    """
    if isinstance(expr, Const):
        return str(expr.value), expr.value
    if isinstance(expr, Ref):
        flat = scope.get(expr.net)
        if flat is None:
            raise HdlError(
                f"net {expr.net.name} referenced by compiled expression "
                "is not in scope"
            )
        return f"v[{flat.slot}]", None
    if isinstance(expr, UnOp):
        a, ac = _lower(expr.a, scope)
        mask = _mask(expr.width)
        if ac is not None:
            value = (~ac) & mask
            return str(value), value
        return f"(~{a} & {mask})", None
    if isinstance(expr, BinOp):
        return _lower_binop(expr, scope)
    if isinstance(expr, Mux):
        s, sc = _lower(expr.sel, scope)
        if sc is not None:
            return _lower(expr.if_true if sc else expr.if_false, scope)
        t, tc = _lower(expr.if_true, scope)
        f, fc = _lower(expr.if_false, scope)
        if tc is not None and tc == fc:
            return t, tc
        return f"({t} if {s} else {f})", None
    if isinstance(expr, Slice):
        a, ac = _lower(expr.a, scope)
        if ac is not None:
            value = (ac >> expr.lo) & _mask(expr.width)
            return str(value), value
        top = expr.hi == expr.a.width - 1
        if expr.lo == 0:
            return (a, None) if top else (f"({a} & {_mask(expr.width)})", None)
        if top:
            return f"({a} >> {expr.lo})", None
        return f"(({a} >> {expr.lo}) & {_mask(expr.width)})", None
    if isinstance(expr, Concat):
        shift = 0
        const_bits = 0
        terms = []
        for part in expr.parts:
            src, c = _lower(part, scope)
            if c is not None:
                const_bits |= c << shift
            else:
                terms.append(src if shift == 0 else f"({src} << {shift})")
            shift += part.width
        if not terms:
            return str(const_bits), const_bits
        if const_bits:
            terms.append(str(const_bits))
        if len(terms) == 1:
            return terms[0], None
        return "(" + " | ".join(terms) + ")", None
    if isinstance(expr, Reduce):
        a, ac = _lower(expr.a, scope)
        full = _mask(expr.a.width)
        if ac is not None:
            if expr.op == "xor":
                value = ac.bit_count() & 1
            elif expr.op == "or":
                value = 1 if ac else 0
            else:
                value = 1 if ac == full else 0
            return str(value), value
        if expr.a.width == 1:
            return a, None  # all three reductions are identity on one bit
        if expr.op == "xor":
            return f"(({a}).bit_count() & 1)", None
        if expr.op == "or":
            return f"(1 if {a} else 0)", None
        return f"(1 if {a} == {full} else 0)", None
    raise HdlError(
        f"compiled backend cannot lower expression {type(expr).__name__}"
    )


def _lower_binop(expr: BinOp, scope: dict[Net, FlatNet]) -> tuple[str, Optional[int]]:
    a, ac = _lower(expr.a, scope)
    b, bc = _lower(expr.b, scope)
    op = expr.op
    if ac is not None and bc is not None:
        if op == "and":
            value = ac & bc
        elif op == "or":
            value = ac | bc
        elif op == "xor":
            value = ac ^ bc
        elif op == "add":
            value = (ac + bc) & _mask(expr.width)
        else:
            value = 1 if ac == bc else 0
        return str(value), value
    full = _mask(expr.width)
    if op == "and":
        if ac == 0 or bc == 0:
            return "0", 0
        if ac == full:
            return b, None
        if bc == full:
            return a, None
        return f"({a} & {b})", None
    if op == "or":
        if ac == 0:
            return b, None
        if bc == 0:
            return a, None
        return f"({a} | {b})", None
    if op == "xor":
        if ac == 0:
            return b, None
        if bc == 0:
            return a, None
        return f"({a} ^ {b})", None
    if op == "add":
        if ac == 0:
            return b, None
        if bc == 0:
            return a, None
        return f"(({a} + {b}) & {full})", None
    return f"(1 if {a} == {b} else 0)", None


# ----------------------------------------------------------------------
# function codegen
# ----------------------------------------------------------------------
class _Emitter:
    """Accumulates source lines and fresh temporary names."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self._temp = 0

    def w(self, line: str = "") -> None:
        self.lines.append(line)

    def temp(self, prefix: str = "_t") -> str:
        name = f"{prefix}{self._temp}"
        self._temp += 1
        return name


def _emit_comb(emit: _Emitter, flat: FlatNet, detect: bool,
               conflict_paths: list[str], indent: str = "    ") -> None:
    """One combinational net: plain assignment or tristate ladder."""
    if flat.tristate is None:
        assert flat.expr is not None
        src, __ = _lower(flat.expr, flat.scope)
        emit.w(f"{indent}v[{flat.slot}] = {src}  # {flat.path}")
        return
    drivers = flat.tristate
    values = [_lower(d.value, flat.scope)[0] for d in drivers]
    if detect:
        # evaluate every enable once, then check for multiple drivers
        # exactly like the interpreter (second enabled driver conflicts
        # before its value is computed)
        enables = []
        for driver in drivers:
            en_src, __ = _lower(driver.enable, flat.scope)
            name = emit.temp("_e")
            emit.w(f"{indent}{name} = {en_src}")
            enables.append(name)
        conflict_index = len(conflict_paths)
        conflict_paths.append(flat.path)
        for i, enable in enumerate(enables):
            kw = "if" if i == 0 else "elif"
            emit.w(f"{indent}{kw} {enable}:  # {flat.path}[{i}]")
            later = " or ".join(enables[i + 1:])
            if later:
                emit.w(f"{indent}    if {later}:")
                emit.w(f"{indent}        _conflict({conflict_index})")
            emit.w(f"{indent}    v[{flat.slot}] = {values[i]}")
        emit.w(f"{indent}else:")
        emit.w(f"{indent}    v[{flat.slot}] = 0")
    else:
        # first enabled driver wins; later enables are never evaluated
        # (the interpreter breaks out of its driver loop the same way)
        for i, driver in enumerate(drivers):
            en_src, __ = _lower(driver.enable, flat.scope)
            kw = "if" if i == 0 else "elif"
            emit.w(f"{indent}{kw} {en_src}:  # {flat.path}[{i}]")
            emit.w(f"{indent}    v[{flat.slot}] = {values[i]}")
        emit.w(f"{indent}else:")
        emit.w(f"{indent}    v[{flat.slot}] = 0")


class Forces:
    """A simulator's stuck-at table, the last argument of every generated
    step function.

    ``at`` maps a clock edge to the entries its register commit forces,
    and ``None`` to the entries of free inputs, which every drive
    forces.  An entry is ``(slot, keep, put, flags)``: the forced slot
    holds ``(value & keep) | put``, so one entry forces any mix of bits
    (or, on the bitpar backend, of lanes) to 0 and to 1, and a change
    raises the bitpar activity-guard ``flags``.  ``hits`` ORs together
    every bit a force changed -- the fault's ``triggered`` word.
    """

    __slots__ = ("at", "inputs", "hits")

    def __init__(self, at: Optional[dict] = None):
        self.at = at or {}
        #: forced input slot -> (keep, put), for the drive path
        self.inputs = {slot: (keep, put)
                       for slot, keep, put, __ in self.at.get(None, ())}
        self.hits = 0

    def word(self, slot: int, value: int) -> int:
        """``value`` as input slot ``slot`` holds it under the table."""
        entry = self.inputs.get(slot)
        if entry is None:
            return value
        forced = (value & entry[0]) | entry[1]
        self.hits |= value ^ forced
        return forced


def apply_forces(v: list, forces: Forces, ctx: Optional[list],
                 edge: Optional[str]) -> None:
    """Force the entries of ``edge`` (``None``: the free inputs) in
    ``v``, raising the activity-guard flags in ``ctx`` (bitpar) of each
    slot that changes.  The generated steps call it as ``_force``
    between the register commit and the settle, so the settle and the
    monitors see the forced state; the symbolic executor of
    :mod:`repro.sat.symexec` skips the call, which models the
    fault-free kernel."""
    entries = forces.at.get(edge)
    if not entries:
        return
    hits = 0
    for slot, keep, put, flags in entries:
        old = v[slot]
        new = old & keep | put
        if new != old:
            v[slot] = new
            hits |= old ^ new
            for flag in flags:
                ctx[flag] = 1
    if hits:
        forces.hits |= hits


def _make_conflict(paths: tuple[str, ...]) -> Callable[[int], None]:
    def _conflict(index: int) -> None:
        raise BusConflict(
            f"bus conflict on {paths[index]}: multiple tristate "
            "drivers enabled"
        )

    return _conflict


class CompiledDesign:
    """The executable form of a flattened design.

    ``settle(v)`` re-evaluates all combinational nets in topological
    order; ``steps[edge](v, fired, forces)`` applies one rising edge of
    the named clock (simultaneous register commit, the :class:`Forces`
    table, settle, monitor guards -- ``fired`` collects indices into
    ``design.monitors``).  ``init`` is the power-up value of every slot;
    ``source`` keeps the generated Python for inspection and tests.
    """

    __slots__ = ("design", "detect_bus_conflicts", "settle", "steps",
                 "init", "source")

    def __init__(self, design: FlatDesign, detect_bus_conflicts: bool,
                 settle: Callable, steps: dict[str, Callable],
                 init: tuple[int, ...], source: str):
        self.design = design
        self.detect_bus_conflicts = detect_bus_conflicts
        self.settle = settle
        self.steps = steps
        self.init = init
        self.source = source


def compile_design(design: FlatDesign,
                   detect_bus_conflicts: bool = True) -> CompiledDesign:
    """Lower ``design`` to compiled ``settle`` / per-edge step functions."""
    emit = _Emitter()
    conflict_paths: list[str] = []

    emit.w("def settle(v):")
    if design.comb_order:
        for flat in design.comb_order:
            _emit_comb(emit, flat, detect_bus_conflicts, conflict_paths)
    else:
        emit.w("    pass")

    edges = sorted(set(design.clocks)
                   | {monitor.clock for monitor in design.monitors})
    step_names: dict[str, str] = {}
    for edge in edges:
        name = f"step_{mangle_edge(edge)}"
        while name in step_names.values():  # distinct edges, same mangle
            name += "_"
        step_names[edge] = name
        emit.w()
        emit.w(f"def {name}(v, fired, forces):")
        regs = [flat for flat in design.regs if flat.clock == edge]
        temps = []
        for flat in regs:
            src, __ = _lower(flat.next_expr, flat.scope)
            temp = emit.temp("_n")
            temps.append(temp)
            emit.w(f"    {temp} = {src}  # next {flat.path}")
        for flat, temp in zip(regs, temps):
            emit.w(f"    v[{flat.slot}] = {temp}")
        emit.w(f"    _force(v, forces, None, {edge!r})")
        emit.w("    settle(v)")
        for index, monitor in enumerate(design.monitors):
            if monitor.clock != edge:
                continue
            emit.w(f"    if v[{monitor.fire.slot}]:")
            emit.w(f"        fired.append({index})  # {monitor.name}")

    source = "\n".join(emit.lines) + "\n"
    namespace: dict = {
        "__builtins__": {},
        "_conflict": _make_conflict(tuple(conflict_paths)),
        "_force": apply_forces,
    }
    exec(compile(source, "<repro.rtl.compile>", "exec"), namespace)

    init = [0] * design.num_slots
    for flat in design.regs:
        init[flat.slot] = flat.init
    return CompiledDesign(
        design,
        detect_bus_conflicts,
        namespace["settle"],
        {edge: namespace[name] for edge, name in step_names.items()},
        tuple(init),
        source,
    )
