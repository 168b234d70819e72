"""One bit-level lowering of netlist expressions, for any gate builder.

The BDD model (:class:`repro.mc.transition.SymbolicModel`) and the CNF
encoder (:class:`repro.sat.encode.NetlistEncoder`) bit-blast the same
:class:`~repro.rtl.netlist.FlatDesign`; both lower it through this
module.  A *gate builder* ``g`` is any object with

* ``g.TRUE`` and ``g.FALSE``, the constant functions;
* ``g.not_``, ``g.and_``, ``g.or_``, ``g.xor``, ``g.xnor`` and ``g.ite``;
* ``g.and_all`` and ``g.or_all``, n-ary folds that stop at their
  absorbing constant.

:class:`repro.bdd.BddManager` and :class:`repro.sat.cnf.Tseitin` both
qualify.  Both fold constants and ``Tseitin`` also hashes structurally,
so the lowering emits one gate per operation and leaves sharing to the
builder.  A vector is a list of gate outputs, LSB first, and the
semantics match the interpreter bit for bit: equality is an AND of
XNORs, addition a ripple carry truncated to the operand width, and a
tristate net a priority mux over its drivers (the first enabled driver
wins) that reads 0 when none is enabled.
"""

from __future__ import annotations

from .hdl import BinOp, Concat, Const, Expr, Mux, Reduce, Ref, Slice, UnOp
from .netlist import FlatDesign

__all__ = ["add", "equal", "lower_comb", "lower_expr", "parity"]


def equal(g, a, b):
    """AND of per-bit XNORs over ``zip(a, b)``; no XNOR is built once the
    conjunction is FALSE."""
    return g.and_all(g.xnor(x, y) for x, y in zip(a, b))


def add(g, a, b) -> list:
    """Ripple-carry sum truncated to ``min(len(a), len(b))`` bits."""
    out = []
    carry = g.FALSE
    for x, y in zip(a, b):
        out.append(g.xor(g.xor(x, y), carry))
        carry = g.or_(g.and_(x, y), g.and_(carry, g.or_(x, y)))
    return out


def parity(g, bits):
    """XOR of ``bits`` (FALSE for none)."""
    acc = g.FALSE
    for bit in bits:
        acc = g.xor(acc, bit)
    return acc


def lower_expr(g, expr: Expr, scope: dict, bits: dict) -> list:
    """The vector of ``expr``; ``scope`` resolves its nets to flat nets
    and ``bits`` maps each flat net it reads to that net's vector."""
    if isinstance(expr, Const):
        return [g.TRUE if (expr.value >> i) & 1 else g.FALSE
                for i in range(expr.width)]
    if isinstance(expr, Ref):
        return list(bits[scope[expr.net]])
    if isinstance(expr, UnOp):
        return [g.not_(x) for x in lower_expr(g, expr.a, scope, bits)]
    if isinstance(expr, BinOp):
        a = lower_expr(g, expr.a, scope, bits)
        b = lower_expr(g, expr.b, scope, bits)
        if expr.op == "and":
            return [g.and_(x, y) for x, y in zip(a, b)]
        if expr.op == "or":
            return [g.or_(x, y) for x, y in zip(a, b)]
        if expr.op == "xor":
            return [g.xor(x, y) for x, y in zip(a, b)]
        if expr.op == "eq":
            return [equal(g, a, b)]
        if expr.op == "add":
            return add(g, a, b)
    if isinstance(expr, Mux):
        sel = lower_expr(g, expr.sel, scope, bits)[0]
        t = lower_expr(g, expr.if_true, scope, bits)
        f = lower_expr(g, expr.if_false, scope, bits)
        return [g.ite(sel, x, y) for x, y in zip(t, f)]
    if isinstance(expr, Slice):
        return lower_expr(g, expr.a, scope, bits)[expr.lo : expr.hi + 1]
    if isinstance(expr, Concat):
        out = []
        for part in expr.parts:
            out.extend(lower_expr(g, part, scope, bits))
        return out
    if isinstance(expr, Reduce):
        vec = lower_expr(g, expr.a, scope, bits)
        if expr.op == "xor":
            return [parity(g, vec)]
        if expr.op == "or":
            return [g.or_all(vec)]
        return [g.and_all(vec)]
    raise TypeError(f"cannot lower {expr!r}")


def lower_comb(g, design: FlatDesign, bits: dict) -> None:
    """Add the vector of every combinational net of ``design`` to
    ``bits``, in ``comb_order``; ``bits`` must already map every
    register and input."""
    for flat in design.comb_order:
        if flat.tristate is None:
            assert flat.expr is not None
            bits[flat] = lower_expr(g, flat.expr, flat.scope, bits)
            continue
        # priority mux over the drivers, undriven value 0
        out = [g.FALSE] * flat.width
        for driver in reversed(flat.tristate):
            enable = lower_expr(g, driver.enable, flat.scope, bits)[0]
            value = lower_expr(g, driver.value, flat.scope, bits)
            out = [g.ite(enable, v, b) for v, b in zip(value, out)]
        bits[flat] = out
