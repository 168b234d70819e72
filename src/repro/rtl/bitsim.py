"""Bit-parallel (PPSFP) compiled backend: 64 simulations per word.

Classic parallel-pattern single-fault-propagation packs many independent
two-state simulations into one machine word: the netlist is *bit-sliced*
so that each bit of each net occupies one slot holding a Python int
whose bit *i* is that bit's value in simulation **lane** *i*.  Every
gate then becomes a single word-wide ``&``/``|``/``^`` over lane words,
so one settle pass advances all lanes at once -- the golden machine in
lane 0 plus up to ``lanes - 1`` faulty machines (or independent
stimulus walks) in the remaining lanes.

The lowering mirrors :mod:`repro.rtl.compile` (same elaboration-order
slot layout, same topological order, same constant folding and the same
tristate priority/conflict semantics) but decomposes every word-level
operator into per-bit boolean form:

* ``and``/``or``/``xor`` -- the per-bit word op;
* ``not`` -- ``x ^ M`` where ``M`` is the lane mask (all lanes set);
* ``add`` -- a ripple-carry chain with memoised carry words;
* ``eq``  -- the AND of per-bit XNORs, one lane word out;
* ``Mux`` -- ``(t & s) | (f & ~s)`` with the select word shared across
  all bits of the arm;
* ``Slice``/``Concat`` -- free bit routing (no code at all);
* reductions -- an OR/AND/XOR fold over the operand's bit words.

A two-pass emitter counts how often each (sub)expression bit is needed
and materialises shared values (mux selects, address decoders, carry
chains) into local temporaries, so the generated function stays
straight-line three-address-ish code over the flat bit-slot array.

Hierarchical port wiring is *slot-aliased* away: a combinational bit
that is pure routing (its expression resolves through Slice/Concat to a
plain ``Ref``) does not get a slot of its own -- it shares the slot of
the bit it routes to, transitively.  On a hierarchical design most comb
nets are exactly such port aliases (``top.w -> bank.w -> port.w``
chains), so this removes the majority of all settle assignments: the
alias is bit-identical to its source by construction, so no code needs
to run to keep it current.  The cost is that a net's bit slots are no
longer contiguous; ``bit_slots`` maps each net path to its per-bit slot
tuple and every consumer indexes through it.

Large mux chains get an *activity guard*: a combinational net with a
deep select tree (the SRAM read mux above all) is recomputed only when
one of its support nets -- the registers and free inputs its expression
transitively reads -- actually changed since the last settle.  Each
guarded net owns a dirty flag in ``ctx``; register commits that change
a watched net, input drives, and stuck-at forces raise the flags of the
guards they feed, and a clean flag lets settle skip the whole block (its
output slots still hold the previous, still-correct words).  The guard
is conservative (flags may be raised without a value change) so
skipping never alters a single lane bit.

Stuck-at faults are part of the step, not a patch applied after it:
each ``step_<edge>`` takes the simulator's
:class:`~repro.rtl.compile.Forces` table and applies it to the committed
lane words before its one settle, with masks that are lane words, so
each faulty lane's checkers sample the stuck value at the edge it
holds, and a faulty edge costs the same single settle as a golden one.
The simulator applies the same table to every input drive and at reset.

Lane count is arbitrary (Python ints are unbounded); 64 is the default
because one native machine word per slot is the classic PPSFP sweet
spot.  Tristate conflicts are tracked *per lane*: a conflict in lane 0
raises exactly like the compiled backend (the golden machine is the
reference), while conflicts confined to faulty lanes are accumulated in
``ctx[0]``, which a fault campaign reads as those lanes' ``bus_conflict``
detections.
"""

from __future__ import annotations

import sys
from typing import Callable, Optional

from .compile import _Emitter, _make_conflict, apply_forces, mangle_edge
from .hdl import (
    BinOp,
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

__all__ = ["BitparDesign", "compile_bitpar", "trace_bit"]

#: textual size at which a subexpression is spilled to a temporary --
#: bounds CPython's parser nesting limits on deep mux/reduce chains and
#: keeps shared decode logic from being re-evaluated inline
_SPILL_LEN = 240


def trace_bit(expr: Expr, scope: dict, bit: int,
              follow_comb: bool = True):
    """Follow pure wiring from bit ``bit`` of ``expr`` to its source.

    Walks ``Ref``/``Slice``/``Concat`` routing (and, with
    ``follow_comb``, through combinational nets that are themselves pure
    wiring) and returns the underlying ``(FlatNet, bit)`` -- a register
    or free input bit when the wiring bottoms out there.  Returns
    ``None`` as soon as real logic (gates, muxes, tristates) is hit.
    This is the support-resolution rule used both for fault collapsing
    (equivalent stuck-ats land on one register/input bit) and for the
    hold-register peephole of the bitpar codegen.
    """
    for __ in range(10_000):  # cycle guard; netlists are acyclic anyway
        while True:
            if isinstance(expr, Slice):
                bit += expr.lo
                expr = expr.a
                continue
            if isinstance(expr, Concat):
                for part in expr.parts:
                    if bit < part.width:
                        expr = part
                        break
                    bit -= part.width
                else:
                    return None
                continue
            break
        if not isinstance(expr, Ref):
            return None
        flat = scope.get(expr.net)
        if flat is None or bit >= flat.width:
            return None
        if flat.kind != "comb":
            return (flat, bit)
        if not follow_comb or flat.tristate is not None or flat.expr is None:
            return None
        expr, scope = flat.expr, flat.scope
    return None


def _atomic(src: str) -> bool:
    """True when ``src`` is free to duplicate: a name, a literal, or a
    direct slot read."""
    if src.isidentifier() or src.isdigit():
        return True
    return (src.startswith("v[") and src.endswith("]")
            and src[2:-1].isdigit())


# ----------------------------------------------------------------------
# lane-word boolean algebra on (source, const) pairs
# ----------------------------------------------------------------------
# ``const`` is the statically known *bit* value (0/1, broadcast to every
# lane) when the subtree folds; the source is then "0" or "M".
_PAIR = "tuple[str, Optional[int]]"


def _const_pair(bit: int) -> tuple:
    return ("M", 1) if bit else ("0", 0)


def _and2(a, b):
    (asrc, ac), (bsrc, bc) = a, b
    if ac == 0 or bc == 0:
        return _const_pair(0)
    if ac == 1:
        return b
    if bc == 1:
        return a
    return (f"({asrc} & {bsrc})", None)


def _or2(a, b):
    (asrc, ac), (bsrc, bc) = a, b
    if ac == 1 or bc == 1:
        return _const_pair(1)
    if ac == 0:
        return b
    if bc == 0:
        return a
    return (f"({asrc} | {bsrc})", None)


def _xor2(a, b):
    (asrc, ac), (bsrc, bc) = a, b
    if ac is not None and bc is not None:
        return _const_pair(ac ^ bc)
    if ac == 0:
        return b
    if bc == 0:
        return a
    if ac == 1:
        return (f"({bsrc} ^ M)", None)
    if bc == 1:
        return (f"({asrc} ^ M)", None)
    return (f"({asrc} ^ {bsrc})", None)


def _not1(a):
    src, c = a
    if c is not None:
        return _const_pair(1 - c)
    return (f"({src} ^ M)", None)


class _LaneLowerer:
    """Per-function expression lowering with shared-subterm temps.

    Used in two passes over identical request sequences: a *recording*
    pass counts how many times each ``(expr, scope, bit)`` value is
    needed, then the *emitting* pass materialises any value requested
    more than once (and every ripple carry) into a local temporary.
    Temporaries stay valid for the whole generated function because
    every net slot is written at most once per settle pass.
    """

    def __init__(self, emit: _Emitter, bit_slots: dict, record: bool,
                 counts: dict, indent: str = "    "):
        self.emit = emit
        self.bit_slots = bit_slots
        self.record = record
        self.counts = counts
        self.indent = indent
        self.memo: dict = {}

    def _spill(self, src: str) -> str:
        name = self.emit.temp("_b")
        self.emit.w(f"{self.indent}{name} = {src}")
        return name

    # -- the count/temp cache ------------------------------------------
    def cached(self, key, compute: Callable, force_temp: bool = False):
        if self.record:
            self.counts[key] = self.counts.get(key, 0) + 1
            hit = self.memo.get(key)
            if hit is None:
                src, const = compute()
                # spill oversized sources even in the recording pass so
                # string growth stays linear (output is discarded)
                if const is None and not _atomic(src) \
                        and len(src) > _SPILL_LEN:
                    src = self._spill(src)
                hit = (src, const)
                self.memo[key] = hit
            return hit
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        src, const = compute()
        if const is None and not _atomic(src) and (
                force_temp or len(src) > _SPILL_LEN
                or self.counts.get(key, 0) > 1):
            src = self._spill(src)
        pair = (src, const)
        self.memo[key] = pair
        return pair

    def flush(self, pair):
        """Cap the textual size of a fold accumulator by spilling it to
        a temp mid-fold (wide reductions and equalities would otherwise
        nest past CPython's parser limits)."""
        src, const = pair
        if const is not None or _atomic(src) or len(src) <= _SPILL_LEN:
            return pair
        return (self._spill(src), const)

    # -- expression lowering -------------------------------------------
    def lower(self, expr: Expr, scope: dict, bit: int):
        """Lower bit ``bit`` of ``expr`` to a lane-word (source, const)."""
        key = (id(expr), id(scope), bit)
        return self.cached(key, lambda: self._compute(expr, scope, bit))

    def _compute(self, expr: Expr, scope: dict, bit: int):
        if isinstance(expr, Const):
            return _const_pair((expr.value >> bit) & 1)
        if isinstance(expr, Ref):
            flat = scope.get(expr.net)
            if flat is None:
                raise HdlError(
                    f"net {expr.net.name} referenced by bitpar expression "
                    "is not in scope"
                )
            return (f"v[{self.bit_slots[flat.path][bit]}]", None)
        if isinstance(expr, UnOp):
            return _not1(self.lower(expr.a, scope, bit))
        if isinstance(expr, BinOp):
            return self._binop(expr, scope, bit)
        if isinstance(expr, Mux):
            return self._mux(expr, scope, bit)
        if isinstance(expr, Slice):
            return self.lower(expr.a, scope, bit + expr.lo)
        if isinstance(expr, Concat):
            offset = 0
            for part in expr.parts:
                if bit < offset + part.width:
                    return self.lower(part, scope, bit - offset)
                offset += part.width
            raise HdlError(f"concat bit {bit} out of range")
        if isinstance(expr, Reduce):
            return self._reduce(expr, scope)
        raise HdlError(
            f"bitpar backend cannot lower expression {type(expr).__name__}"
        )

    def _binop(self, expr: BinOp, scope: dict, bit: int):
        op = expr.op
        if op in ("and", "or", "xor"):
            a = self.lower(expr.a, scope, bit)
            b = self.lower(expr.b, scope, bit)
            return {"and": _and2, "or": _or2, "xor": _xor2}[op](a, b)
        if op == "eq":
            # one lane word out: AND of per-bit XNORs
            out = _const_pair(1)
            for i in range(expr.a.width):
                a = self.lower(expr.a, scope, i)
                b = self.lower(expr.b, scope, i)
                out = self.flush(_and2(out, _not1(_xor2(a, b))))
                if out[1] == 0:
                    return out
            return out
        if op == "add":
            a = self.lower(expr.a, scope, bit)
            b = self.lower(expr.b, scope, bit)
            c = self._carry(expr, scope, bit)
            return _xor2(_xor2(a, b), c)
        raise HdlError(f"bitpar backend cannot lower binop {op!r}")

    def _carry(self, expr: BinOp, scope: dict, bit: int):
        """The ripple carry *into* bit ``bit`` of an add (always a temp:
        inlining would nest the whole chain into one expression)."""
        if bit == 0:
            return _const_pair(0)
        key = ("carry", id(expr), id(scope), bit)

        def compute():
            a = self.lower(expr.a, scope, bit - 1)
            b = self.lower(expr.b, scope, bit - 1)
            c = self._carry(expr, scope, bit - 1)
            # carry-out = (a & b) | (c & (a ^ b))
            return _or2(_and2(a, b), _and2(c, _xor2(a, b)))

        return self.cached(key, compute, force_temp=True)

    def _mux(self, expr: Mux, scope: dict, bit: int):
        s = self.lower(expr.sel, scope, 0)
        if s[1] is not None:
            arm = expr.if_true if s[1] else expr.if_false
            return self.lower(arm, scope, bit)
        t = self.lower(expr.if_true, scope, bit)
        f = self.lower(expr.if_false, scope, bit)
        if t[1] is not None and t[1] == f[1]:
            return t
        ns = self.cached(("nsel", id(expr.sel), id(scope)),
                         lambda: _not1(s))
        return _or2(_and2(t, s), _and2(f, ns))

    def _reduce(self, expr: Reduce, scope: dict):
        width = expr.a.width
        bits = [self.lower(expr.a, scope, i) for i in range(width)]
        if expr.op == "or":
            out = _const_pair(0)
            for b in bits:
                out = self.flush(_or2(out, b))
                if out[1] == 1:
                    return out
            return out
        if expr.op == "and":
            out = _const_pair(1)
            for b in bits:
                out = self.flush(_and2(out, b))
                if out[1] == 0:
                    return out
            return out
        out = _const_pair(0)
        for b in bits:
            out = self.flush(_xor2(out, b))
        return out


# ----------------------------------------------------------------------
# hold-register peephole
# ----------------------------------------------------------------------
def _route(expr: Expr, bit: int):
    """Resolve which node actually produces bit ``bit`` of ``expr``
    (unwrapping Slice/Concat routing only)."""
    while True:
        if isinstance(expr, Slice):
            bit += expr.lo
            expr = expr.a
            continue
        if isinstance(expr, Concat):
            for part in expr.parts:
                if bit < part.width:
                    expr = part
                    break
                bit -= part.width
            else:
                raise HdlError(f"concat bit {bit} out of range")
            continue
        return expr, bit


#: minimum run length for the guarded-commit peephole; below this the
#: guard costs as much as the muxes it skips
_MIN_HOLD = 4


def _hold_groups(flat: FlatNet) -> list:
    """Partition a register's bits into plain runs and *hold groups*.

    A hold group is a maximal run of bits whose next value is
    ``Mux(load, x, self)`` with one shared select and the else-arm wired
    straight back to the same bit -- the load-enable idiom of every
    pipeline capture register and of each word of the SRAM write mux.
    Such runs commit through a lane-word guard: when no lane asserts
    ``load`` this edge, the whole group is skipped, which is what makes
    bit-sliced simulation of memories affordable (at most one SRAM word
    is written per edge, but all words would otherwise be re-muxed).
    Returns ``("plain", start, stop)`` / ``("hold", mux_node, start,
    stop)`` triples covering ``range(flat.width)`` in order.
    """
    groups: list = []

    def add_plain(start, stop):
        if groups and groups[-1][0] == "plain" and groups[-1][2] == start:
            groups[-1] = ("plain", groups[-1][1], stop)
        else:
            groups.append(("plain", start, stop))

    def holds(b):
        node, nb = _route(flat.next_expr, b)
        if not isinstance(node, Mux) or isinstance(node.sel, Const):
            return None
        if trace_bit(node.if_false, flat.scope, nb) != (flat, b):
            return None
        return node

    b = 0
    while b < flat.width:
        node = holds(b)
        if node is None:
            add_plain(b, b + 1)
            b += 1
            continue
        start = b
        b += 1
        while b < flat.width and holds(b) is node:
            b += 1
        if b - start >= _MIN_HOLD:
            groups.append(("hold", node, start, b))
        else:
            add_plain(start, b)
    return groups


# ----------------------------------------------------------------------
# activity guards
# ----------------------------------------------------------------------
#: minimum number of Mux nodes in a net's own expression before it gets
#: an activity guard; below this the flag bookkeeping costs more than
#: the recompute it skips.  The SRAM read mux (one Mux per memory word)
#: is the target; narrow control muxes stay unguarded.
_GUARD_MIN_MUXES = 8


def _count_muxes(expr: Expr) -> int:
    """Mux nodes in ``expr`` itself (shared subtrees once, Refs not
    followed -- a net is judged by its own logic, not its inputs')."""
    count = 0
    seen: set = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Mux):
            count += 1
            stack += (node.sel, node.if_true, node.if_false)
        elif isinstance(node, UnOp):
            stack.append(node.a)
        elif isinstance(node, BinOp):
            stack += (node.a, node.b)
        elif isinstance(node, Slice):
            stack.append(node.a)
        elif isinstance(node, Concat):
            stack += node.parts
        elif isinstance(node, Reduce):
            stack.append(node.a)
    return count


def _guard_support(expr: Expr, scope: dict):
    """The state/input nets ``expr`` transitively reads, as a path map.

    Recurses through combinational nets down to registers and free
    inputs.  Returns ``None`` when the support cannot be pinned down
    (a tristate bus or an undriven net in the cone): such a net is
    simply recomputed every settle, like before.
    """
    support: dict = {}
    seen: set = set()
    stack = [(expr, scope)]
    while stack:
        node, sc = stack.pop()
        key = (id(node), id(sc))
        if key in seen:
            continue
        seen.add(key)
        if isinstance(node, Const):
            continue
        if isinstance(node, Ref):
            flat = sc.get(node.net)
            if flat is None:
                return None
            if flat.kind == "comb":
                if flat.tristate is not None or flat.expr is None:
                    return None
                stack.append((flat.expr, flat.scope))
            else:
                support[flat.path] = flat
            continue
        if isinstance(node, UnOp):
            stack.append((node.a, sc))
        elif isinstance(node, BinOp):
            stack += ((node.a, sc), (node.b, sc))
        elif isinstance(node, Mux):
            stack += ((node.sel, sc), (node.if_true, sc),
                      (node.if_false, sc))
        elif isinstance(node, Slice):
            stack.append((node.a, sc))
        elif isinstance(node, Concat):
            stack += [(part, sc) for part in node.parts]
        elif isinstance(node, Reduce):
            stack.append((node.a, sc))
        else:
            return None
    return support


def _guard_plan(design: FlatDesign, aliased: set) -> tuple:
    """Pick the nets worth activity-guarding.

    Returns ``(guarded, watched)``: ``guarded`` maps a comb net path to
    its dirty-flag index in ``ctx`` (flag 0 is the conflict word, so
    guards start at 1); ``watched`` maps each support net path to the
    tuple of flag indexes that must be raised when it changes.
    """
    guarded: dict = {}
    watched: dict = {}
    for flat in design.comb_order:
        if flat.tristate is not None or flat.expr is None:
            continue
        if all((flat.path, b) in aliased for b in range(flat.width)):
            continue                     # pure routing: no code to guard
        if _count_muxes(flat.expr) < _GUARD_MIN_MUXES:
            continue
        support = _guard_support(flat.expr, flat.scope)
        if support is None:
            continue
        flag = len(guarded) + 1
        guarded[flat.path] = flag
        for path in support:
            watched.setdefault(path, []).append(flag)
    return guarded, {path: tuple(flags) for path, flags in watched.items()}


# ----------------------------------------------------------------------
# function codegen
# ----------------------------------------------------------------------
def _emit_comb(low: _LaneLowerer, emit: _Emitter, flat: FlatNet,
               slots, aliased, detect: bool,
               conflict_paths: list) -> None:
    """One combinational net: per-bit word assignments, or a lane-wise
    tristate priority network.  Bits in ``aliased`` share their source's
    slot and need no code at all."""
    if flat.tristate is None:
        assert flat.expr is not None
        for b in range(flat.width):
            if (flat.path, b) in aliased:
                continue
            src, __ = low.lower(flat.expr, flat.scope, b)
            emit.w(f"    v[{slots[b]}] = {src}  # {flat.path}[{b}]")
        return
    drivers = flat.tristate
    # evaluate every enable word once (like the compiled backend)
    enables = []
    for i, driver in enumerate(drivers):
        src, __ = low.lower(driver.enable, flat.scope, 0)
        name = emit.temp("_e")
        emit.w(f"    {name} = {src}  # {flat.path} en[{i}]")
        enables.append(name)
    # priority words: pri[i] = en[i] & ~(en[0] | ... | en[i-1]);
    # lanes where an earlier driver already won mask later drivers out,
    # mirroring the interpreter's first-enabled-wins driver order
    if detect and len(drivers) > 1:
        taken = enables[0]
        conflict = emit.temp("_c")
        emit.w(f"    {conflict} = 0")
        pris = [enables[0]]
        for i in range(1, len(drivers)):
            emit.w(f"    {conflict} |= {enables[i]} & {taken}")
            pri = emit.temp("_p")
            emit.w(f"    {pri} = {enables[i]} & ({taken} ^ M)")
            pris.append(pri)
            if i + 1 < len(drivers):
                new_taken = emit.temp("_k")
                emit.w(f"    {new_taken} = {taken} | {enables[i]}")
                taken = new_taken
        index = len(conflict_paths)
        conflict_paths.append(flat.path)
        # a conflict in the golden lane is a hard error, exactly like
        # the scalar backends; other lanes are only recorded in ctx
        emit.w(f"    if {conflict} & 1:")
        emit.w(f"        _conflict({index})")
        emit.w(f"    ctx[0] |= {conflict}")
    else:
        taken = None
        pris = [enables[0]]
        for i in range(1, len(drivers)):
            taken = enables[0] if taken is None else taken
            pri = emit.temp("_p")
            emit.w(f"    {pri} = {enables[i]} & ({taken} ^ M)")
            pris.append(pri)
            if i + 1 < len(drivers):
                new_taken = emit.temp("_k")
                emit.w(f"    {new_taken} = {taken} | {enables[i]}")
                taken = new_taken
    for b in range(flat.width):
        terms = []
        for i, driver in enumerate(drivers):
            vsrc, vc = low.lower(driver.value, flat.scope, b)
            if vc == 0:
                continue
            if vc == 1:
                terms.append(pris[i])
            else:
                terms.append(f"({pris[i]} & {vsrc})")
        out = " | ".join(terms) if terms else "0"
        emit.w(f"    v[{slots[b]}] = {out}  # {flat.path}[{b}]")


def _emit_guarded(bit_slots: dict, emit: _Emitter, flat: FlatNet,
                  slots, aliased, flag: int) -> None:
    """One activity-guarded combinational net: the per-bit assignments
    run only when the net's dirty flag is raised; a clean flag means no
    support bit changed, so the output slots are already correct."""
    def body(low: _LaneLowerer, out: _Emitter) -> None:
        for b in range(flat.width):
            if (flat.path, b) in aliased:
                continue
            src, __ = low.lower(flat.expr, flat.scope, b)
            out.w(f"        v[{slots[b]}] = {src}  # {flat.path}[{b}]")

    emit.w(f"    if ctx[{flag}]:  # guard {flat.path}")
    emit.w(f"        ctx[{flag}] = 0")
    # the block gets a private two-pass lowering: its temps live under
    # the guard, so nothing outside may rely on them (and vice versa)
    counts: dict = {}
    trial = _Emitter()
    body(_LaneLowerer(trial, bit_slots, True, counts,
                      indent="        "), trial)
    body(_LaneLowerer(emit, bit_slots, False, counts,
                      indent="        "), emit)


class BitparDesign:
    """The executable bit-sliced form of a flattened design.

    ``settle(v, ctx)`` re-evaluates all combinational bit words in
    topological order (``ctx[0]`` accumulates the lane word of tristate
    conflicts); ``steps[edge](v, fired, ctx, forces)`` applies one clock
    edge -- commit, the :class:`~repro.rtl.compile.Forces` table, settle,
    monitors -- and ``fired`` collects ``(monitor_index, lane_word)``
    pairs for every monitor whose fire word is non-zero in any lane.
    ``bit_slots`` maps net path to the tuple of that net's per-bit slots
    -- pure-routing alias bits share their source's slot, so the tuple
    need not be contiguous; ``init`` is the power-up lane word of every
    bit slot (register init bits broadcast to all lanes).  ``work``
    counts the word assignments per generated function for the
    ``words_evaluated`` statistic.  ``num_guards`` activity guards occupy ``ctx[1:]`` (all
    raised at reset); ``state_guards`` maps a watched register/input
    path to the guard flags that must be raised when external code --
    input drives, fault forces -- changes its bits, and ``slot_guards``
    maps each bit slot of such a net to the same flags.
    """

    __slots__ = ("design", "lanes", "lane_mask", "detect_bus_conflicts",
                 "settle", "steps", "init", "source", "bit_slots",
                 "num_bit_slots", "work", "num_guards", "state_guards",
                 "slot_guards")

    def __init__(self, design: FlatDesign, lanes: int,
                 detect_bus_conflicts: bool, settle: Callable,
                 steps: dict, init: tuple, source: str, bit_slots: dict,
                 num_bit_slots: int, work: dict, num_guards: int,
                 state_guards: dict, slot_guards: dict):
        self.design = design
        self.lanes = lanes
        self.lane_mask = (1 << lanes) - 1
        self.detect_bus_conflicts = detect_bus_conflicts
        self.settle = settle
        self.steps = steps
        self.init = init
        self.source = source
        self.bit_slots = bit_slots
        self.num_bit_slots = num_bit_slots
        self.work = work
        self.num_guards = num_guards
        self.state_guards = state_guards
        self.slot_guards = slot_guards


def _count_work(lines: list, start: int) -> int:
    return sum(1 for line in lines[start:] if " = " in line)


def compile_bitpar(design: FlatDesign, detect_bus_conflicts: bool = True,
                   lanes: int = 64) -> BitparDesign:
    """Lower ``design`` to bit-sliced lane-word ``settle`` / step code."""
    if lanes < 1:
        raise HdlError(f"lane count must be positive, got {lanes}")
    # per-bit lowering recurses one frame deeper per mux-chain level than
    # the scalar lowerer; address-decode chains on big memories (e.g. the
    # 256-word SRAM at addr_bits=8) need more headroom than the default
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 50_000))
    try:
        return _compile_bitpar(design, detect_bus_conflicts, lanes)
    finally:
        sys.setrecursionlimit(limit)


def _alias_layout(design: FlatDesign) -> tuple:
    """Assign bit slots with pure-routing aliases folded onto their
    source bit.

    Returns ``(bit_slots, num_bit_slots, aliased)`` where ``aliased`` is
    the set of ``(path, bit)`` keys that own no slot (and therefore get
    no settle assignment).  Only non-tristate combinational bits whose
    expression resolves through Slice/Concat routing to a plain ``Ref``
    alias; registers and free inputs always own their slots, so ``init``
    and the input-drive paths are unaffected.
    """
    route_to: dict = {}
    for flat in design.nets.values():
        if (flat.kind != "comb" or flat.tristate is not None
                or flat.expr is None):
            continue
        for b in range(flat.width):
            node, nb = _route(flat.expr, b)
            if isinstance(node, Ref):
                target = flat.scope.get(node.net)
                if target is not None and nb < target.width:
                    route_to[(flat.path, b)] = (target.path, nb)

    def resolve(key):
        chain = []
        while key in route_to:
            chain.append(key)
            key = route_to[key]
            if len(chain) > len(route_to):
                raise HdlError(f"combinational routing cycle at {key}")
        for item in chain:  # path compression
            route_to[item] = key
        return key

    slot_of: dict = {}
    next_slot = 0
    for flat in design.nets.values():
        for b in range(flat.width):
            if (flat.path, b) not in route_to:
                slot_of[(flat.path, b)] = next_slot
                next_slot += 1
    bit_slots = {
        flat.path: tuple(slot_of[resolve((flat.path, b))]
                         for b in range(flat.width))
        for flat in design.nets.values()
    }
    return bit_slots, next_slot, set(route_to)


def _compile_bitpar(design: FlatDesign, detect_bus_conflicts: bool,
                    lanes: int) -> BitparDesign:
    # bit-slot layout: nets in elaboration (slot) order, one slot per
    # non-aliased bit
    bit_slots, num_bit_slots, aliased = _alias_layout(design)
    guarded, watched = _guard_plan(design, aliased)
    # slots of watched nets, for flag-raising at register commit sites
    watched_slots: dict = {}
    for path, flags in watched.items():
        for slot in bit_slots[path]:
            watched_slots[slot] = flags

    emit = _Emitter()
    conflict_paths: list = []
    counts: dict = {}
    work: dict = {}

    def settle_body(low: _LaneLowerer, out: _Emitter,
                    paths: list) -> None:
        start = len(out.lines)
        for flat in design.comb_order:
            flag = guarded.get(flat.path)
            if flag is None:
                _emit_comb(low, out, flat, bit_slots[flat.path], aliased,
                           detect_bus_conflicts, paths)
            elif not low.record:
                # guarded blocks lower privately (emit pass only): their
                # temps are conditional, so nothing outside shares them
                _emit_guarded(bit_slots, out, flat,
                              bit_slots[flat.path], aliased, flag)
        if len(out.lines) == start:   # everything aliased (or no comb)
            out.w("    pass")

    # pass 1 (recording): count shared subexpressions, discard output
    trial = _Emitter()
    settle_body(_LaneLowerer(trial, bit_slots, True, counts), trial, [])
    # pass 2: emit with temps for everything requested more than once
    emit.w("def settle(v, ctx):")
    mark = len(emit.lines)
    settle_body(_LaneLowerer(emit, bit_slots, False, counts), emit,
                conflict_paths)
    work["settle"] = _count_work(emit.lines, mark)

    edges = sorted(set(design.clocks)
                   | {monitor.clock for monitor in design.monitors})
    step_names: dict = {}
    for edge in edges:
        name = f"step_{mangle_edge(edge)}"
        while name in step_names.values():
            name += "_"
        step_names[edge] = name
        regs = [flat for flat in design.regs if flat.clock == edge]

        def next_state(low: _LaneLowerer, out: _Emitter):
            temps = []   # unconditional commits: (slot, temp)
            holds = []   # guarded commits: (sel_name, [(slot, temp)])
            for flat in regs:
                slots = bit_slots[flat.path]
                scope = flat.scope
                for group in _hold_groups(flat):
                    if group[0] == "plain":
                        __, start, stop = group
                        for b in range(start, stop):
                            src, ___ = low.lower(flat.next_expr, scope, b)
                            temp = out.temp("_n")
                            temps.append((slots[b], temp))
                            out.w(f"    {temp} = {src}"
                                  f"  # next {flat.path}[{b}]")
                        continue
                    __, node, start, stop = group
                    ssrc, ___ = low.lower(node.sel, scope, 0)
                    sel = out.temp("_g")
                    out.w(f"    {sel} = {ssrc}"
                          f"  # load {flat.path}[{start}:{stop}]")
                    out.w(f"    if {sel}:")
                    # the guarded block gets its own lowerer: its temps
                    # must never leak to (possibly unguarded) later code
                    block = _LaneLowerer(out, bit_slots, low.record, {},
                                         indent="        ")
                    pairs = []
                    for b in range(start, stop):
                        ___, nb = _route(flat.next_expr, b)
                        tsrc, ___ = block.lower(node.if_true, scope, nb)
                        temp = out.temp("_h")
                        out.w(f"        {temp} = {tsrc}")
                        pairs.append((slots[b], temp))
                    holds.append((sel, pairs))
            return temps, holds

        edge_counts: dict = {}
        trial = _Emitter()
        next_state(_LaneLowerer(trial, bit_slots, True, edge_counts), trial)
        emit.w()
        emit.w(f"def {name}(v, fired, ctx, forces):")
        mark = len(emit.lines)
        temps, holds = next_state(
            _LaneLowerer(emit, bit_slots, False, edge_counts), emit)
        for slot, temp in temps:
            flags = watched_slots.get(slot)
            if flags is None:
                emit.w(f"    v[{slot}] = {temp}")
            else:
                # a watched bit raises its guards' flags, but only on a
                # real change -- commits are unconditional every edge
                emit.w(f"    if v[{slot}] != {temp}:")
                emit.w(f"        v[{slot}] = {temp}")
                for flag in flags:
                    emit.w(f"        ctx[{flag}] = 1")
        for sel, pairs in holds:
            # lanes that assert the load take the sampled value, the
            # rest hold -- one guard skips the whole group when idle
            emit.w(f"    if {sel}:")
            gn = emit.temp("_gn")
            emit.w(f"        {gn} = {sel} ^ M")
            for slot, temp in pairs:
                emit.w(f"        v[{slot}] = ({temp} & {sel})"
                       f" | (v[{slot}] & {gn})")
            hold_flags: dict = {}
            for slot, __t in pairs:
                for flag in watched_slots.get(slot, ()):
                    hold_flags[flag] = True
            for flag in hold_flags:
                emit.w(f"        ctx[{flag}] = 1")
        emit.w(f"    _force(v, forces, ctx, {edge!r})")
        emit.w("    settle(v, ctx)")
        for index, monitor in enumerate(design.monitors):
            if monitor.clock != edge:
                continue
            fire_slot = bit_slots[monitor.fire.path][0]
            word = emit.temp("_m")
            emit.w(f"    {word} = v[{fire_slot}]  # {monitor.name}")
            emit.w(f"    if {word}:")
            emit.w(f"        fired.append(({index}, {word}))")
        work[edge] = work["settle"] + _count_work(emit.lines, mark)

    source = "\n".join(emit.lines) + "\n"
    lane_mask = (1 << lanes) - 1
    namespace: dict = {
        "__builtins__": {},
        "M": lane_mask,
        "_conflict": _make_conflict(tuple(conflict_paths)),
        "_force": apply_forces,
    }
    exec(compile(source, "<repro.rtl.bitsim>", "exec"), namespace)

    init = [0] * num_bit_slots
    for flat in design.regs:
        slots = bit_slots[flat.path]
        for b in range(flat.width):
            if (flat.init >> b) & 1:
                init[slots[b]] = lane_mask
    return BitparDesign(
        design,
        lanes,
        detect_bus_conflicts,
        namespace["settle"],
        {edge: namespace[name] for edge, name in step_names.items()},
        tuple(init),
        source,
        bit_slots,
        num_bit_slots,
        work,
        len(guarded),
        watched,
        watched_slots,
    )
