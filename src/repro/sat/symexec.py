"""Symbolic execution of generated simulator backend source.

The compiled (:mod:`repro.rtl.compile`) and bit-parallel
(:mod:`repro.rtl.bitsim`) backends both work by *codegen*: they emit a
Python module (``settle`` plus one ``step_<edge>`` function per clock)
and ``exec`` it.  Any bug in that lowering -- a wrong mask, a mux arm
swap, a priority inversion in a tristate ladder -- lives in the emitted
source, not in the netlist.  To check the emitted logic itself, this
module re-executes the generated source **symbolically**: every slot of
the ``v`` array holds a vector of CNF literals instead of an int, every
``&``/``|``/``^``/``+``/shift/compare becomes a Tseitin gate, and every
data-dependent branch executes both arms and merges the stores through
per-bit ``ite``.  The result is a literal vector per slot, in the same
:class:`~repro.sat.cnf.Tseitin` environment as the reference netlist
encoding -- ready for a miter.

The executor is deliberately a *dumb* interpreter of the Python ``ast``:
it understands only the statement and expression forms the two emitters
produce (straight-line assignments, ``if``/``elif`` ladders, calls to
``settle``/``_conflict``/``_force``/``fired.append``, ``bit_count() &
1``) and raises :class:`SymexecError` on anything else, so codegen drift
is caught instead of silently mis-modelled.  The stuck-at table a step
applies through ``_force`` is modelled as empty: the equivalence checker
checks the fault-free kernel.

Python ints are modelled as :class:`Bv` -- an LSB-first literal vector
plus a *tail* literal giving the value of every bit above the vector
(``~x`` has an all-ones tail, which the emitted ``& mask`` immediately
truncates; this mirrors Python's infinite-precision ``~`` exactly).
"""

from __future__ import annotations

import ast
from typing import Dict, Optional, Sequence

from ..rtl.bitblast import add, equal, parity
from .cnf import Tseitin

__all__ = ["Bv", "SymexecError", "SymbolicExecutor"]


class SymexecError(Exception):
    """Generated source used a construct the executor does not model."""


class Bv:
    """An integer as an LSB-first literal vector with a tail literal.

    ``bits[i]`` is the literal for bit *i*; every bit at index
    ``>= len(bits)`` equals ``tail`` (``FALSE`` for ordinary
    non-negative values, ``TRUE`` after a Python ``~``).
    """

    __slots__ = ("bits", "tail")

    def __init__(self, bits: Sequence[int], tail: int):
        self.bits = list(bits)
        self.tail = tail

    def bit(self, i: int) -> int:
        return self.bits[i] if i < len(self.bits) else self.tail


class _PopCount:
    """The unevaluated result of ``(x).bit_count()``.

    Only ``& 1`` (parity) is ever applied to it by the compiled
    backend's xor-reduce lowering, and only that form is supported.
    """

    __slots__ = ("value",)

    def __init__(self, value: Bv):
        self.value = value


class _Env:
    """One function activation: local names (arrays are plain lists)."""

    __slots__ = ("vars",)

    def __init__(self, vars: Dict[str, object]):
        self.vars = vars

    def fork(self) -> "_Env":
        return _Env({
            name: list(value) if isinstance(value, list) else value
            for name, value in self.vars.items()
        })


class SymbolicExecutor:
    """Execute generated backend source over literal vectors.

    ``source`` is parsed once; :meth:`call` runs one of its functions
    with the given positional arguments (lists are mutated in place,
    exactly like the concrete ``exec``'d functions mutate ``v``).
    ``global_values`` provides module-namespace names the source reads
    (the bitpar backend's lane mask ``M``).
    """

    def __init__(self, tseitin: Tseitin, source: str,
                 global_values: Optional[Dict[str, Bv]] = None):
        self.t = tseitin
        self.globals = dict(global_values or {})
        self.functions: Dict[str, ast.FunctionDef] = {}
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                self.functions[node.name] = node
            else:
                raise SymexecError(
                    f"unexpected top-level node {type(node).__name__}"
                )
        self._int_cache: Dict[int, Bv] = {}
        self._hooks: Dict[str, object] = {}
        self._fork_depth = 0

    # ------------------------------------------------------------------
    # value plumbing
    # ------------------------------------------------------------------
    def from_int(self, value: int) -> Bv:
        if value < 0:
            raise SymexecError(f"negative literal {value} in source")
        bv = self._int_cache.get(value)
        if bv is None:
            t = self.t
            bits = [
                t.TRUE if (value >> i) & 1 else t.FALSE
                for i in range(value.bit_length())
            ]
            bv = Bv(bits, t.FALSE)
            self._int_cache[value] = bv
        return bv

    def _truthy(self, value) -> int:
        """The literal for ``bool(value)`` (Python nonzero test)."""
        bv = self._as_bv(value)
        return self.t.or_(self.t.or_all(bv.bits), bv.tail)

    def _as_bv(self, value) -> Bv:
        if isinstance(value, Bv):
            return value
        if isinstance(value, int):
            return self.from_int(value)
        raise SymexecError(f"cannot treat {value!r} as a bit-vector")

    def _ite_value(self, cond: int, a, b) -> Bv:
        a, b = self._as_bv(a), self._as_bv(b)
        t = self.t
        width = max(len(a.bits), len(b.bits))
        return Bv(
            [t.ite(cond, a.bit(i), b.bit(i)) for i in range(width)],
            t.ite(cond, a.tail, b.tail),
        )

    def _equal(self, a, b) -> int:
        a, b = self._as_bv(a), self._as_bv(b)
        width = max(len(a.bits), len(b.bits))
        return equal(self.t, [a.tail] + [a.bit(i) for i in range(width)],
                     [b.tail] + [b.bit(i) for i in range(width)])

    # ------------------------------------------------------------------
    # calling convention
    # ------------------------------------------------------------------
    def call(self, name: str, args: Sequence[object],
             hooks: Optional[Dict[int, object]] = None) -> None:
        """Run function ``name`` with positional ``args`` (lists are
        shared, so slot mutations are visible to the caller).

        ``hooks`` maps a parameter *position* to an observer
        ``fn(index, value) -> value`` invoked on every top-level (i.e.
        not branch-guarded) subscript store into that parameter; the
        store writes whatever the hook returns.  The equivalence checker
        uses this to compare each slot the moment it is produced and
        substitute the reference literals (cut-point merging).  Hooks do
        not propagate into nested calls.
        """
        fn = self.functions.get(name)
        if fn is None:
            raise SymexecError(f"no function {name!r} in source")
        params = [arg.arg for arg in fn.args.args]
        if len(params) != len(args):
            raise SymexecError(
                f"{name} expects {len(params)} args, got {len(args)}"
            )
        env = _Env(dict(zip(params, args)))
        prev = self._hooks
        self._hooks = (
            {params[pos]: fn_ for pos, fn_ in hooks.items()}
            if hooks else {}
        )
        try:
            self._exec_body(fn.body, env)
        finally:
            self._hooks = prev

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _exec_body(self, body: Sequence[ast.stmt], env: _Env) -> None:
        for stmt in body:
            self._exec_stmt(stmt, env)

    def _exec_stmt(self, stmt: ast.stmt, env: _Env) -> None:
        if isinstance(stmt, ast.Assign):
            if len(stmt.targets) != 1:
                raise SymexecError("multi-target assignment in source")
            value = self._eval(stmt.value, env)
            self._store(stmt.targets[0], value, env)
            return
        if isinstance(stmt, ast.AugAssign):
            if not isinstance(stmt.op, ast.BitOr):
                raise SymexecError(
                    f"unsupported augassign {type(stmt.op).__name__}"
                )
            current = self._load(stmt.target, env)
            value = self._binop_or(current, self._eval(stmt.value, env))
            self._store(stmt.target, value, env)
            return
        if isinstance(stmt, ast.If):
            self._exec_if(stmt, env)
            return
        if isinstance(stmt, ast.Expr):
            self._exec_call(stmt.value, env)
            return
        if isinstance(stmt, ast.Pass):
            return
        raise SymexecError(
            f"unsupported statement {type(stmt).__name__} in source"
        )

    def _exec_call(self, node: ast.expr, env: _Env) -> None:
        if not isinstance(node, ast.Call):
            raise SymexecError(
                f"unsupported expression statement {type(node).__name__}"
            )
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "append":       # fired.append(...): no lanes
                return                      # of interest for equivalence
            raise SymexecError(f"unsupported method call .{func.attr}")
        if isinstance(func, ast.Name):
            if func.id == "_conflict":      # bus-conflict raise: the
                return                      # miter ignores error lanes
            if func.id == "_force":         # stuck-at table: empty in
                return                      # the fault-free kernel
            callee = self.functions.get(func.id)
            if callee is not None:          # step functions call settle
                self.call(func.id, [self._eval(a, env) for a in node.args])
                return
        raise SymexecError(f"unsupported call {ast.dump(func)}")

    def _exec_if(self, stmt: ast.If, env: _Env) -> None:
        cond = self._truthy(self._eval(stmt.test, env))
        const = self.t.is_const(cond)
        if const is True:
            self._exec_body(stmt.body, env)
            return
        if const is False:
            self._exec_body(stmt.orelse, env)
            return
        env_t, env_f = env.fork(), env.fork()
        self._fork_depth += 1
        try:
            self._exec_body(stmt.body, env_t)
            self._exec_body(stmt.orelse, env_f)
        finally:
            self._fork_depth -= 1
        self._merge(cond, env, env_t, env_f)

    def _merge(self, cond: int, env: _Env, env_t: _Env, env_f: _Env):
        """Fold both branch stores back into ``env`` through ``ite``.

        A name defined in only one branch is kept as that branch's value:
        the generated code only reads such temporaries under the same
        guard that defined them, so the other path never observes it.
        """
        names = set(env_t.vars) | set(env_f.vars)
        for name in names:
            in_t, in_f = name in env_t.vars, name in env_f.vars
            if not (in_t and in_f):
                env.vars[name] = (env_t.vars if in_t else env_f.vars)[name]
                continue
            tv, fv = env_t.vars[name], env_f.vars[name]
            if tv is fv:
                env.vars[name] = tv
                continue
            if isinstance(tv, list):
                base = env.vars[name]
                for i, (a, b) in enumerate(zip(tv, fv)):
                    if a is b:
                        base[i] = a
                    elif a is None or b is None:
                        base[i] = a if b is None else b
                    else:
                        base[i] = self._ite_value(cond, a, b)
                env.vars[name] = base
                continue
            env.vars[name] = self._ite_value(cond, tv, fv)

    # ------------------------------------------------------------------
    # loads / stores
    # ------------------------------------------------------------------
    def _store(self, target: ast.expr, value, env: _Env) -> None:
        if isinstance(target, ast.Name):
            env.vars[target.id] = value
            return
        if isinstance(target, ast.Subscript):
            array, index = self._subscript(target, env)
            # branch-guarded stores skip the hook: the value only holds
            # under the branch condition, so an unconditional compare
            # would be wrong -- the caller's fallback sweep covers them
            if self._hooks and self._fork_depth == 0:
                hook = self._hooks.get(target.value.id)
                if hook is not None:
                    value = hook(index, value)
            array[index] = value
            return
        raise SymexecError(
            f"unsupported store target {type(target).__name__}"
        )

    def _load(self, node: ast.expr, env: _Env):
        if isinstance(node, ast.Name):
            if node.id in env.vars:
                return env.vars[node.id]
            if node.id in self.globals:
                return self.globals[node.id]
            raise SymexecError(f"unbound name {node.id!r}")
        if isinstance(node, ast.Subscript):
            array, index = self._subscript(node, env)
            value = array[index]
            if value is None:
                raise SymexecError(f"read of unwritten slot {index}")
            return value
        raise SymexecError(f"unsupported load {type(node).__name__}")

    def _subscript(self, node: ast.Subscript, env: _Env):
        if not isinstance(node.value, ast.Name):
            raise SymexecError("subscript base must be a name")
        array = env.vars.get(node.value.id)
        if not isinstance(array, list):
            raise SymexecError(f"{node.value.id!r} is not an array")
        index = node.slice
        if not (isinstance(index, ast.Constant)
                and isinstance(index.value, int)):
            raise SymexecError("subscript index must be a literal int")
        return array, index.value

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def _eval(self, node: ast.expr, env: _Env):
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int):
                return self.from_int(node.value)
            raise SymexecError(f"unsupported constant {node.value!r}")
        if isinstance(node, (ast.Name, ast.Subscript)):
            return self._load(node, env)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node, env)
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.Invert):
                bv = self._as_bv(self._eval(node.operand, env))
                return Bv([-b for b in bv.bits], -bv.tail)
            raise SymexecError(
                f"unsupported unary op {type(node.op).__name__}"
            )
        if isinstance(node, ast.BoolOp):
            lits = [self._truthy(self._eval(v, env)) for v in node.values]
            t = self.t
            fold = t.or_all if isinstance(node.op, ast.Or) else t.and_all
            return Bv([fold(lits)], t.FALSE)
        if isinstance(node, ast.Compare):
            return self._eval_compare(node, env)
        if isinstance(node, ast.IfExp):
            cond = self._truthy(self._eval(node.test, env))
            const = self.t.is_const(cond)
            if const is not None:
                return self._eval(node.body if const else node.orelse, env)
            return self._ite_value(
                cond, self._eval(node.body, env),
                self._eval(node.orelse, env),
            )
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "bit_count":
                return _PopCount(
                    self._as_bv(self._eval(func.value, env))
                )
            raise SymexecError(f"unsupported call expression")
        raise SymexecError(
            f"unsupported expression {type(node).__name__} in source"
        )

    def _eval_compare(self, node: ast.Compare, env: _Env) -> Bv:
        if len(node.ops) != 1:
            raise SymexecError("chained comparison in source")
        a = self._eval(node.left, env)
        b = self._eval(node.comparators[0], env)
        eq = self._equal(a, b)
        if isinstance(node.ops[0], ast.Eq):
            return Bv([eq], self.t.FALSE)
        if isinstance(node.ops[0], ast.NotEq):
            return Bv([-eq], self.t.FALSE)
        raise SymexecError(
            f"unsupported comparison {type(node.ops[0]).__name__}"
        )

    def _eval_binop(self, node: ast.BinOp, env: _Env):
        a = self._eval(node.left, env)
        b = self._eval(node.right, env)
        op = node.op
        if isinstance(op, ast.BitAnd):
            # the only consumer of bit_count() is the parity idiom
            # ``(x).bit_count() & 1`` of the compiled xor-reduce
            if isinstance(a, _PopCount):
                if not (isinstance(b, Bv) or b == 1):
                    raise SymexecError("bit_count used outside & 1")
                mask = self._as_bv(b)
                if len(mask.bits) != 1 or mask.bits[0] != self.t.TRUE:
                    raise SymexecError("bit_count used outside & 1")
                return Bv([parity(self.t, a.value.bits)], self.t.FALSE)
            return self._elementwise(a, b, self.t.and_)
        if isinstance(op, ast.BitOr):
            return self._binop_or(a, b)
        if isinstance(op, ast.BitXor):
            return self._elementwise(a, b, self.t.xor)
        if isinstance(op, ast.Add):
            return self._add(a, b)
        if isinstance(op, ast.RShift):
            shift = self._const_shift(b)
            bv = self._as_bv(a)
            return Bv(bv.bits[shift:], bv.tail)
        if isinstance(op, ast.LShift):
            shift = self._const_shift(b)
            bv = self._as_bv(a)
            return Bv([self.t.FALSE] * shift + bv.bits, bv.tail)
        raise SymexecError(f"unsupported binop {type(op).__name__}")

    def _binop_or(self, a, b) -> Bv:
        return self._elementwise(a, b, self.t.or_)

    def _elementwise(self, a, b, gate) -> Bv:
        a, b = self._as_bv(a), self._as_bv(b)
        width = max(len(a.bits), len(b.bits))
        return Bv(
            [gate(a.bit(i), b.bit(i)) for i in range(width)],
            gate(a.tail, b.tail),
        )

    def _add(self, a, b) -> Bv:
        a, b = self._as_bv(a), self._as_bv(b)
        t = self.t
        if a.tail != t.FALSE or b.tail != t.FALSE:
            # the emitters mask ``~`` before arithmetic, so a live tail
            # here means the source is not the codegen we understand
            raise SymexecError("addition on a value with a live tail")
        # one bit wider than the wider operand: the top bit is the carry
        width = max(len(a.bits), len(b.bits)) + 1
        return Bv(add(t, [a.bit(i) for i in range(width)],
                      [b.bit(i) for i in range(width)]), t.FALSE)

    def _const_shift(self, value) -> int:
        bv = self._as_bv(value)
        shift = 0
        for i, lit in enumerate(bv.bits):
            const = self.t.is_const(lit)
            if const is None or bv.tail != self.t.FALSE:
                raise SymexecError("shift amount is not a constant")
            if const:
                shift |= 1 << i
        return shift
