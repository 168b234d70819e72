"""Tseitin gate builder over a clause sink.

Literals are DIMACS-style non-zero ints: variable ``v`` appears as ``v``
(positive) or ``-v`` (negated).  Variable 1 is reserved as the constant
``TRUE`` (a unit clause pins it), so constants can flow through the gate
constructors as ordinary literals; the constructors fold constants and
hash structurally, so shared cones encode once and gates dominated by a
constant emit no clauses at all.  The gate methods are the ones
:class:`repro.bdd.BddManager` offers, so :mod:`repro.rtl.bitblast` and
``CheckerAutomaton.encode_step`` lower netlists and checker automata
through either builder.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable

__all__ = ["Tseitin"]


class Tseitin:
    """Boolean gate builder emitting Tseitin clauses into ``sink``.

    ``sink`` needs two methods: ``new_var() -> int`` and
    ``add_clause(lits)`` (a :class:`repro.sat.solver.Solver` qualifies,
    as does any plain CNF container).
    """

    def __init__(self, sink):
        self.sink = sink
        #: constant-true literal (variable pinned by a unit clause)
        self.TRUE = sink.new_var()
        self.FALSE = -self.TRUE
        sink.add_clause((self.TRUE,))
        self._cache: dict = {}
        # reverse map: gate output var -> its cache key (op, operands);
        # grown lazily from _cache by support(), which relies on dicts
        # preserving insertion order to scan only new entries
        self._defs: dict = {}
        self._defs_seen = 0

    # ------------------------------------------------------------------
    def new_var(self) -> int:
        return self.sink.new_var()

    def add_clause(self, lits: Iterable[int]) -> None:
        self.sink.add_clause(lits)

    def is_const(self, lit: int):
        """The boolean value of a constant literal, else ``None``."""
        if lit == self.TRUE:
            return True
        if lit == self.FALSE:
            return False
        return None

    def support(self, lit: int, limit: int = 50000) -> set:
        """Variables in the transitive gate cone defining ``lit``.

        Walks the structural-hash cache backwards from ``lit`` through
        AND/XOR/ITE definitions; free variables (no cached definition)
        terminate the walk.  Bounded by ``limit`` so callers can use the
        result as a decision-ordering hint without quadratic blowup.
        """
        cache = self._cache
        if len(cache) > self._defs_seen:
            defs = self._defs
            for key, out in islice(cache.items(), self._defs_seen, None):
                defs[out] = key
            self._defs_seen = len(cache)
        seen: set = set()
        stack = [abs(lit)]
        while stack and len(seen) < limit:
            var = stack.pop()
            if var in seen:
                continue
            seen.add(var)
            key = self._defs.get(var)
            if key is not None:
                for operand in key[1:]:
                    operand = abs(operand)
                    if operand not in seen:
                        stack.append(operand)
        return seen

    # ------------------------------------------------------------------
    # gates
    # ------------------------------------------------------------------
    def not_(self, a: int) -> int:
        return -a

    def and_(self, a: int, b: int) -> int:
        if a == self.FALSE or b == self.FALSE or a == -b:
            return self.FALSE
        if a == self.TRUE or a == b:
            return b
        if b == self.TRUE:
            return a
        key = ("and", a, b) if a < b else ("and", b, a)
        out = self._cache.get(key)
        if out is None:
            out = self.sink.new_var()
            self.sink.add_clause((-out, a))
            self.sink.add_clause((-out, b))
            self.sink.add_clause((out, -a, -b))
            self._cache[key] = out
        return out

    def or_(self, a: int, b: int) -> int:
        return -self.and_(-a, -b)

    def xor(self, a: int, b: int) -> int:
        if a == self.FALSE:
            return b
        if b == self.FALSE:
            return a
        if a == self.TRUE:
            return -b
        if b == self.TRUE:
            return -a
        if a == b:
            return self.FALSE
        if a == -b:
            return self.TRUE
        # canonicalise on positive-phase operands: x ^ y determines every
        # phase variant, so all four share one gate variable
        negate = False
        if a < 0:
            a, negate = -a, not negate
        if b < 0:
            b, negate = -b, not negate
        if a > b:
            a, b = b, a
        key = ("xor", a, b)
        out = self._cache.get(key)
        if out is None:
            out = self.sink.new_var()
            self.sink.add_clause((-out, a, b))
            self.sink.add_clause((-out, -a, -b))
            self.sink.add_clause((out, a, -b))
            self.sink.add_clause((out, -a, b))
            self._cache[key] = out
        return -out if negate else out

    def xnor(self, a: int, b: int) -> int:
        return -self.xor(a, b)

    def ite(self, s: int, t: int, f: int) -> int:
        """``t if s else f``."""
        if s == self.TRUE:
            return t
        if s == self.FALSE:
            return f
        if t == f:
            return t
        if t == self.TRUE:
            return self.or_(s, f)
        if t == self.FALSE:
            return self.and_(-s, f)
        if f == self.TRUE:
            return self.or_(-s, t)
        if f == self.FALSE:
            return self.and_(s, t)
        if t == -f:
            return self.xnor(s, t)
        key = ("ite", s, t, f)
        out = self._cache.get(key)
        if out is None:
            out = self.sink.new_var()
            self.sink.add_clause((-out, -s, t))
            self.sink.add_clause((-out, s, f))
            self.sink.add_clause((out, -s, -t))
            self.sink.add_clause((out, s, -f))
            self._cache[key] = out
        return out

    # ------------------------------------------------------------------
    # n-ary folds
    # ------------------------------------------------------------------
    def and_all(self, lits: Iterable[int]) -> int:
        out = self.TRUE
        for lit in lits:
            out = self.and_(out, lit)
            if out == self.FALSE:
                return out
        return out

    def or_all(self, lits: Iterable[int]) -> int:
        out = self.FALSE
        for lit in lits:
            out = self.or_(out, lit)
            if out == self.TRUE:
                return out
        return out
