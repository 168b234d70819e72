"""PSL property diagnostics: vacuity and tautology.

Vacuity is decided with the BDD engine: an implication guard whose BDD
is the ``FALSE`` terminal can never activate its consequent, and a
suffix-implication antecedent whose NFA reaches no accepting state over
satisfiable guards can never obligate anything.  Guards are lowered by
:func:`encode_bool`, which the SAT deciders of
:mod:`repro.lint.sat_rules` share with a Tseitin builder.  Tautology is
decided on the determinised checker automaton: if
:meth:`~repro.psl.automata.CheckerAutomaton.reachable` does not contain
the ``FAIL`` state, the property cannot fail on any trace, so "proving"
it exercises nothing.

Rule ids
--------
``psl-vacuity``   antecedent/guard unsatisfiable: consequent never checked
``psl-tautology`` checker automaton cannot reach FAIL on any trace
"""

from __future__ import annotations

from functools import cache

from ..bdd import BddManager
from ..psl.ast import (
    Abort,
    Always,
    And,
    Atom,
    BoolExpr,
    ConstB,
    Iff,
    Implies,
    NextP,
    Never,
    Not,
    Or,
    PropAnd,
    PropImplication,
    Property,
    PslError,
    SuffixImpl,
    Sere,
)
from ..psl.automata import CheckerAutomaton, compiled_checker
from ..psl.sere import compile_sere
from .diagnostics import ERROR
from .manager import LintContext, Pass

__all__ = [
    "encode_bool",
    "satisfiable",
    "sere_can_match",
    "PslVacuityPass",
    "PslTautologyPass",
]


def encode_bool(g, expr: BoolExpr, atom) -> int:
    """Lower a boolean-layer expression through the gate builder ``g``
    (a :class:`~repro.bdd.BddManager` or a :class:`~repro.sat.cnf.Tseitin`,
    see :mod:`repro.rtl.bitblast`); ``atom(name)`` returns one atom's
    bit."""
    if isinstance(expr, Atom):
        return atom(expr.name)
    if isinstance(expr, ConstB):
        return g.TRUE if expr.value else g.FALSE
    if isinstance(expr, Not):
        return g.not_(encode_bool(g, expr.a, atom))
    if isinstance(expr, (And, Or, Implies, Iff)):
        a = encode_bool(g, expr.a, atom)
        b = encode_bool(g, expr.b, atom)
        if isinstance(expr, And):
            return g.and_(a, b)
        if isinstance(expr, Or):
            return g.or_(a, b)
        if isinstance(expr, Implies):
            return g.or_(g.not_(a), b)
        return g.xnor(a, b)
    raise PslError(f"cannot encode {expr!r}")


def satisfiable(expr: BoolExpr) -> bool:
    """True when some valuation of the atoms makes ``expr`` true."""
    mgr = BddManager()
    # each atom becomes a BDD variable on first use
    return encode_bool(mgr, expr, cache(mgr.add_var)) != mgr.FALSE


def sere_can_match(sere: Sere, decider=satisfiable) -> bool:
    """True when the SERE's language is non-empty: it matches the empty
    word, or an accepting NFA state is reachable over satisfiable guards.
    ``decider`` pluggably decides guard satisfiability (BDD by default,
    SAT in the semantic pipeline)."""
    nfa = compile_sere(sere)
    if nfa.accepts_empty:
        return True
    live = {
        (src, dst)
        for src, guard, dst in nfa.transitions
        if decider(guard)
    }
    reached = set(nfa.initial)
    frontier = list(reached)
    while frontier:
        src = frontier.pop()
        for edge_src, dst in live:
            if edge_src == src and dst not in reached:
                reached.add(dst)
                frontier.append(dst)
    return bool(reached & nfa.accepting)


class PslVacuityPass(Pass):
    """Unsatisfiable guards and unmatchable antecedents.

    The boolean deciders are overridable hooks: this base class decides
    with the BDD engine; :class:`repro.lint.sat_rules.SatPslVacuityPass`
    re-decides with the CDCL solver and certifies every "unsatisfiable"
    verdict with a checked UNSAT proof.
    """

    name = "psl-vacuity"

    _satisfiable = staticmethod(satisfiable)
    _sere_can_match = staticmethod(sere_can_match)

    def run(self, ctx: LintContext) -> None:
        for prop_name, prop in ctx.properties:
            self._walk(ctx, prop_name, prop)

    def _walk(self, ctx: LintContext, prop_name: str, prop: Property) -> None:
        if isinstance(prop, (Always, NextP)):
            self._walk(ctx, prop_name, prop.p)
        elif isinstance(prop, Abort):
            self._walk(ctx, prop_name, prop.p)
        elif isinstance(prop, PropAnd):
            for part in prop.parts:
                self._walk(ctx, prop_name, part)
        elif isinstance(prop, PropImplication):
            if not self._satisfiable(prop.guard):
                ctx.emit(
                    "psl-vacuity", ERROR, prop_name,
                    f"implication guard {prop.guard!r} is unsatisfiable; "
                    "the consequent is never checked (vacuous pass)",
                    fix_hint="fix the guard or delete the property",
                )
            self._walk(ctx, prop_name, prop.p)
        elif isinstance(prop, SuffixImpl):
            if not self._sere_can_match(prop.sere):
                ctx.emit(
                    "psl-vacuity", ERROR, prop_name,
                    f"suffix-implication antecedent {prop.sere!r} can "
                    "never match; the consequent is never obligated "
                    "(vacuous pass)",
                    fix_hint="fix the antecedent SERE or delete the "
                             "property",
                )
            self._walk(ctx, prop_name, prop.p)
        elif isinstance(prop, Never):
            if not self._sere_can_match(prop.sere):
                ctx.emit(
                    "psl-vacuity", ERROR, prop_name,
                    f"never-SERE {prop.sere!r} can never match; the "
                    "property forbids nothing",
                    fix_hint="fix the SERE or delete the property",
                )
        # leaf properties (PropBool, Until, Before, WithinBang, ...) have
        # no sub-antecedents to inspect


class PslTautologyPass(Pass):
    """Safety properties whose checker automaton cannot fail."""

    name = "psl-tautology"

    def run(self, ctx: LintContext) -> dict:
        checked = 0
        for prop_name, prop in ctx.properties:
            if not prop.is_safety():
                continue  # liveness has no finite refutation to look for
            try:
                checker = compiled_checker(prop)
            except PslError:
                continue  # too many atoms/states for determinisation
            checked += 1
            if not self._can_fail(checker):
                ctx.emit(
                    "psl-tautology", ERROR, prop_name,
                    "property cannot fail on any trace (checker automaton "
                    "never reaches FAIL); it constrains nothing",
                    fix_hint="the property is trivially true; strengthen "
                             "or delete it",
                )
        return {"checked": checked}

    @staticmethod
    def _can_fail(checker: CheckerAutomaton) -> bool:
        return CheckerAutomaton.FAIL_STATE in checker.reachable()
