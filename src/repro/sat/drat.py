"""RUP proof checker for the CDCL solver's clause log.

A :class:`repro.sat.solver.Solver` run that answers UNSAT leaves behind
``solver.clauses`` (the formula as added) and ``solver.proof`` (every
learned clause in derivation order, ending in the final clause: the
empty clause for plain UNSAT, or the negated responsible assumptions for
an assumption failure).  :func:`check_proof` replays that log and
verifies each lemma follows from the accumulated clause database by
reverse unit propagation (RUP) -- assert the lemma's negation, propagate
to fixpoint, demand a conflict.  This is the DRAT forward check without
deletions (the solver never deletes), restricted to the RUP fragment
(CDCL learns only RUP clauses).

The checker shares no machinery with the solver: propagation here is
counter-based over an occurrence index (no watched literals), so a bug
in the solver's two-watched scheme cannot hide inside its own
certificate.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

__all__ = ["DratError", "check_proof", "check_unsat"]


class DratError(Exception):
    """A proof lemma that does not follow by reverse unit propagation."""


class _Propagator:
    """Counter-based unit propagation over flat, var-indexed arrays.

    ``value[v]`` is 1 (true), -1 (false) or 0 (unassigned), and
    ``occ[lit + n]`` lists the clauses that contain ``lit`` (``n`` is
    the largest variable).  ``n_false`` counts, per clause, how many of
    its literals are currently false; a clause whose count reaches
    ``len - 1`` is scanned for a unit or a conflict.  Assignments append
    to a trail (and their counter increments to a parallel one) so a
    failed RUP probe unwinds exactly.
    """

    def __init__(self, num_vars: int):
        self.n = num_vars
        self.clauses: list = []
        self.limit: list = []          # len - 1, per clause
        self.n_false: list = []
        self.occ: list = [[] for __ in range(2 * num_vars + 1)]
        self.value: list = [0] * (num_vars + 1)
        self.trail: list = []          # assigned literals, in order
        self.inc_trail: list = []      # clause indices incremented
        self.contradiction = False     # db propagates to conflict on its own

    def add_clause(self, clause: Sequence[int]) -> None:
        """Add a clause and persistently propagate it if it forces
        anything under the current persistent assignment."""
        index = len(self.clauses)
        occ = self.occ
        n = self.n
        value = self.value
        count = 0
        size = 0
        for lit in clause:
            hits = occ[lit + n]
            if hits and hits[-1] == index:
                continue               # a repeated literal counts once
            hits.append(index)
            size += 1
            if (value[lit] if lit > 0 else -value[-lit]) < 0:
                count += 1
        if size != len(clause):
            clause = tuple(dict.fromkeys(clause))
        self.clauses.append(clause)
        self.limit.append(size - 1)
        self.n_false.append(count)
        if self.contradiction or count < size - 1:
            return
        unit = 0
        for lit in clause:
            v = value[lit] if lit > 0 else -value[-lit]
            if v > 0:
                return
            if v == 0:
                unit = lit
        if not unit or self.propagate((unit,)):
            self.contradiction = True

    def propagate(self, lits: Sequence[int]) -> bool:
        """Assert ``lits`` and propagate to fixpoint.

        Returns True when a conflict is reached.  Call :meth:`mark` /
        :meth:`undo` around it to scope the assignments.
        """
        value = self.value
        occ = self.occ
        n = self.n
        clauses = self.clauses
        limit = self.limit
        n_false = self.n_false
        trail = self.trail
        inc = self.inc_trail
        queue = list(lits)
        while queue:
            lit = queue.pop()
            if lit > 0:
                var, sign = lit, 1
            else:
                var, sign = -lit, -1
            current = value[var]
            if current:
                if current != sign:
                    return True
                continue
            value[var] = sign
            trail.append(lit)
            hits = occ[n - lit]
            inc.extend(hits)
            for ci in hits:
                n_false[ci] += 1
            for ci in hits:
                if n_false[ci] < limit[ci]:
                    continue
                unit = 0
                for other in clauses[ci]:
                    v = value[other] if other > 0 else -value[-other]
                    if v > 0 or (v == 0 and unit):
                        break          # satisfied, or two free literals
                    if v == 0:
                        unit = other
                else:
                    if not unit:
                        return True
                    queue.append(unit)
        return False

    def mark(self) -> tuple:
        return len(self.trail), len(self.inc_trail)

    def undo(self, mark: tuple) -> None:
        trail_mark, inc_mark = mark
        n_false = self.n_false
        inc = self.inc_trail
        for ci in inc[inc_mark:]:
            n_false[ci] -= 1
        del inc[inc_mark:]
        value = self.value
        trail = self.trail
        for lit in trail[trail_mark:]:
            value[lit if lit > 0 else -lit] = 0
        del trail[trail_mark:]


def check_proof(
    clauses: Iterable[Sequence[int]],
    proof: Iterable[Sequence[int]],
    require_empty: bool = False,
) -> int:
    """Validate each proof lemma by RUP against formula + prior lemmas.

    Returns the number of lemmas checked.  Raises :class:`DratError` on
    the first lemma that is not RUP, on an empty proof, or -- when
    ``require_empty`` -- if the final lemma is not the empty clause.
    """
    clauses = [tuple(clause) for clause in clauses]
    lemmas = [tuple(lemma) for lemma in proof]
    if not lemmas:
        raise DratError("empty proof log: nothing to certify")
    prop = _Propagator(max(
        map(abs, chain.from_iterable(chain(clauses, lemmas))), default=0,
    ))
    for clause in clauses:
        prop.add_clause(clause)
    for index, lemma in enumerate(lemmas):
        if len(set(abs(lit) for lit in lemma)) != len(lemma):
            raise DratError(
                f"lemma {index} {lemma!r} has duplicate/conflicting literals"
            )
        if not prop.contradiction:
            mark = prop.mark()
            conflict = prop.propagate([-lit for lit in lemma])
            prop.undo(mark)
            if not conflict:
                raise DratError(
                    f"lemma {index} {lemma!r} is not RUP "
                    f"(negation propagates without conflict)"
                )
        prop.add_clause(lemma)
    if require_empty and lemmas[-1] != ():
        raise DratError(
            f"final lemma {lemmas[-1]!r} is not the empty clause"
        )
    return len(lemmas)


def check_unsat(solver, assumptions: Sequence[int] = ()) -> int:
    """Certify the UNSAT answer a solver just produced.

    For a plain UNSAT run the proof must end in the empty clause.  For
    an assumption failure the final lemma is ``solver.final_conflict``
    (negated responsible assumptions); the checker additionally verifies
    that this clause blocks the given assumptions -- i.e. every literal
    in it is the negation of an assumption.
    """
    if solver.proof is None:
        raise DratError("solver was built with proof_log=False")
    checked = check_proof(solver.clauses, solver.proof)
    final = tuple(solver.proof[-1])
    if not assumptions:
        if final != ():
            raise DratError(
                f"plain UNSAT must end in the empty clause, got {final!r}"
            )
        return checked
    if final == ():
        return checked                 # formula itself UNSAT: stronger
    assumed = set(assumptions)
    for lit in final:
        if -lit not in assumed:
            raise DratError(
                f"final clause literal {lit} does not negate an assumption"
            )
    return checked
