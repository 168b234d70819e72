"""Unit tests for the CDCL solver, the Tseitin builder and the
RUP/DRAT-style proof checker."""

import itertools
import random

import pytest

from repro.rtl.bitblast import add
from repro.sat.cnf import Tseitin
from repro.sat.drat import DratError, check_proof, check_unsat
from repro.sat.solver import Solver, luby


def _pigeonhole(solver, pigeons, holes):
    """CNF of 'every pigeon in a hole, no hole shared' (UNSAT when
    pigeons > holes); the classic resolution-hard family."""
    var = {}
    for p in range(pigeons):
        for h in range(holes):
            var[p, h] = solver.new_var()
    for p in range(pigeons):
        solver.add_clause([var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                solver.add_clause([-var[p1, h], -var[p2, h]])


class TestSolverBasics:
    def test_trivial_sat(self):
        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        s.add_clause([-a])
        assert s.solve()
        assert not s.model_value(a)
        assert s.model_value(b)

    def test_trivial_unsat(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([a])
        s.add_clause([-a])
        assert not s.solve()

    def test_pigeonhole_unsat(self):
        s = Solver(proof_log=True)
        _pigeonhole(s, 5, 4)
        assert not s.solve()
        # every learned clause (plus the final one) must be RUP-derivable
        assert check_proof(s.clauses, s.proof) > 0

    @pytest.mark.parametrize("make", [
        list, iter, lambda clause: (lit for lit in clause),
    ], ids=["list", "iterator", "generator"])
    def test_clause_log_keeps_the_given_tautology(self, make):
        # the log is what the proof checker certifies against: a
        # one-shot iterable must be logged whole, not as its tail
        s = Solver(proof_log=True)
        for __ in range(2):
            s.new_var()
        assert s.add_clause(make([1, -1, 2]))
        assert s.clauses == [(1, -1, 2)]

    def test_pigeonhole_sat_when_enough_holes(self):
        s = Solver()
        _pigeonhole(s, 4, 4)
        assert s.solve()

    def test_random_3sat_agrees_with_bruteforce(self):
        rng = random.Random(2004)
        for round_ in range(30):
            n = rng.randint(3, 8)
            clauses = []
            for __ in range(rng.randint(2, 24)):
                lits = rng.sample(range(1, n + 1), k=min(3, n))
                clauses.append([v if rng.random() < 0.5 else -v
                                for v in lits])
            expected = any(
                all(any((lit > 0) == bool(bits & (1 << (abs(lit) - 1)))
                        for lit in clause)
                    for clause in clauses)
                for bits in range(1 << n)
            )
            s = Solver(proof_log=True)
            for __ in range(n):
                s.new_var()
            for clause in clauses:
                s.add_clause(clause)
            got = s.solve()
            assert got == expected, f"round {round_}: {clauses}"
            if got:
                # the model must actually satisfy every clause
                for clause in clauses:
                    assert any(s.model_value(lit) for lit in clause)
            else:
                check_unsat(s)


class TestAssumptions:
    def test_incremental_assumptions(self):
        s = Solver()
        a, b, c = s.new_var(), s.new_var(), s.new_var()
        s.add_clause([-a, b])
        s.add_clause([-b, c])
        assert s.solve([a])
        assert s.model_value(c)
        assert s.solve([-c])
        assert not s.model_value(a)
        # same solver, contradictory assumption set
        assert not s.solve([a, -c])

    def test_final_conflict_names_responsible_assumptions(self):
        s = Solver()
        a, b, c = s.new_var(), s.new_var(), s.new_var()
        s.add_clause([-a, -b])
        assert not s.solve([a, b, c])
        responsible = {abs(lit) for lit in s.final_conflict}
        assert responsible <= {a, b}
        assert responsible  # non-empty

    def test_commit_final_conflict_locks_refutation(self):
        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([-a, -b])
        assert not s.solve([a, b])
        assert s.commit_final_conflict()
        # the negated-assumption clause now prunes the search space but
        # the formula stays equisatisfiable
        assert s.solve([a])
        assert not s.model_value(b)

    def test_commit_final_conflict_unit(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([-a])
        assert not s.solve([a])
        assert s.commit_final_conflict()
        assert s.solve([])


class TestLuby:
    def test_sequence_prefix(self):
        # the canonical Luby sequence (Luby, Sinclair, Zuckerman 1993)
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_terminates_off_boundary(self):
        # regression: indices not of the form 2^k - 1 used to loop
        # forever, hanging any solve that reached its first restart
        for i in range(1, 200):
            assert luby(i) >= 1

    def test_solve_survives_restarts(self):
        # a pigeonhole instance large enough to force conflicts well
        # past RESTART_UNIT, so the restart path actually executes
        s = Solver()
        _pigeonhole(s, 7, 6)
        assert not s.solve()
        assert s.stats["restarts"] >= 1


class TestProofChecker:
    def test_rejects_unsupported_lemma(self):
        clauses = [(1, 2), (-1, 2)]
        # (3,) does not follow by unit propagation from anything
        with pytest.raises(DratError):
            check_proof(clauses, [(3,)])

    def test_rejects_proof_without_empty_clause(self):
        clauses = [(1, 2), (-1, 2)]
        # (2,) is RUP but the run is not refuted without the empty clause
        with pytest.raises(DratError):
            check_proof(clauses, [(2,)], require_empty=True)

    def test_accepts_resolution_chain(self):
        clauses = [(1, 2), (-1, 2), (1, -2), (-1, -2)]
        assert check_proof(clauses, [(2,), ()]) == 2

    def test_check_unsat_requires_failed_solve(self):
        s = Solver(proof_log=True)
        a = s.new_var()
        s.add_clause([a])
        assert s.solve()
        with pytest.raises(DratError):
            check_unsat(s)


class TestFocus:
    def test_focus_is_a_hint_not_a_constraint(self):
        # focusing on an arbitrary subset must change neither verdict
        for focus_vars in ([], [1], [2, 3]):
            s = Solver()
            a, b, c = s.new_var(), s.new_var(), s.new_var()
            s.add_clause([a, b])
            s.add_clause([-b, c])
            s.focus(focus_vars)
            assert s.solve([-a])
            assert s.model_value(b) and s.model_value(c)
        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([-a, b])
        s.focus([a, b])
        assert not s.solve([a, -b])


class TestTseitin:
    def _check_gate(self, build, reference, arity):
        """Exhaustively compare a gate constructor against its truth
        table, for every constant/variable operand mix."""
        for values in itertools.product((False, True), repeat=arity):
            s = Solver()
            t = Tseitin(s)
            lits = [t.new_var() for __ in range(arity)]
            out = build(t, lits)
            assume = [lit if value else -lit
                      for lit, value in zip(lits, values)]
            assert s.solve(assume)
            assert s.model_value(out) == reference(*values)

    def test_and_or_xor_ite(self):
        self._check_gate(lambda t, v: t.and_(*v), lambda a, b: a and b, 2)
        self._check_gate(lambda t, v: t.or_(*v), lambda a, b: a or b, 2)
        self._check_gate(lambda t, v: t.xor(*v), lambda a, b: a != b, 2)
        self._check_gate(
            lambda t, v: t.ite(*v), lambda s, a, b: a if s else b, 3)

    def test_constant_folding_emits_no_gates(self):
        s = Solver()
        t = Tseitin(s)
        a = t.new_var()
        assert t.and_(a, t.TRUE) == a
        assert t.and_(a, t.FALSE) == t.FALSE
        assert t.xor(a, t.FALSE) == a
        assert t.xor(a, a) == t.FALSE
        assert t.ite(t.TRUE, a, t.FALSE) == a
        assert len(s.clauses) == 1  # only the TRUE pin

    def test_structural_hashing_shares_gates(self):
        s = Solver()
        t = Tseitin(s)
        a, b = t.new_var(), t.new_var()
        assert t.and_(a, b) == t.and_(b, a)
        assert t.xor(a, b) == t.xor(b, a)
        assert t.xor(-a, b) == -t.xor(a, b)

    def test_add_vec_matches_integer_addition(self):
        s = Solver()
        t = Tseitin(s)
        width = 4
        a = [t.new_var() for __ in range(width)]
        b = [t.new_var() for __ in range(width)]
        out = add(t, a, b)
        for x, y in [(3, 5), (9, 9), (15, 1), (0, 0)]:
            assume = [lit if (x >> i) & 1 else -lit
                      for i, lit in enumerate(a)]
            assume += [lit if (y >> i) & 1 else -lit
                       for i, lit in enumerate(b)]
            assert s.solve(assume)
            got = sum(s.model_value(lit) << i
                      for i, lit in enumerate(out))
            assert got == (x + y) % 16

    def test_support_walks_definition_cone(self):
        s = Solver()
        t = Tseitin(s)
        a, b, c = t.new_var(), t.new_var(), t.new_var()
        inner = t.and_(a, b)
        outer = t.xor(inner, c)
        cone = t.support(outer)
        assert {abs(a), abs(b), abs(c), abs(inner), abs(outer)} <= cone
        # an unrelated gate is not in the cone
        d = t.new_var()
        unrelated = t.and_(c, d)
        assert abs(unrelated) not in t.support(outer)
