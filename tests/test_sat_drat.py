"""The RUP proof checker (``repro.sat.drat``) against brute force.

On seeded random CNFs small enough to enumerate (at most 12
variables), every proof the CDCL solver logs must be accepted, and every
lemma the formula does not imply must be rejected -- whatever the
solver did, and wherever the lemma sits in the log.
"""

import itertools
import random

import pytest

from repro.sat.drat import DratError, check_proof, check_unsat
from repro.sat.solver import Solver

SEEDS = range(60)


def _random_cnf(rng):
    num_vars = rng.randint(3, 12)
    clauses = []
    for __ in range(rng.randint(2 * num_vars, 6 * num_vars)):
        chosen = rng.sample(range(1, num_vars + 1),
                            min(num_vars, rng.choice((1, 2, 3, 3, 3))))
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    return num_vars, clauses


def _models(num_vars, clauses):
    """Every satisfying assignment, as a set of literals."""
    out = []
    for bits in itertools.product((False, True), repeat=num_vars):
        model = {v if bits[v - 1] else -v for v in range(1, num_vars + 1)}
        if all(any(lit in model for lit in clause) for clause in clauses):
            out.append(model)
    return out


def _implied(models, lemma):
    return all(any(lit in model for lit in lemma) for model in models)


def _solver(clauses):
    solver = Solver(proof_log=True)
    for __ in range(max(abs(lit) for c in clauses for lit in c)):
        solver.new_var()
    for clause in clauses:
        solver.add_clause(clause)
    return solver


def _random_lemma(rng, num_vars):
    chosen = rng.sample(range(1, num_vars + 1), rng.randint(1, 3))
    return tuple(v if rng.random() < 0.5 else -v for v in chosen)


def test_every_solver_proof_is_accepted():
    refuted = assumption_failures = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        num_vars, clauses = _random_cnf(rng)
        solver = _solver(clauses)
        models = _models(num_vars, clauses)
        assert solver.solve() is bool(models), seed
        if not models:
            refuted += 1
            assert check_unsat(solver) == len(solver.proof)
            continue
        if solver.proof:
            assert check_proof(solver.clauses, solver.proof) == len(
                solver.proof)
        for __ in range(4):
            assumptions = list(_random_lemma(rng, num_vars))
            answer = solver.solve(assumptions)
            assert answer is any(
                all(a in model for a in assumptions) for model in models)
            if not answer:
                assumption_failures += 1
                assert check_unsat(solver, assumptions) == len(solver.proof)
    assert refuted >= 10 and assumption_failures >= 10, (
        refuted, assumption_failures)


def test_every_lemma_the_formula_does_not_imply_is_rejected():
    rejected = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        num_vars, clauses = _random_cnf(rng)
        models = _models(num_vars, clauses)
        if not models:
            continue                   # an UNSAT formula implies anything
        solver = _solver(clauses)
        solver.solve()
        for __ in range(12):
            lemma = _random_lemma(rng, num_vars)
            if _implied(models, lemma):
                continue
            rejected += 1
            with pytest.raises(DratError, match="is not RUP"):
                check_proof(clauses, [lemma])
            # the same lemma spliced anywhere into a genuine proof
            proof = list(solver.proof)
            index = rng.randint(0, len(proof))
            proof.insert(index, lemma)
            with pytest.raises(DratError, match=rf"^lemma {index} "):
                check_proof(solver.clauses, proof)
    assert rejected >= 50, rejected


class TestEdgeCases:
    def test_variable_only_in_lemmas(self):
        clauses = [(1, 2), (1, -2)]
        # var 9 never appears in the formula: the arrays must cover it
        assert check_proof(clauses, [(1, 9)]) == 1
        with pytest.raises(DratError, match="is not RUP"):
            check_proof(clauses, [(9,)])

    def test_tautological_input_clause(self):
        # the solver logs a tautology as given, repeated literals and all
        solver = Solver(proof_log=True)
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, -a, b, a])
        assert solver.clauses == [(a, -a, b, a)]
        for clause in ([a, b], [-a, b], [a, -b], [-a, -b]):
            solver.add_clause(clause)
        assert solver.solve() is False
        assert check_unsat(solver) == len(solver.proof)
        # and it forces nothing: (1 | -1 | 2) with -2 proves no unit
        with pytest.raises(DratError, match="is not RUP"):
            check_proof([(1, -1, 2), (-2,)], [(1,)])

    def test_empty_proof(self):
        with pytest.raises(DratError, match="empty proof log"):
            check_proof([(1, 2)], [])

    def test_duplicate_literals_in_a_lemma(self):
        clauses = [(1, 2), (-1, 2), (1, -2), (-1, -2)]
        for lemma in [(2, 2), (2, -2)]:
            with pytest.raises(DratError, match="duplicate/conflicting"):
                check_proof(clauses, [lemma])

    def test_duplicate_literals_in_an_input_clause(self):
        # (1 | 2 | 2) with -1 forces 2 exactly like (1 | 2): the repeated
        # literal must not hide the unit from the false-literal counter
        clauses = [(1, 2, 2), (-1,), (-2, 3), (-2, -3)]
        assert check_proof(clauses, [()], require_empty=True) == 1
