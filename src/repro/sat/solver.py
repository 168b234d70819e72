"""A CDCL SAT solver in pure Python.

MiniSat-style architecture: two-watched-literal propagation, first-UIP
conflict analysis with recursive-free clause minimization, VSIDS
activities with phase saving, Luby-sequence restarts, and incremental
solving under assumptions (assumptions occupy the first decision levels
and are re-decided after restarts, so learned clauses stay valid across
``solve()`` calls).

Every learned clause -- and the final clause of each UNSAT answer (the
empty clause, or the negation of the responsible assumptions) -- is
appended to the proof log, which :func:`repro.sat.drat.check_proof`
validates by reverse unit propagation.  This is the self-checking
contract of the whole subsystem: no UNSAT verdict is trusted unchecked.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import Iterable, Optional, Sequence

__all__ = ["Solver", "luby"]


def luby(i: int) -> int:
    """The i-th term (1-based) of the Luby restart sequence."""
    k = 1
    while (1 << (k + 1)) - 1 <= i:
        k += 1
    while (1 << k) - 1 != i:
        i -= (1 << k) - 1
        k = 1
        while (1 << (k + 1)) - 1 <= i:
            k += 1
    return 1 << (k - 1)


class Solver:
    """CDCL solver; also a clause sink for :class:`repro.sat.cnf.Tseitin`.

    ``proof_log=True`` records every input and learned clause so
    :meth:`check_unsat_proof`-style validation can replay the run.
    """

    RESTART_UNIT = 128
    VAR_DECAY = 0.95

    def __init__(self, proof_log: bool = True):
        self.num_vars = 0
        # indexed by var (1-based); assign: 0 unknown / 1 true / -1 false
        self.assign = [0]
        self.level = [0]
        self.reason: list = [None]
        self.activity = [0.0]
        self.saved_phase = [False]
        self.trail: list = []
        self.trail_lim: list = []
        self.qhead = 0
        self.watches: dict = {}
        self.clauses: list = []        # original clauses, as added
        self.learned: list = []
        self.proof: Optional[list] = [] if proof_log else None
        self.ok = True                 # False once level-0 UNSAT
        self.model: list = []
        self.final_conflict: list = []
        self._var_inc = 1.0
        self._order: list = []         # lazy max-activity heap
        self._seen = [0]
        self.stats = {
            "conflicts": 0, "decisions": 0, "propagations": 0,
            "restarts": 0, "learned": 0, "minimized_lits": 0,
        }

    # ------------------------------------------------------------------
    # variables and clauses
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        self.num_vars += 1
        self.assign.append(0)
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.saved_phase.append(False)
        self._seen.append(0)
        v = self.num_vars
        self.watches[v] = []
        self.watches[-v] = []
        heappush(self._order, (0.0, v))
        return v

    def _value(self, lit: int) -> int:
        return self.assign[lit] if lit > 0 else -self.assign[-lit]

    def value(self, lit: int) -> Optional[bool]:
        """Current value of ``lit`` (``None`` when unassigned)."""
        v = self._value(lit)
        return None if v == 0 else v > 0

    def model_value(self, lit: int) -> bool:
        """Value of ``lit`` in the model of the last SAT answer."""
        v = self.model[lit] if lit > 0 else -self.model[-lit]
        return v > 0

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a problem clause; returns ``False`` on immediate level-0
        conflict (the solver is then permanently UNSAT)."""
        assert not self.trail_lim, "add_clause requires decision level 0"
        out: list = []
        seen = set()
        for lit in lits:
            if lit in seen:
                continue
            if -lit in seen:
                if self.proof is not None:
                    self.clauses.append(tuple(lits))
                return True            # tautology: x | ~x
            seen.add(lit)
            out.append(lit)
        if self.proof is not None:
            self.clauses.append(tuple(out))
        if not self.ok:
            return False
        # level-0 simplification: drop false lits, satisfied clauses
        live = [lit for lit in out if self._value(lit) >= 0]
        if any(self._value(lit) > 0 for lit in live):
            return True
        if not live:
            self.ok = False
            if self.proof is not None:
                self.proof.append(())
            return False
        if len(live) == 1:
            self._enqueue(live[0], None)
            conflict = self._propagate()
            if conflict is not None:
                self.ok = False
                if self.proof is not None:
                    self.proof.append(())
                return False
            return True
        self._attach(live)
        return True

    def _attach(self, clause: list) -> None:
        self.watches[clause[0]].append(clause)
        self.watches[clause[1]].append(clause)

    def commit_final_conflict(self) -> bool:
        """Persistently attach the negated-assumption clause of the last
        failed :meth:`solve`.

        The clause is already in the proof log (it was the run's final
        lemma), so certification is unchanged; attaching it lets later
        solves reuse the refutation.  The equivalence checker leans on
        this: once a cut point is proved equal across backends, the
        locked equality turns the next cone's miter into a short
        propagation instead of a fresh XOR-reconvergence proof.  Returns
        ``False`` when attaching exposes a level-0 contradiction.
        """
        assert not self.trail_lim, "commit requires decision level 0"
        clause = list(self.final_conflict)
        if not clause or not self.ok:
            return self.ok
        live = [lit for lit in clause if self._value(lit) >= 0]
        if any(self._value(lit) > 0 for lit in live):
            return True
        if not live:
            self.ok = False
            if self.proof is not None:
                self.proof.append(())
            return False
        if len(live) == 1:
            self._enqueue(live[0], None)
            if self._propagate() is not None:
                self.ok = False
                if self.proof is not None:
                    self.proof.append(())
                return False
            return True
        self.learned.append(live)
        self._attach(live)
        return True

    # ------------------------------------------------------------------
    # trail
    # ------------------------------------------------------------------
    def _enqueue(self, lit: int, reason) -> None:
        var = lit if lit > 0 else -lit
        self.assign[var] = 1 if lit > 0 else -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)

    def _cancel_until(self, target: int) -> None:
        if len(self.trail_lim) <= target:
            return
        bound = self.trail_lim[target]
        assign = self.assign
        saved = self.saved_phase
        reason = self.reason
        order = self._order
        activity = self.activity
        for i in range(len(self.trail) - 1, bound - 1, -1):
            lit = self.trail[i]
            var = lit if lit > 0 else -lit
            saved[var] = lit > 0
            assign[var] = 0
            reason[var] = None
            heappush(order, (-activity[var], var))
        del self.trail[bound:]
        del self.trail_lim[target:]
        self.qhead = len(self.trail)

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def _propagate(self):
        trail = self.trail
        watches = self.watches
        assign = self.assign
        props = 0
        conflict = None
        while self.qhead < len(trail):
            p = trail[self.qhead]
            self.qhead += 1
            props += 1
            neg = -p
            watchlist = watches[neg]
            if not watchlist:
                continue
            kept = []
            wi = 0
            n = len(watchlist)
            while wi < n:
                clause = watchlist[wi]
                wi += 1
                if clause[0] == neg:
                    clause[0], clause[1] = clause[1], neg
                first = clause[0]
                v = assign[first] if first > 0 else -assign[-first]
                if v > 0:
                    kept.append(clause)
                    continue
                found = False
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if (assign[lit] if lit > 0 else -assign[-lit]) >= 0:
                        clause[1], clause[k] = lit, neg
                        watches[lit].append(clause)
                        found = True
                        break
                if found:
                    continue
                kept.append(clause)
                if v < 0:
                    # conflict: keep the remaining watchers, bail out
                    kept.extend(watchlist[wi:])
                    conflict = clause
                    self.qhead = len(trail)
                    break
                self._enqueue(first, clause)
            watches[neg] = kept
            if conflict is not None:
                break
        self.stats["propagations"] += props
        return conflict

    # ------------------------------------------------------------------
    # VSIDS
    # ------------------------------------------------------------------
    def _bump(self, var: int) -> None:
        act = self.activity[var] + self._var_inc
        self.activity[var] = act
        if act > 1e100:
            inv = 1e-100
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= inv
            self._var_inc *= inv
        if self.assign[var] == 0:
            heappush(self._order, (-act, var))

    def _decay(self) -> None:
        self._var_inc /= self.VAR_DECAY

    def focus(self, variables) -> None:
        """Raise the activity of ``variables`` above every other
        variable so the next solve's decisions start inside the
        caller's cone of interest (a decision-ordering hint only --
        completeness and learned clauses are unaffected)."""
        activity = self.activity
        base = max(activity) + self._var_inc
        if base > 1e100:
            inv = 1e-100
            for v in range(1, self.num_vars + 1):
                activity[v] *= inv
            self._var_inc *= inv
            base = max(activity) + self._var_inc
        assign = self.assign
        order = self._order
        for var in variables:
            if 0 < var <= self.num_vars and activity[var] < base:
                activity[var] = base
                if assign[var] == 0:
                    heappush(order, (-base, var))

    def _pick_branch_var(self) -> int:
        order = self._order
        assign = self.assign
        activity = self.activity
        while order:
            negact, var = heappop(order)
            if assign[var] == 0 and -negact == activity[var]:
                return var
        for var in range(1, self.num_vars + 1):
            if assign[var] == 0:
                return var
        return 0

    # ------------------------------------------------------------------
    # conflict analysis
    # ------------------------------------------------------------------
    def _analyze(self, conflict) -> tuple:
        seen = self._seen
        learnt = [0]
        to_clear = []
        counter = 0
        p = 0
        index = len(self.trail) - 1
        current = len(self.trail_lim)
        clause = conflict
        while True:
            start = 1 if p else 0
            # skip position 0 once p occupies it (reason clauses keep
            # their implied literal first)
            for k in range(start, len(clause)):
                q = clause[k]
                var = q if q > 0 else -q
                if not seen[var] and self.level[var] > 0:
                    seen[var] = 1
                    to_clear.append(var)
                    self._bump(var)
                    if self.level[var] >= current:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                lit = self.trail[index]
                var = lit if lit > 0 else -lit
                if seen[var]:
                    break
                index -= 1
            p = self.trail[index]
            var = p if p > 0 else -p
            clause = self.reason[var]
            seen[var] = 0
            index -= 1
            counter -= 1
            if counter == 0:
                break
        learnt[0] = -p
        # clause minimization: a literal whose reason's antecedents are
        # all already in the clause is redundant
        if len(learnt) > 1:
            keep = [learnt[0]]
            for q in learnt[1:]:
                var = q if q > 0 else -q
                reason = self.reason[var]
                if reason is None:
                    keep.append(q)
                    continue
                redundant = True
                for r in reason:
                    rv = r if r > 0 else -r
                    if rv != var and not seen[rv] and self.level[rv] > 0:
                        redundant = False
                        break
                if redundant:
                    self.stats["minimized_lits"] += 1
                else:
                    keep.append(q)
            learnt = keep
        for var in to_clear:
            seen[var] = 0
        if len(learnt) == 1:
            return learnt, 0
        # backtrack to the second-highest decision level in the clause
        max_i = 1
        for i in range(2, len(learnt)):
            li = learnt[i]
            lm = learnt[max_i]
            if self.level[li if li > 0 else -li] > \
                    self.level[lm if lm > 0 else -lm]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        lit = learnt[1]
        return learnt, self.level[lit if lit > 0 else -lit]

    def _analyze_final(self, start_lits: Sequence[int]) -> list:
        """Which assumptions imply the conflict reached through
        ``start_lits``?  Returns their negations (a clause implied by
        the formula alone)."""
        seen = self._seen
        to_clear = []
        out: list = []
        for lit in start_lits:
            var = lit if lit > 0 else -lit
            if self.level[var] > 0 and not seen[var]:
                seen[var] = 1
                to_clear.append(var)
        for i in range(len(self.trail) - 1, -1, -1):
            lit = self.trail[i]
            var = lit if lit > 0 else -lit
            if not seen[var]:
                continue
            reason = self.reason[var]
            if reason is None:
                out.append(-lit)       # an assumption decision
            else:
                for q in reason:
                    qv = q if q > 0 else -q
                    if qv != var and self.level[qv] > 0 and not seen[qv]:
                        seen[qv] = 1
                        to_clear.append(qv)
        for var in to_clear:
            seen[var] = 0
        return out

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def solve(self, assumptions: Sequence[int] = (),
              deadline: Optional[float] = None) -> Optional[bool]:
        """Decide satisfiability under ``assumptions``.

        On True, :attr:`model` holds a full assignment; on False,
        :attr:`final_conflict` is the subset of assumptions (negated)
        responsible -- empty when the formula itself is UNSAT.
        ``deadline`` is an absolute :func:`time.perf_counter` instant,
        checked at each conflict: once it has passed, the solver
        backtracks to level 0 and returns None (undecided).  What it
        learned so far stays attached and in the proof log.
        """
        self.final_conflict = []
        if not self.ok:
            return False
        assumptions = list(assumptions)
        conflicts_here = 0
        restart_limit = luby(1) * self.RESTART_UNIT
        restart_index = 1
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats["conflicts"] += 1
                conflicts_here += 1
                if not self.trail_lim:
                    self.ok = False
                    if self.proof is not None:
                        self.proof.append(())
                    self.final_conflict = []
                    return False
                if deadline is not None and perf_counter() > deadline:
                    self._cancel_until(0)
                    return None
                learnt, bt_level = self._analyze(conflict)
                self._cancel_until(bt_level)
                if self.proof is not None:
                    self.proof.append(tuple(learnt))
                self.stats["learned"] += 1
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                    # a level-0 fact: re-propagated below; it survives
                    # restarts and future solve() calls
                    self.reason[abs(learnt[0])] = None
                else:
                    self.learned.append(learnt)
                    self._attach(learnt)
                    self._enqueue(learnt[0], learnt)
                self._decay()
                continue
            if conflicts_here >= restart_limit:
                conflicts_here = 0
                restart_index += 1
                restart_limit = luby(restart_index) * self.RESTART_UNIT
                self.stats["restarts"] += 1
                self._cancel_until(0)
                continue
            # assumption levels first, then free decisions
            depth = len(self.trail_lim)
            if depth < len(assumptions):
                lit = assumptions[depth]
                v = self._value(lit)
                if v > 0:
                    # already implied: open an empty level so later
                    # analysis still counts it as an assumption level
                    self.trail_lim.append(len(self.trail))
                    continue
                if v < 0:
                    var = lit if lit > 0 else -lit
                    reason = self.reason[var]
                    if reason is None and self.level[var] == 0:
                        clause = [-lit]
                    else:
                        clause = self._analyze_final([-lit])
                        if -lit not in clause:
                            clause.append(-lit)
                    self.final_conflict = clause
                    if self.proof is not None:
                        self.proof.append(tuple(clause))
                    self._cancel_until(0)
                    return False
                self.stats["decisions"] += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, None)
                continue
            var = self._pick_branch_var()
            if var == 0:
                self.model = list(self.assign)
                self._cancel_until(0)
                return True
            self.stats["decisions"] += 1
            lit = var if self.saved_phase[var] else -var
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, None)
