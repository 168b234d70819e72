"""SAT-backed semantic lint passes.

The foundation passes of :mod:`repro.lint.analyses` are syntactic: they
fold constants, walk dataflow edges and compute cones.  The passes here
re-ask the interesting questions *semantically*, through the CDCL engine
of :mod:`repro.sat`, and certify every negative answer with a checked
UNSAT proof:

* :class:`SatConstNetPass` -- combinational nets provably constant over
  **every** state and input (catching reconvergent cancellation that
  value-propagation misses), plus tristate drivers whose enable is
  provably never asserted;
* :class:`SatPslVacuityPass` / :class:`SatPslTautologyPass` -- the PSL
  vacuity and tautology rules with the BDD deciders swapped for the
  solver (same rule ids, so reports keep their shape): guard
  satisfiability becomes a certified SAT query, FAIL-reachability
  becomes a bounded unrolling of the checker automaton to its diameter;
* :class:`AsmSatRequirePass` -- re-derives the dead-``require`` verdict
  of :class:`~repro.lint.asm_rules.AsmRulesPass` as an UNSAT certificate
  over the swept reachable states (the sweep's per-state enablement
  facts become unit clauses; a dead guard makes "some selected state
  enables the rule" refutable);
* :class:`CecPass` -- runs the combinational equivalence checker over
  the elaborated design and reports any codegen-backend divergence.

All of these are opt-in: ``default_rtl_passes(semantic=True)`` /
``lint_la1(semantic=True)`` / ``python -m repro.lint --semantic`` extend
the standard pipeline with them.
"""

from __future__ import annotations

from functools import cache
from typing import Optional

from ..psl.ast import BoolExpr
from ..psl.automata import CheckerAutomaton
from ..rtl.bitblast import lower_expr
from ..rtl.hdl import Const, Ref
from ..sat.cec import check_equivalence
from ..sat.cnf import Tseitin
from ..sat.drat import check_proof, check_unsat
from ..sat.encode import NetlistEncoder
from ..sat.solver import Solver
from .asm_rules import sweep_states
from .diagnostics import ERROR
from .manager import LintContext, Pass
from .psl_rules import (
    PslTautologyPass,
    PslVacuityPass,
    encode_bool,
    sere_can_match,
)

__all__ = [
    "sat_satisfiable",
    "SatConstNetPass",
    "SatPslVacuityPass",
    "SatPslTautologyPass",
    "AsmSatRequirePass",
    "CecPass",
]


# ----------------------------------------------------------------------
# PSL boolean layer -> CNF
# ----------------------------------------------------------------------
def sat_satisfiable(expr: BoolExpr) -> bool:
    """SAT-decided satisfiability of a boolean-layer expression; an
    UNSAT verdict is validated against the solver's own proof log."""
    solver = Solver()
    t = Tseitin(solver)
    # each atom becomes a solver variable on first use
    lit = encode_bool(t, expr, cache(lambda __: t.new_var()))
    if solver.solve([lit]):
        return True
    check_unsat(solver, (lit,))
    return False


# ----------------------------------------------------------------------
# RTL: semantically constant nets, dead tristate drivers
# ----------------------------------------------------------------------
class SatConstNetPass(Pass):
    """Nets constant for every state/input; never-enabled drivers.

    Encodes one settle frame of the flat design over fully free register
    and input literals, then asks the solver, bit by bit, whether any
    assignment can flip the net.  This subsumes the value-propagation
    rule (``const-comb``): reconvergent logic like ``x & ~x`` buried
    behind muxes folds for no single known value but is still UNSAT to
    flip.  Nets the ``constprop`` pass already proved constant are
    skipped, so every finding here is one the syntactic pass missed.

    Rule ids: ``sat-const-net``, ``sat-dead-driver``.
    """

    name = "sat-const"
    requires = ("constprop",)

    def __init__(self, check_proofs: bool = True):
        self.check_proofs = check_proofs

    def run(self, ctx: LintContext) -> Optional[dict]:
        if ctx.design is None:
            return None
        design = ctx.design
        known = ctx.result("constprop") or {}
        solver = Solver()
        t = Tseitin(solver)
        enc = NetlistEncoder(design, t)
        frame = enc.frame(
            enc.free_state(), enc.free_inputs(),
            0 if enc.multi_clock else None,
        )

        # Every SAT answer yields a full model; bits observed at both
        # values across accumulated models are disproved for free, so a
        # surviving candidate costs exactly one opposite-polarity solve.
        # monitor fire nets are *supposed* to be provably 0 on correct
        # hardware -- that is the assertion holding, not dead logic;
        # resolve through Ref aliases so the checker-internal net the
        # top-level fire alias points at is excluded too
        fire_paths = set()
        for monitor in design.monitors:
            flat = monitor.fire
            fire_paths.add(flat.path)
            while isinstance(flat.expr, Ref):
                flat = flat.scope[flat.expr.net]
                fire_paths.add(flat.path)
        nets = [
            flat for flat in design.comb_order
            if flat.path not in known
            and flat.path not in fire_paths
            and not isinstance(flat.expr, (Const, Ref))
        ]
        enables = []
        for flat in design.comb_order:
            for index, driver in enumerate(flat.tristate or ()):
                enables.append((flat, index, lower_expr(
                    t, driver.enable, flat.scope, frame.bits
                )[0]))
        watch = sorted({
            abs(lit)
            for flat in nets for lit in frame.bits[flat]
            if t.is_const(lit) is None
        } | {
            abs(lit) for __, __, lit in enables
            if t.is_const(lit) is None
        })
        seen: dict = {}         # var -> first observed value
        varies: set = set()     # vars observed at both values

        def absorb_model() -> None:
            for var in watch:
                if var in varies:
                    continue
                value = solver.model_value(var)
                if seen.setdefault(var, value) is not value:
                    varies.add(var)

        solves = 1
        if not solver.solve([]):
            return None         # free frame UNSAT: encoder bug upstream
        absorb_model()

        def proved_value(lit: int) -> Optional[int]:
            """0/1 when the literal is semantically constant."""
            nonlocal solves
            const = t.is_const(lit)
            if const is not None:
                return int(const)
            if abs(lit) in varies:
                return None
            candidate = seen[abs(lit)] is (lit > 0)
            solves += 1
            if solver.solve([-lit if candidate else lit]):
                absorb_model()
                return None
            return int(candidate)

        proved_const: dict = {}
        for flat in nets:
            bits = frame.bits[flat]
            value = 0
            structural = True
            for i, lit in enumerate(bits):
                if t.is_const(lit) is None:
                    structural = False
                bit = proved_value(lit)
                if bit is None:
                    value = None
                    break
                value |= bit << i
            if value is None or structural:
                # fully folded vectors are constprop/Tseitin territory;
                # only report what needed an actual proof
                continue
            proved_const[flat.path] = value
            ctx.emit(
                "sat-const-net", ERROR, flat.path,
                f"net is provably {value} for every state and input "
                "(SAT-certified dead logic)",
                fix_hint=f"replace the cone with the constant {value}",
            )

        dead_drivers: list = []
        for flat, index, enable in enables:
            if proved_value(enable) != 0:
                continue
            dead_drivers.append((flat.path, index))
            ctx.emit(
                "sat-dead-driver", ERROR, flat.path,
                f"tristate driver {index} is provably never enabled "
                "(its enable is unsatisfiable)",
                fix_hint="remove the driver or fix its enable",
            )

        proof_lemmas = None
        if self.check_proofs and solver.proof:
            proof_lemmas = check_proof(solver.clauses, solver.proof)
        return {
            "proved_const": proved_const,
            "dead_drivers": dead_drivers,
            "solves": solves,
            "proof_lemmas": proof_lemmas,
        }


# ----------------------------------------------------------------------
# PSL: solver-backed vacuity and tautology
# ----------------------------------------------------------------------
class SatPslVacuityPass(PslVacuityPass):
    """The vacuity rule with SAT deciders (same ``psl-vacuity`` id)."""

    _satisfiable = staticmethod(sat_satisfiable)

    @staticmethod
    def _sere_can_match(sere) -> bool:
        return sere_can_match(sere, decider=sat_satisfiable)


class SatPslTautologyPass(PslTautologyPass):
    """The tautology rule decided by bounded unrolling.

    Instead of trusting graph reachability over the determinised table,
    the checker automaton is unrolled symbolically (free atom literals
    per frame) to its diameter: ``num_states`` frames reach every
    reachable automaton state, so if no frame's fail condition is
    satisfiable the property can never fail on any trace.  The all-UNSAT
    verdict is validated against the proof log before "tautology" is
    reported.
    """

    @staticmethod
    def _can_fail(checker: CheckerAutomaton) -> bool:
        solver = Solver()
        t = Tseitin(solver)
        state = [t.FALSE] * checker.code_width  # code of initial state 0
        for __ in range(checker.num_states):
            atom_lits = [t.new_var() for __ in checker.atoms]
            fail, state = checker.encode_step(t, state, atom_lits)
            if fail == t.TRUE:
                return True
            if fail != t.FALSE and solver.solve([fail]):
                return True
        if solver.proof:
            check_proof(solver.clauses, solver.proof)
        return False


# ----------------------------------------------------------------------
# ASM: certified dead-require verdicts
# ----------------------------------------------------------------------
class AsmSatRequirePass(Pass):
    """UNSAT certificates for the sweep's dead-``require`` findings.

    For each rule the bounded sweep never saw enabled, the swept
    enablement facts become unit clauses (one selector-guarded variable
    per snapshot) and the solver is asked for a snapshot in which the
    rule fires.  UNSAT -- validated against the proof log -- certifies
    the heuristic verdict; a SAT answer means sweep and certificate
    disagree, which is reported as an error (it indicates a bug in one
    of the two engines, not in the model).
    """

    name = "asm-sat-require"
    requires = ("asm-rules",)

    def run(self, ctx: LintContext) -> Optional[dict]:
        machine = ctx.machine
        summary = ctx.results.get("asm-rules")
        if machine is None or summary is None:
            return None
        snapshots, capped = sweep_states(machine, ctx.config.asm_state_cap)
        enabled_names = set(summary["rules_enabled"])
        dead = [r.name for r in machine.rules
                if r.name not in enabled_names]
        if not dead:
            return {"certified": [], "states": len(snapshots),
                    "capped": capped, "proof_lemmas": 0}

        # rule -> set of snapshot indexes where it is enabled
        saved = machine.snapshot()
        table: dict = {name: set() for name in dead}
        for index, snapshot in enumerate(snapshots):
            machine.restore(snapshot)
            for action in machine.enabled_actions():
                hits = table.get(action.rule.name)
                if hits is not None:
                    hits.add(index)
        machine.restore(saved)

        solver = Solver()
        t = Tseitin(solver)
        count = len(snapshots)
        width = max(1, (count - 1).bit_length())
        certified: list = []
        lemmas = 0
        for name in dead:
            sel = [t.new_var() for __ in range(width)]
            for code in range(count, 1 << width):
                solver.add_clause([
                    -bit if (code >> i) & 1 else bit
                    for i, bit in enumerate(sel)
                ])
            terms = []
            for index in range(count):
                fact = t.new_var()      # "rule enabled in snapshot index"
                solver.add_clause(
                    (fact,) if index in table[name] else (-fact,)
                )
                sel_eq = t.and_all([
                    bit if (index >> i) & 1 else -bit
                    for i, bit in enumerate(sel)
                ])
                terms.append(t.and_(sel_eq, fact))
            fires = t.or_all(terms)
            if fires != t.FALSE and solver.solve([fires]):
                ctx.emit(
                    "asm-sat-require", ERROR,
                    f"{machine.name}.{name}",
                    "SAT certificate disagrees with the sweep: a swept "
                    "state enabling the rule exists after all",
                    fix_hint="report this; the sweep and the certificate "
                             "cannot both be right",
                )
                continue
            if fires != t.FALSE:
                lemmas = check_unsat(solver, (fires,))
            certified.append(name)
        return {
            "certified": certified,
            "states": len(snapshots),
            "capped": capped,
            "proof_lemmas": lemmas,
        }


# ----------------------------------------------------------------------
# RTL: codegen equivalence
# ----------------------------------------------------------------------
class CecPass(Pass):
    """Prove the compiled and bitpar codegens equal the netlist.

    Runs the full combinational equivalence check of
    :func:`repro.sat.cec.check_equivalence` inside the lint pipeline and
    turns any mismatch into a ``backend-mismatch`` error carrying the
    separating state/input assignment.
    """

    name = "rtl-cec"

    def __init__(self, check_proofs: bool = False):
        self.check_proofs = check_proofs

    def run(self, ctx: LintContext):
        if ctx.design is None:
            return None
        report = check_equivalence(
            ctx.design, check_proofs=self.check_proofs
        )
        for mismatch in report.mismatches:
            where = (f"{mismatch.kind}@{mismatch.edge}"
                     if mismatch.edge else mismatch.kind)
            ctx.emit(
                "backend-mismatch", ERROR,
                f"{mismatch.path}[{mismatch.bit}]",
                f"{mismatch.backend} backend diverges from the netlist "
                f"({where}) under state {mismatch.state!r}, inputs "
                f"{mismatch.inputs!r}",
                fix_hint="the codegen lowering of this cone is wrong; "
                         "reduce with the separating assignment",
            )
        return report
