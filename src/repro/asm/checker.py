"""Model checking PSL properties by guided ASM exploration.

"By adapting the exploration algorithm we've been able to implement a model
checking procedure for PSL" (paper, Section 5.1).  The procedure composes
the machine's reachable states with the deterministic checker automata of
the properties, stepped as one :class:`~repro.psl.automata.PropertyBank`,
and searches the product breadth first:

* a property is **violated** when the product reaches the automaton's
  failure state -- the paper's filter/stopping condition
  ``P_status = true & P_value = false``; the "generated portion of the
  state machine from the initial state until the stop error point forms a
  complete path for a counter-example";
* a safety property **holds** when the full product is explored without
  reaching a failure;
* if exploration bounds truncate the search, the verdict is *unknown* (an
  under-approximating run that found no violation).

Atoms are evaluated on machine states through a *labeling*: by default an
atom named like a state variable samples that variable's truthiness, and
callers may supply arbitrary ``atom -> f(state_dict) -> bool`` functions.
Each exploration resolves one observation per bank atom up front, labels
every successor state once (one bool per atom) and steps all automata
through the bank's step, memoised on (automaton states, label).
"""

from __future__ import annotations

import time
from collections import deque
from operator import itemgetter
from typing import Callable, Mapping, Optional, Sequence

from ..psl.ast import Property, PslError, Sere
from ..psl.automata import CheckerAutomaton, PropertyBank
from ..psl.sere import compile_sere
from .exploration import ExplorationConfig
from .machine import AsmMachine

__all__ = ["Labeling", "ModelCheckResult", "CoverResult", "AsmModelChecker"]


class Labeling:
    """Maps PSL atoms to boolean observations of a machine state."""

    def __init__(self, functions: Optional[Mapping[str, Callable]] = None):
        self._functions: dict[str, Callable] = dict(functions or {})

    def define(self, atom: str, fn: Callable[[dict], bool]) -> None:
        """Register an observation function for an atom."""
        self._functions[atom] = fn

    def function(self, atom: str, state: Mapping) -> Callable[[dict], object]:
        """The observation of ``atom``: its registered function, else the
        state variable of that name (its truthiness is the atom's value)."""
        fn = self._functions.get(atom)
        if fn is not None:
            return fn
        if atom in state:
            return itemgetter(atom)
        raise PslError(
            f"atom {atom!r} has no labeling function and is not a "
            "state variable"
        )

    def valuation(self, state: dict, atoms: Sequence[str]) -> dict:
        """Evaluate the listed atoms on a machine state dictionary."""
        return {atom: bool(self.function(atom, state)(state)) for atom in atoms}


class ModelCheckResult:
    """Verdict plus the accounting Table 1 reports.

    ``holds`` is True (proved), False (violated -- see
    :attr:`counterexample`) or None (bounds hit, no violation found).
    """

    def __init__(
        self,
        holds: Optional[bool],
        num_nodes: int,
        num_transitions: int,
        cpu_time: float,
        counterexample: Optional[list] = None,
        property_name: str = "property",
        truncated_reason: str = "",
    ):
        self.holds = holds
        self.num_nodes = num_nodes
        self.num_transitions = num_transitions
        self.cpu_time = cpu_time
        self.counterexample = counterexample
        self.property_name = property_name
        #: "" for a decided run; "bounds" / "deadline" when holds is None
        self.truncated_reason = truncated_reason

    def __repr__(self):
        verdict = {True: "HOLDS", False: "FAILS", None: "UNKNOWN"}[self.holds]
        return (
            f"ModelCheckResult({self.property_name}: {verdict}, "
            f"nodes={self.num_nodes}, transitions={self.num_transitions}, "
            f"cpu={self.cpu_time:.3f}s)"
        )


class CoverResult:
    """Outcome of a cover-directive check: was the SERE ever matched?

    ``covered`` is True with a :attr:`witness` path, False (the whole
    bounded exploration finished without a match) or None (bounds hit).
    """

    def __init__(self, covered, num_nodes, num_transitions, cpu_time,
                 witness=None, name="cover"):
        self.covered = covered
        self.num_nodes = num_nodes
        self.num_transitions = num_transitions
        self.cpu_time = cpu_time
        self.witness = witness
        self.name = name

    def __repr__(self):
        verdict = {True: "COVERED", False: "UNREACHABLE",
                   None: "UNKNOWN"}[self.covered]
        return (
            f"CoverResult({self.name}: {verdict}, nodes={self.num_nodes}, "
            f"cpu={self.cpu_time:.3f}s)"
        )


class AsmModelChecker:
    """Exploration-based PSL model checker over an :class:`AsmMachine`."""

    def __init__(
        self,
        machine: AsmMachine,
        labeling: Optional[Labeling] = None,
        config: Optional[ExplorationConfig] = None,
    ):
        self.machine = machine
        self.labeling = labeling or Labeling()
        self.config = config or ExplorationConfig()

    # ------------------------------------------------------------------
    def check(self, prop: Property, name: str = "property") -> ModelCheckResult:
        """Check a single safety property."""
        return self.check_combined([prop], name=name)

    def check_combined(
        self,
        props: Sequence[Property],
        name: str = "combined",
        assumptions: Sequence[Property] = (),
    ) -> ModelCheckResult:
        """Check several properties in one product exploration.

        This mirrors Table 1, which reports "the CPU time required to
        verify all the interface properties combined together".

        ``assumptions`` are environment constraints (PSL ``assume``
        directives): executions that would violate an assumption are
        pruned from the search, so properties are verified only over
        assumption-consistent behaviours -- the standard way RuleBase
        users modelled a constrained host.
        """
        for prop in tuple(props) + tuple(assumptions):
            if not prop.is_safety():
                raise PslError(
                    f"{prop!r} is not a safety property; exploration-based "
                    "model checking needs finite bad prefixes"
                )
        start = time.perf_counter()
        num_assumptions = len(assumptions)
        bank = PropertyBank(tuple(assumptions) + tuple(props))
        machine = self.machine
        machine.reset()
        observations = [self.labeling.function(atom, machine.state)
                        for atom in bank.atoms]
        fail = CheckerAutomaton.FAIL_STATE

        def step(chk_states: tuple) -> tuple:
            # label the machine's live state: one bool per bank atom
            state = machine.state
            return bank.step(chk_states,
                             tuple([bool(fn(state)) for fn in observations]))

        def assumption_violated(chk_states: tuple) -> bool:
            return fail in chk_states[:num_assumptions]

        def property_violated(chk_states: tuple) -> bool:
            return fail in chk_states[num_assumptions:]

        initial_chk = step(bank.initial)
        if assumption_violated(initial_chk):
            # no assumption-consistent behaviour exists: vacuously true
            return ModelCheckResult(True, 0, 0, time.perf_counter() - start,
                                    property_name=name)
        if property_violated(initial_chk):
            return ModelCheckResult(
                False, 1, 0, time.perf_counter() - start,
                counterexample=[("initial", dict(machine.snapshot()))],
                property_name=name,
            )
        trace, nodes, transitions, reason = self._search(
            start, initial_chk, step, property_violated, assumption_violated)
        elapsed = time.perf_counter() - start
        if trace is not None:
            return ModelCheckResult(False, nodes, transitions, elapsed,
                                    counterexample=trace, property_name=name)
        return ModelCheckResult(
            None if reason else True, nodes, transitions, elapsed,
            property_name=name, truncated_reason=reason,
        )

    # ------------------------------------------------------------------
    def check_cover(self, sere: Sere, name: str = "cover") -> CoverResult:
        """Search for a witness execution matching the SERE (PSL's
        ``cover`` directive): a match may start at any cycle."""
        start = time.perf_counter()
        nfa = compile_sere(sere)
        atoms = sorted(sere.atoms())
        machine = self.machine
        machine.reset()

        def step(runs: frozenset) -> frozenset:
            # NFA runs start fresh at every cycle (cover matches anywhere)
            valuation = self.labeling.valuation(machine.state, atoms)
            return nfa.step(runs | nfa.initial, valuation)

        initial_runs = step(frozenset())
        if nfa.accepts_now(initial_runs) or nfa.accepts_empty:
            return CoverResult(True, 1, 0, time.perf_counter() - start,
                               witness=[("initial", dict(machine.snapshot()))],
                               name=name)
        witness, nodes, transitions, reason = self._search(
            start, initial_runs, step, nfa.accepts_now)
        covered = True if witness is not None else (None if reason else False)
        return CoverResult(covered, nodes, transitions,
                           time.perf_counter() - start, witness=witness,
                           name=name)

    # ------------------------------------------------------------------
    def _search(self, start: float, initial, step, goal, prune=None):
        """Breadth-first search of the machine x monitor product.

        ``initial`` is the monitor component of the machine's initial
        state and ``step(component)`` the component after a transition
        into the machine's live state.  Successors whose component meets
        ``prune`` are dropped; the first meeting ``goal`` ends the search.
        Returns ``(trace, nodes, transitions, reason)``: the path to that
        successor (None when none is reached) and the truncation reason,
        "" for a complete search, else "deadline" or "bounds".
        """
        machine = self.machine
        config = self.config
        snapshot = machine.snapshot()
        key = (self._project(snapshot), initial)
        # parents: product_key -> (parent_key, action_label, snapshot)
        parents: dict = {key: (None, None, snapshot)}
        queue: deque = deque([(snapshot, initial, key, 0)])
        visited = {key}
        num_transitions = 0
        reason = ""
        deadline = (
            None if getattr(config, "deadline_s", None) is None
            else start + config.deadline_s
        )
        while queue:
            if deadline is not None and time.perf_counter() > deadline:
                reason = "deadline"
                break
            snapshot, component, key, depth = queue.popleft()
            if config.max_depth is not None and depth >= config.max_depth:
                reason = reason or "bounds"
                continue
            machine.restore(snapshot)
            actions = machine.enabled_actions()
            if config.action_filter is not None:
                actions = [a for a in actions if config.action_filter(a)]
            for action in actions:
                if (
                    config.max_transitions is not None
                    and num_transitions >= config.max_transitions
                ):
                    reason = reason or "bounds"
                    break
                machine.restore(snapshot)
                machine.fire(action)
                succ_snapshot = machine.snapshot()
                succ = step(component)
                succ_key = (self._project(succ_snapshot), succ)
                num_transitions += 1
                if prune is not None and prune(succ):
                    continue  # pruned: outside the assumed environment
                if succ_key not in parents:
                    parents[succ_key] = (key, action.label, succ_snapshot)
                if goal(succ):
                    machine.reset()
                    return (self._trace(parents, succ_key), len(visited) + 1,
                            num_transitions, reason)
                if succ_key in visited:
                    continue
                if (
                    config.max_states is not None
                    and len(visited) >= config.max_states
                ):
                    reason = reason or "bounds"
                    continue
                visited.add(succ_key)
                queue.append((succ_snapshot, succ, succ_key, depth + 1))
        machine.reset()
        return None, len(visited), num_transitions, reason

    # ------------------------------------------------------------------
    def _project(self, snapshot: tuple) -> tuple:
        projection = self.config.state_projection
        if projection is None:
            return snapshot
        as_dict = dict(snapshot)
        return tuple((v, as_dict[v]) for v in projection)

    @staticmethod
    def _trace(parents: dict, key) -> list:
        """Reconstruct the counterexample path to ``key``."""
        steps = []
        while key is not None:
            parent, label, snapshot = parents[key]
            steps.append((label or "initial", dict(snapshot)))
            key = parent
        steps.reverse()
        return steps
