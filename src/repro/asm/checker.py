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
from operator import itemgetter
from typing import Callable, Mapping, Optional, Sequence

from ..psl.ast import Property, PslError, Sere
from ..psl.automata import CheckerAutomaton, PropertyBank
from ..psl.sere import compile_sere
from .exploration import ExplorationConfig, search
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
    ``failures`` maps the index (into the checked properties) of each
    property that failed to its counterexample.
    """

    def __init__(
        self,
        holds: Optional[bool],
        num_nodes: int,
        num_transitions: int,
        cpu_time: float,
        failures: Optional[dict] = None,
        property_name: str = "property",
        truncated: bool = False,
    ):
        self.holds = holds
        self.num_nodes = num_nodes
        self.num_transitions = num_transitions
        self.cpu_time = cpu_time
        self.failures: dict = failures or {}
        self.property_name = property_name
        #: True when a bound cut the search before the properties not
        #: in ``failures`` were proved
        self.truncated = truncated

    @property
    def counterexample(self) -> Optional[list]:
        """The first failure found, as ``(action label, state)`` steps
        from the initial state; None when no property failed."""
        return next(iter(self.failures.values()), None)

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
        verify all the interface properties combined together".  A
        property that fails retires with its counterexample, the
        shortest there is, and the search steps the rest: the result's
        ``failures`` holds every property that fails within the bounds,
        and :attr:`~ModelCheckResult.counterexample` is the first found.
        So a run over several properties stops early only when every
        property has failed; one with a holding property counts the
        whole search.

        ``assumptions`` are environment constraints (PSL ``assume``
        directives): executions that would violate an assumption are
        pruned from the search, so properties are verified only over
        assumption-consistent behaviours -- the standard way RuleBase
        users modelled a constrained host.
        """
        props = tuple(props)
        for prop in props + tuple(assumptions):
            if not prop.is_safety():
                raise PslError(
                    f"{prop!r} is not a safety property; exploration-based "
                    "model checking needs finite bad prefixes"
                )
        start = time.perf_counter()
        num_assumptions = len(assumptions)
        bank = PropertyBank(tuple(assumptions) + props)
        machine = self.machine
        machine.reset()
        observations = [self.labeling.function(atom, machine.state)
                        for atom in bank.atoms]
        fail = CheckerAutomaton.FAIL_STATE

        def step(chk_states: tuple, action=None) -> tuple:
            # label the machine's live state: one bool per bank atom
            state = machine.state
            return bank.step(chk_states,
                             tuple([bool(fn(state)) for fn in observations]))

        def assumption_violated(chk_states: tuple) -> bool:
            return fail in chk_states[:num_assumptions]

        # property index -> (node, action, snapshot) of its first failure,
        # in the order found; FAIL is absorbing, so a retired property's
        # slot stays FAIL and is skipped below
        failed: dict = {}

        def retire(src, action, dst, chk_states: tuple) -> bool:
            if fail not in chk_states:  # assumption failures are pruned
                return False
            for index in range(len(props)):
                if (chk_states[num_assumptions + index] == fail
                        and index not in failed):
                    failed[index] = (src, action, machine.snapshot())
            return len(failed) == len(props)

        initial = step(bank.initial)
        if assumption_violated(initial):
            # no assumption-consistent behaviour exists: vacuously true
            return ModelCheckResult(True, 0, 0, time.perf_counter() - start,
                                    property_name=name)
        if retire(None, None, None, initial):
            return ModelCheckResult(
                False, 1, 0, time.perf_counter() - start,
                failures=_counterexamples({}, failed), property_name=name,
            )
        parents, transitions, truncated = search(
            machine, self.config, initial, step, retire,
            assumption_violated if num_assumptions else None)
        # the last property to fail ended the search on its failing
        # successor, which counts as a node
        ended = bool(failed) and len(failed) == len(props)
        return ModelCheckResult(
            False if failed else None if truncated else True,
            len(parents) + ended, transitions, time.perf_counter() - start,
            failures=_counterexamples(parents, failed), property_name=name,
            truncated=truncated and not ended,
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

        def step(runs: frozenset, action=None) -> frozenset:
            # NFA runs start fresh at every cycle (cover matches anywhere)
            valuation = self.labeling.valuation(machine.state, atoms)
            return nfa.step(runs | nfa.initial, valuation)

        initial_runs = step(frozenset())
        if nfa.accepts_now(initial_runs) or nfa.accepts_empty:
            return CoverResult(True, 1, 0, time.perf_counter() - start,
                               witness=[("initial", dict(machine.snapshot()))],
                               name=name)
        match: list = []

        def matched(src, action, dst, runs: frozenset) -> bool:
            if not nfa.accepts_now(runs):
                return False
            match.append((src, action, machine.snapshot()))
            return True

        parents, transitions, truncated = search(machine, self.config,
                                                 initial_runs, step, matched)
        elapsed = time.perf_counter() - start
        if match:
            return CoverResult(True, len(parents) + 1, transitions, elapsed,
                               witness=_path(parents, *match[0]), name=name)
        return CoverResult(None if truncated else False, len(parents),
                           transitions, elapsed, name=name)


def _path(parents: dict, src, action, snapshot: tuple) -> list:
    """The path, as ``(action label, state)`` steps, from the initial
    state through the search node ``src`` and then ``action`` into
    ``snapshot``; the initial state alone when ``src`` is None."""
    steps = [(action.label if action else "initial", dict(snapshot))]
    while src is not None:
        src, action, snapshot = parents[src]
        steps.append((action.label if action else "initial", dict(snapshot)))
    steps.reverse()
    return steps


def _counterexamples(parents: dict, failed: dict) -> dict:
    """Each failed property's counterexample, in the order found."""
    return {index: _path(parents, *where) for index, where in failed.items()}
