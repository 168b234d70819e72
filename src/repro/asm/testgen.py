"""Test-suite generation from explored FSMs -- the AsmL workflow.

"The AsmL tool generates the model's FSM by executing the model program
... the test suite generated from the FSM usually does not cover all
possible states and transitions of the model program" (paper,
Section 5.1).  This module closes that loop:

* :func:`generate_transition_cover` walks an explored
  :class:`~repro.asm.fsm.Fsm` and produces a small set of action
  sequences (each starting from reset) that together traverse **every
  recorded transition** -- the classic transition-coverage suite;
* :func:`replay_suite` executes a suite against any
  :class:`~repro.asm.conformance.Implementation`, comparing observables
  against the model after every step, and reports coverage plus the
  first divergence.

Because the FSM is an under-approximation, the suite's coverage is
relative to the *explored* portion -- exactly the caveat the paper
makes.
"""

from __future__ import annotations

import random
import time
from collections import deque
from typing import Optional, Sequence

from .conformance import Divergence, Implementation
from .fsm import Fsm, Transition
from .machine import Action, AsmMachine

__all__ = ["TestSuite", "ReplayReport", "generate_transition_cover",
           "generate_random_walks", "replay_suite"]


class TestSuite:
    """A set of from-reset action-label sequences with coverage data."""

    def __init__(self, cases: list[list[Transition]], fsm: Fsm):
        self.cases = cases
        self.fsm = fsm

    @property
    def num_cases(self) -> int:
        """Number of test sequences."""
        return len(self.cases)

    @property
    def total_steps(self) -> int:
        """Total actions across the suite."""
        return sum(len(case) for case in self.cases)

    def covered_transitions(self) -> set[Transition]:
        """All distinct transitions exercised by the suite."""
        return {t for case in self.cases for t in case}

    @property
    def transition_coverage(self) -> float:
        """Fraction of the explored FSM's transitions covered."""
        total = len(set(self.fsm.transitions))
        if total == 0:
            return 1.0
        return len(self.covered_transitions()) / total

    def labels(self) -> list[list[str]]:
        """The suite as action-label sequences."""
        return [[t.label for t in case] for case in self.cases]

    def __repr__(self):
        return (
            f"TestSuite(cases={self.num_cases}, steps={self.total_steps}, "
            f"coverage={self.transition_coverage:.0%})"
        )


def generate_transition_cover(fsm: Fsm) -> TestSuite:
    """Build a transition-cover suite by greedy Eulerian-style walks.

    Repeatedly: start at the initial state, follow uncovered transitions
    when possible (shortest detour through covered ones otherwise), stop
    when no uncovered transition is reachable, and open a new case.
    """
    outgoing: dict[int, list[Transition]] = {}
    for transition in fsm.transitions:
        outgoing.setdefault(transition.src, []).append(transition)
    uncovered: set[Transition] = set(fsm.transitions)
    cases: list[list[Transition]] = []

    def path_to_uncovered(start: int) -> Optional[list[Transition]]:
        """Shortest transition path from ``start`` ending in an
        uncovered transition."""
        parent: dict[int, Transition] = {}
        seen = {start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for transition in outgoing.get(node, ()):
                if transition in uncovered:
                    path = [transition]
                    back = node
                    while back != start:
                        step = parent[back]
                        path.insert(0, step)
                        back = step.src
                    return path
                if transition.dst not in seen:
                    seen.add(transition.dst)
                    parent[transition.dst] = transition
                    queue.append(transition.dst)
        return None

    while uncovered:
        case: list[Transition] = []
        current = fsm.initial
        while True:
            extension = path_to_uncovered(current)
            if extension is None:
                break
            case.extend(extension)
            uncovered.difference_update(extension)
            current = extension[-1].dst
        if not case:
            break  # remaining transitions unreachable from reset
        cases.append(case)
    return TestSuite(cases, fsm)


def generate_random_walks(
    machine: AsmMachine,
    cases: int,
    steps: int,
    seed: int = 0,
) -> list[list[Action]]:
    """Generate ``cases`` random from-reset action sequences.

    Each walk starts at the machine's reset state and repeatedly fires a
    uniformly chosen enabled action, up to ``steps`` actions (shorter if
    the machine deadlocks).  This is the *undirected* stimulus baseline;
    the coverage-driven selection loop in :mod:`repro.cover.testgen`
    ranks exactly these candidates by incremental coverage.  The machine
    is left in its reset state.
    """
    rng = random.Random(seed)
    walks: list[list[Action]] = []
    for __ in range(cases):
        machine.reset()
        walk: list[Action] = []
        for __ in range(steps):
            enabled = machine.enabled_actions()
            if not enabled:
                break
            action = rng.choice(enabled)
            machine.fire(action)
            walk.append(action)
        walks.append(walk)
    machine.reset()
    return walks


class ReplayReport:
    """Outcome of replaying a suite against an implementation."""

    def __init__(self, passed: bool, cases_run: int, steps_run: int,
                 cpu_time: float, divergence: Optional[Divergence] = None):
        self.passed = passed
        self.cases_run = cases_run
        self.steps_run = steps_run
        self.cpu_time = cpu_time
        self.divergence = divergence

    def __repr__(self):
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"ReplayReport({verdict}, cases={self.cases_run}, "
            f"steps={self.steps_run}, cpu={self.cpu_time:.3f}s)"
        )


def replay_suite(
    suite: TestSuite,
    machine: AsmMachine,
    implementation: Implementation,
    observables: Sequence[str],
) -> ReplayReport:
    """Run every case of ``suite`` on model and implementation in
    lockstep, comparing the observable projection after each step.  Each
    step fires the action the exploration recorded on its transition."""
    start = time.perf_counter()
    steps_run = 0
    for case_index, case in enumerate(suite.cases):
        machine.reset()
        implementation.reset()
        executed: list[str] = []
        for transition in case:
            action = transition.action
            machine.fire(action)
            implementation.apply(action.rule.name, action.args)
            executed.append(transition.label)
            steps_run += 1
            model_obs = {
                name: machine.state[name] for name in observables
            }
            impl_obs = implementation.observe()
            impl_projection = {name: impl_obs[name] for name in observables}
            if impl_projection != model_obs:
                elapsed = time.perf_counter() - start
                return ReplayReport(
                    False, case_index + 1, steps_run, elapsed,
                    Divergence(executed, model_obs, impl_projection),
                )
    elapsed = time.perf_counter() - start
    return ReplayReport(True, suite.num_cases, steps_run, elapsed)
