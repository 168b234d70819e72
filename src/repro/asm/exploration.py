"""Bounded reachability analysis -- the AsmL exploration algorithm.

"The AsmL tool ... includes a general algorithm implementing reachability
analysis (also called state space exploration)" (paper, Section 5.1).
:func:`search` is that one algorithm: it walks an
:class:`~repro.asm.machine.AsmMachine` breadth first from its initial
state, firing every enabled (rule, arguments) action, paired with a
monitor component its caller steps.  :class:`Explorer` records the
visited portion as an :class:`~repro.asm.fsm.Fsm`; the model checker
(:mod:`~repro.asm.checker`), conformance co-execution
(:mod:`~repro.asm.conformance`) and the lint sweep
(:func:`repro.lint.asm_rules.sweep_states`) are its other callers.

As in AsmL, "you must limit the number of states and transitions that the
tool explores": :class:`ExplorationConfig` carries the bounds plus the two
configuration knobs the paper stresses -- a *state projection* (which
variables participate in state identity) and an *action filter* (which
rules to explore).  Only :func:`search` reads it.  When any bound is hit
the produced FSM is marked as an under-approximation.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Hashable, Optional, Sequence

from .fsm import Fsm
from .machine import Action, AsmMachine

__all__ = ["ExplorationConfig", "ExplorationResult", "Explorer", "search"]


class ExplorationConfig:
    """Bounds and filters guiding the exploration.

    Parameters
    ----------
    max_states, max_transitions, max_depth:
        Hard bounds; ``None`` means unbounded.
    state_projection:
        Optional list of variable names that define state identity (the
        AsmL configuration's "variables" set).  Variables outside the
        projection still evolve but do not distinguish FSM nodes.
    action_filter:
        Optional predicate over :class:`Action`; actions rejected by the
        filter are not explored (the configuration's "methods/actions").
    deadline_s:
        Wall-clock budget in seconds; ``None`` means unlimited.  A run
        that exceeds it stops cleanly with ``truncated=True`` (reason
        ``"deadline"``) instead of hanging a campaign.
    """

    def __init__(
        self,
        max_states: Optional[int] = 100000,
        max_transitions: Optional[int] = 1000000,
        max_depth: Optional[int] = None,
        state_projection: Optional[Sequence[str]] = None,
        action_filter: Optional[Callable[[Action], bool]] = None,
        deadline_s: Optional[float] = None,
    ):
        self.max_states = max_states
        self.max_transitions = max_transitions
        self.max_depth = max_depth
        self.state_projection = (
            tuple(state_projection) if state_projection is not None else None
        )
        self.action_filter = action_filter
        self.deadline_s = deadline_s


class ExplorationResult:
    """The FSM plus the accounting reported in Table 1.

    ``truncated_reason`` is ``""`` for a complete run, ``"bounds"`` when
    a state/transition/depth bound was hit, and ``"deadline"`` when the
    wall-clock budget expired.
    """

    def __init__(self, fsm: Fsm, cpu_time: float, truncated: bool,
                 truncated_reason: str = ""):
        self.fsm = fsm
        self.cpu_time = cpu_time
        self.truncated = truncated
        self.truncated_reason = truncated_reason

    @property
    def num_nodes(self) -> int:
        """FSM node count."""
        return self.fsm.num_nodes

    @property
    def num_transitions(self) -> int:
        """FSM transition count."""
        return self.fsm.num_transitions

    def __repr__(self):
        return (
            f"ExplorationResult(nodes={self.num_nodes}, "
            f"transitions={self.num_transitions}, "
            f"cpu={self.cpu_time:.3f}s, truncated={self.truncated})"
        )


class Explorer:
    """Breadth-first exploration of an ASM machine, recorded as an FSM."""

    def __init__(self, machine: AsmMachine,
                 config: Optional[ExplorationConfig] = None):
        self.machine = machine
        self.config = config or ExplorationConfig()

    def explore(self) -> ExplorationResult:
        """Run the exploration; the machine is reset first and left in its
        initial state afterwards."""
        start = time.perf_counter()
        moves: list = []

        def record(src, action, dst, __) -> None:
            moves.append((src, action, dst))

        parents, __, reason = search(self.machine, self.config, None,
                                     lambda component, action: None, record)
        fsm = Fsm()
        ids = {}
        for key, (__, __, snapshot) in parents.items():
            ids[key] = fsm.add_state(snapshot)
        for src, action, dst in moves:
            if dst in ids:  # else the state cap refused the successor
                fsm.add_transition(ids[src], action, ids[dst])
        fsm.complete = not reason
        elapsed = time.perf_counter() - start
        return ExplorationResult(fsm, elapsed, bool(reason), reason)


def search(
    machine: AsmMachine,
    config: ExplorationConfig,
    initial: Hashable,
    step: Callable[[Hashable, Action], Hashable],
    visit: Optional[Callable[..., object]] = None,
    prune: Optional[Callable[[Hashable], bool]] = None,
):
    """Breadth-first search of the machine x monitor product.

    This is the one exploration of an :class:`AsmMachine`: the
    :class:`Explorer`, the model checker, conformance co-execution and
    the lint sweep differ only in the monitor component they carry and
    in what they do with each transition.  A node is the machine's
    (projected) snapshot paired with a component: ``initial`` for the
    machine's initial state, and ``step(component, action)`` for the
    successor after ``action`` fired from a node with ``component``,
    called with the successor's state live on the machine.  A successor
    whose component meets ``prune`` is dropped (an environment
    assumption it violates).  ``visit(src, action, dst, component)``
    sees every other transition, with the successor's state still live,
    before the successor is admitted: ``src`` and ``dst`` are node keys,
    and a truthy return ends the search.

    Only this function reads ``config``: its bounds, deadline, state
    projection and action filter, which sees each expanded state's
    enabled actions with that state live.  A new successor past
    ``max_states`` is not admitted; ``max_transitions`` counts every
    transition fired, pruned ones included.

    Returns ``(parents, transitions, reason)``: ``parents`` maps every
    admitted node key, in BFS order, to ``(parent key, action,
    snapshot)`` (``(None, None, snapshot)`` for the initial node), so
    ``len(parents)`` is the node count; ``transitions`` counts the
    transitions fired; ``reason`` is "" for a complete search, else
    "deadline" or "bounds" (a bound was hit).  A search that ``visit``
    ended keeps the reason found so far.  The machine is reset first and
    left reset.
    """
    start = time.perf_counter()
    deadline = None if config.deadline_s is None else start + config.deadline_s
    projection = config.state_projection
    action_filter = config.action_filter

    def key_of(snapshot: tuple, component) -> tuple:
        if projection is None:
            return snapshot, component
        as_dict = dict(snapshot)
        return tuple((name, as_dict[name]) for name in projection), component

    machine.reset()
    snapshot = machine.snapshot()
    root = key_of(snapshot, initial)
    parents: dict = {root: (None, None, snapshot)}
    queue: deque = deque([(snapshot, initial, root, 0)])
    transitions = 0
    reason = ""
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
        if action_filter is not None:
            actions = [a for a in actions if action_filter(a)]
        for action in actions:
            if (
                config.max_transitions is not None
                and transitions >= config.max_transitions
            ):
                reason = reason or "bounds"
                break
            machine.restore(snapshot)
            machine.fire(action)
            succ = step(component, action)
            transitions += 1
            if prune is not None and prune(succ):
                continue
            succ_snapshot = machine.snapshot()
            dst = key_of(succ_snapshot, succ)
            if visit is not None and visit(key, action, dst, succ):
                machine.reset()
                return parents, transitions, reason
            if dst in parents:
                continue
            if config.max_states is not None and len(parents) >= config.max_states:
                reason = reason or "bounds"
                continue
            parents[dst] = (key, action, succ_snapshot)
            queue.append((succ_snapshot, succ, dst, depth + 1))
    machine.reset()
    return parents, transitions, reason
