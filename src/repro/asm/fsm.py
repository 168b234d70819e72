"""The finite state machine produced by ASM exploration.

"The AsmL tool generates the model's FSM by executing the model program in
a special execution environment, keeping track of the actions it performs
and recording the states it visits" (paper, Section 5.1).  The FSM "is
usually only a portion -- an under-approximation -- of the huge FSM that
would result if the model program could be explored completely";
:attr:`Fsm.complete` records whether any exploration bound was hit.
"""

from __future__ import annotations

from typing import Optional

from .machine import Action

__all__ = ["Fsm", "Transition"]


class Transition:
    """One explored transition: source state, fired action, target state."""

    __slots__ = ("src", "action", "dst")

    def __init__(self, src: int, action: Action, dst: int):
        self.src = src
        self.action = action
        self.dst = dst

    @property
    def label(self) -> str:
        """The fired action's label."""
        return self.action.label

    def __eq__(self, other):
        return (
            isinstance(other, Transition)
            and (other.src, other.action, other.dst)
            == (self.src, self.action, self.dst)
        )

    def __hash__(self):
        return hash((self.src, self.action, self.dst))

    def __repr__(self):
        return f"{self.src} --{self.label}--> {self.dst}"


class Fsm:
    """An explored FSM: numbered states with their snapshots, transitions,
    and the bookkeeping Table 1 reports (node and transition counts)."""

    def __init__(self, initial: int = 0):
        self.initial = initial
        self.states: list[tuple] = []
        self.transitions: list[Transition] = []
        self.complete = True

    def add_state(self, snapshot: tuple) -> int:
        """Record a state snapshot; returns its id."""
        self.states.append(snapshot)
        return len(self.states) - 1

    def add_transition(self, src: int, action: Action, dst: int) -> None:
        """Record a transition."""
        self.transitions.append(Transition(src, action, dst))

    @property
    def num_nodes(self) -> int:
        """Number of FSM nodes (Table 1's "Number of FSM Nodes")."""
        return len(self.states)

    @property
    def num_transitions(self) -> int:
        """Number of FSM transitions (Table 1's "Transitions")."""
        return len(self.transitions)

    def successors(self, state: int) -> list[Transition]:
        """Outgoing transitions of a state."""
        return [t for t in self.transitions if t.src == state]

    def state_dict(self, state: int) -> dict:
        """A state's snapshot as a dictionary."""
        return dict(self.states[state])

    def path_to(self, target: int) -> Optional[list[Transition]]:
        """A shortest transition path from the initial state to ``target``."""
        if target == self.initial:
            return []
        from collections import deque

        outgoing: dict[int, list[Transition]] = {}
        for t in self.transitions:
            outgoing.setdefault(t.src, []).append(t)
        parent: dict[int, Transition] = {}
        queue = deque([self.initial])
        seen = {self.initial}
        while queue:
            node = queue.popleft()
            for t in outgoing.get(node, ()):
                if t.dst in seen:
                    continue
                parent[t.dst] = t
                if t.dst == target:
                    path = [t]
                    while path[0].src != self.initial:
                        path.insert(0, parent[path[0].src])
                    return path
                seen.add(t.dst)
                queue.append(t.dst)
        return None

    def to_dot(self, max_states: int = 200) -> str:
        """Render as Graphviz dot (small FSMs only)."""
        lines = ["digraph fsm {", "  rankdir=LR;"]
        for i in range(min(self.num_nodes, max_states)):
            shape = "doublecircle" if i == self.initial else "circle"
            lines.append(f'  s{i} [shape={shape}, label="s{i}"];')
        for t in self.transitions:
            if t.src < max_states and t.dst < max_states:
                lines.append(f'  s{t.src} -> s{t.dst} [label="{t.label}"];')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self):
        tag = "" if self.complete else ", under-approximation"
        return f"Fsm(nodes={self.num_nodes}, transitions={self.num_transitions}{tag})"
