"""The Abstract State Machine core: state, guarded rules, update sets.

"An ASM model by definition encodes only those aspects of the system's
structure that affect the behavior being modeled" (paper, Section 2.3).
Concretely:

* an :class:`AsmMachine` holds a flat dictionary of named state variables
  with hashable values;
* behaviour is a set of :class:`Rule` objects -- each has a ``require``
  precondition (the AsmL ``require`` clause that "defines the rules
  filtering the states where the method can be executed") and an effect
  producing an *update set*;
* firing applies the whole update set atomically; an effect returns one
  value per location, so a single rule's update set is consistent by
  construction (two co-enabled rules writing one location differently
  is the ``asm-conflicting-updates`` lint rule's,
  :mod:`repro.lint.asm_rules`);
* rule parameters are drawn from finite :class:`~repro.asm.domains.Domain`
  collections, which is where the explorer's nondeterminism comes from
  (AsmL's ``any x in {...}``).
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence

from .domains import Domain

__all__ = ["AsmError", "Rule", "Action", "AsmMachine"]


class AsmError(Exception):
    """Raised on ASM misuse (unknown variables, firing a disabled rule)."""


class Rule:
    """A guarded update rule (an AsmL method).

    ``guard(state, **args)`` is the ``require`` precondition;
    ``effect(state, **args)`` returns the update set as a ``{var: value}``
    mapping (read-only access to ``state``).  ``domains`` maps parameter
    names to the finite collections exploration draws arguments from.
    """

    def __init__(
        self,
        name: str,
        guard: Callable[..., bool],
        effect: Callable[..., Mapping],
        domains: Optional[Mapping[str, Domain]] = None,
    ):
        self.name = name
        self.guard = guard
        self.effect = effect
        self.domains: dict[str, Domain] = dict(domains or {})
        self._combinations: Optional[tuple[dict, ...]] = None

    def argument_combinations(self) -> tuple[dict, ...]:
        """All argument dictionaries drawn from this rule's domains.

        Built once per rule: every action of the rule shares these dicts,
        so callers must not mutate them (domains are fixed collections).
        """
        if self._combinations is None:
            combos: list[dict] = [{}]
            for param, domain in self.domains.items():
                combos = [
                    {**combo, param: value}
                    for combo in combos
                    for value in domain.values()
                ]
            self._combinations = tuple(combos)
        return self._combinations

    def __repr__(self):
        params = ", ".join(self.domains)
        return f"Rule({self.name}({params}))"


class Action:
    """A concrete step: a rule plus chosen arguments."""

    __slots__ = ("rule", "args")

    def __init__(self, rule: Rule, args: dict):
        self.rule = rule
        self.args = args

    @property
    def label(self) -> str:
        """Human-readable transition label for FSMs and counterexamples."""
        if not self.args:
            return self.rule.name
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(self.args.items()))
        return f"{self.rule.name}({rendered})"

    def __eq__(self, other):
        return (
            isinstance(other, Action)
            and other.rule is self.rule
            and other.args == self.args
        )

    def __hash__(self):
        return hash((id(self.rule), tuple(sorted(self.args.items()))))

    def __repr__(self):
        return f"Action({self.label})"


class AsmMachine:
    """A model program: named state variables plus guarded rules."""

    def __init__(self, name: str = "asm"):
        self.name = name
        self._initial: dict = {}
        self.state: dict = {}
        self.rules: list[Rule] = []
        self._frozen_vars: Optional[frozenset] = None
        # inline lint suppressions; see lint_waive
        self.lint_waivers: list[tuple[str, str, str]] = []
        # fire observers: ``fn(machine, action)`` called after every
        # applied update set (post-state visible) -- the hook coverage
        # collectors (:mod:`repro.cover.asm_cov`) attach to
        self.fire_observers: list[Callable[["AsmMachine", Action], None]] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def var(self, name: str, initial) -> str:
        """Declare a state variable with its initial value; returns the
        name so models can keep symbolic handles."""
        if name in self._initial:
            raise AsmError(f"variable {name} already declared")
        try:
            hash(initial)
        except TypeError:
            raise AsmError(
                f"initial value of {name} must be hashable for exploration"
            ) from None
        self._initial[name] = initial
        self.state[name] = initial
        return name

    def rule(
        self,
        name: str,
        guard: Callable[..., bool],
        effect: Callable[..., Mapping],
        domains: Optional[Mapping[str, Domain]] = None,
    ) -> Rule:
        """Register a guarded rule; returns the :class:`Rule`."""
        rule = Rule(name, guard, effect, domains)
        self.rules.append(rule)
        return rule

    def lint_waive(self, rule: str, pattern: str, reason: str) -> None:
        """Suppress a :mod:`repro.lint` rule for locations matching the
        glob ``pattern`` (``<machine>.<rule_name>``), with a required
        justification.  Waived findings stay in reports but do not fail
        the run."""
        if not reason:
            raise AsmError("a lint waiver requires a justification")
        self.lint_waivers.append((rule, pattern, reason))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Return to the initial state."""
        self.state = dict(self._initial)

    def snapshot(self) -> tuple:
        """A hashable canonical snapshot of the current state."""
        return tuple(sorted(self.state.items()))

    def restore(self, snapshot: tuple) -> None:
        """Restore a snapshot taken with :meth:`snapshot`."""
        self.state = dict(snapshot)

    def enabled_actions(self) -> list[Action]:
        """All (rule, argument) combinations whose guard holds now."""
        actions: list[Action] = []
        for rule in self.rules:
            for args in rule.argument_combinations():
                if rule.guard(self.state, **args):
                    actions.append(Action(rule, args))
        return actions

    def compute_updates(self, action: Action) -> dict:
        """Evaluate an action's update set without applying it."""
        if not action.rule.guard(self.state, **action.args):
            raise AsmError(
                f"rule {action.label} fired with unsatisfied require clause"
            )
        updates = dict(action.rule.effect(self.state, **action.args))
        for key, value in updates.items():
            if key not in self.state:
                raise AsmError(f"rule {action.label} updates unknown var {key}")
            try:
                hash(value)
            except TypeError:
                raise AsmError(
                    f"rule {action.label} writes unhashable value to {key}"
                ) from None
        return updates

    def fire(self, action: Action) -> None:
        """Fire an enabled action: apply its update set atomically."""
        updates = self.compute_updates(action)
        self.state.update(updates)
        for observer in self.fire_observers:
            observer(self, action)

    def fire_named(self, rule_name: str, **args) -> None:
        """Convenience: fire a rule by name with explicit arguments."""
        for rule in self.rules:
            if rule.name == rule_name:
                self.fire(Action(rule, args))
                return
        raise AsmError(f"no rule named {rule_name}")

    def run(self, actions: Sequence[Action]) -> None:
        """Fire a sequence of actions."""
        for action in actions:
            self.fire(action)

    def __repr__(self):
        return (
            f"AsmMachine({self.name!r}, vars={len(self._initial)}, "
            f"rules={len(self.rules)})"
        )
