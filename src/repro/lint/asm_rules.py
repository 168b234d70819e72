"""ASM model diagnostics: dead ``require`` guards and conflicting updates.

Both rules run over a bounded breadth-first sweep of the machine's
reachable states (interleaving semantics, every enabled action explored,
capped by :attr:`~repro.lint.diagnostics.LintConfig.asm_state_cap`):

* a rule whose ``require`` guard never holds for any argument combination
  in any swept state is dead -- the conformance and model-checking runs
  silently never exercise it;
* two rules enabled in the same state whose update sets assign different
  values to one location would collide under ASM parallel (``do in
  parallel``) composition -- the update-consistency violation the paper's
  ASM semantics forbids.  An action whose update set cannot be computed
  at all (an unknown location, an unhashable value) is reported the
  same way.

The sweep computes each enabled action's update set once, in its action
filter where the state is live, and both rules read that record.

Rule ids
--------
``asm-unsat-require``        rule enabled in no swept reachable state
``asm-conflicting-updates``  co-enabled rules write one location differently
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from ..asm.exploration import ExplorationConfig, search
from ..asm.machine import AsmError, AsmMachine
from .diagnostics import ERROR
from .manager import LintContext, Pass

__all__ = ["AsmRulesPass", "sweep_states"]


def sweep_states(machine: AsmMachine, cap: int,
                 record: Optional[list] = None):
    """Bounded BFS over reachable snapshots.

    Returns ``(snapshots, capped)`` -- the visited snapshot list in BFS
    order and whether the cap cut the sweep short.  An action whose
    update set cannot be computed is not fired: the rules pass reports
    it.  A ``record`` list receives, for each swept state with an
    enabled action, in BFS order, its ``[(action, updates)]`` pairs,
    where ``updates`` is the update set or the :class:`AsmError` that
    computing it raised.  The machine's state is restored afterwards.
    """
    record = [] if record is None else record
    live = None  # the state whose actions the filter is seeing

    def consistent(action) -> bool:
        nonlocal live
        # search restores each state it expands into a fresh dict, then
        # filters that state's enabled actions with it live
        if machine.state is not live:
            live = machine.state
            record.append([])
        try:
            updates = machine.compute_updates(action)
        except AsmError as exc:
            updates = exc
        record[-1].append((action, updates))
        return not isinstance(updates, AsmError)

    saved = machine.snapshot()
    parents, __, capped = search(
        machine,
        ExplorationConfig(max_states=cap, max_transitions=None,
                          action_filter=consistent),
        None, lambda component, action: None)
    machine.restore(saved)
    return [snapshot for __, __, snapshot in parents.values()], capped


class AsmRulesPass(Pass):
    """Dead-rule and update-conflict detection over the state sweep."""

    name = "asm-rules"

    def run(self, ctx: LintContext):
        machine = ctx.machine
        if machine is None:
            return None
        record: list = []
        snapshots, capped = sweep_states(
            machine, ctx.config.asm_state_cap, record)

        ever_enabled: set[str] = set()
        conflicts_seen: set[tuple] = set()
        broken_effects: set[str] = set()
        for enabled in record:
            updates = []
            for action, upd in enabled:
                ever_enabled.add(action.rule.name)
                if not isinstance(upd, AsmError):
                    updates.append((action, upd))
                elif action.rule.name not in broken_effects:
                    broken_effects.add(action.rule.name)
                    ctx.emit(
                        "asm-conflicting-updates", ERROR,
                        f"{machine.name}.{action.rule.name}",
                        f"action {action.label} cannot compute a "
                        f"consistent update set: {upd}",
                        fix_hint="make the rule's effect produce one "
                                 "value per location",
                    )
            for (act_a, upd_a), (act_b, upd_b) in combinations(updates, 2):
                if act_a.rule is act_b.rule:
                    continue  # interleaved alternatives, never one step
                pair = tuple(sorted((act_a.rule.name, act_b.rule.name)))
                if pair in conflicts_seen:
                    continue
                clash = sorted(
                    var for var in upd_a.keys() & upd_b.keys()
                    if upd_a[var] != upd_b[var]
                )
                if clash:
                    conflicts_seen.add(pair)
                    ctx.emit(
                        "asm-conflicting-updates", ERROR,
                        f"{machine.name}.{pair[0]}+{pair[1]}",
                        f"co-enabled rules {pair[0]} and {pair[1]} write "
                        f"different values to {', '.join(clash)} "
                        f"(e.g. {act_a.label} vs {act_b.label}); parallel "
                        "composition would violate update consistency",
                        fix_hint="make the guards mutually exclusive or "
                                 "reconcile the update sets",
                    )

        for rule in machine.rules:
            if rule.name in ever_enabled:
                continue
            scope = (f"the first {len(snapshots)} reachable states"
                     if capped else
                     f"all {len(snapshots)} reachable states")
            ctx.emit(
                "asm-unsat-require", ERROR,
                f"{machine.name}.{rule.name}",
                f"require guard holds for no argument combination in "
                f"{scope}; the rule is dead",
                fix_hint="fix the guard or delete the rule",
            )
        return {
            "states": len(snapshots),
            "capped": capped,
            "rules_enabled": sorted(ever_enabled),
        }
