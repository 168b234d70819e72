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
  ASM semantics forbids.  An action whose effect itself raises
  :class:`~repro.asm.machine.UpdateConflict` is reported the same way.

Rule ids
--------
``asm-unsat-require``        rule enabled in no swept reachable state
``asm-conflicting-updates``  co-enabled rules write one location differently
"""

from __future__ import annotations

from itertools import combinations

from ..asm.exploration import ExplorationConfig, search
from ..asm.machine import AsmError, AsmMachine
from .diagnostics import ERROR
from .manager import LintContext, Pass

__all__ = ["AsmRulesPass", "sweep_states"]


def sweep_states(machine: AsmMachine, cap: int):
    """Bounded BFS over reachable snapshots.

    Returns ``(snapshots, capped)`` -- the visited snapshot list in BFS
    order and whether the cap cut the sweep short.  An action whose
    update set cannot be computed is not fired: the rules pass reports
    it.  The machine's state is restored afterwards.
    """
    def consistent(action) -> bool:
        try:
            machine.compute_updates(action)
        except AsmError:
            return False
        return True

    saved = machine.snapshot()
    parents, __, reason = search(
        machine,
        ExplorationConfig(max_states=cap, max_transitions=None,
                          action_filter=consistent),
        None, lambda component, action: None)
    machine.restore(saved)
    return [snapshot for __, __, snapshot in parents.values()], bool(reason)


class AsmRulesPass(Pass):
    """Dead-rule and update-conflict detection over the state sweep."""

    name = "asm-rules"

    def run(self, ctx: LintContext):
        machine = ctx.machine
        if machine is None:
            return None
        cap = ctx.config.asm_state_cap
        snapshots, capped = sweep_states(machine, cap)

        saved = machine.snapshot()
        ever_enabled: set[str] = set()
        conflicts_seen: set[tuple] = set()
        broken_effects: set[str] = set()
        for snapshot in snapshots:
            machine.restore(snapshot)
            actions = machine.enabled_actions()
            updates = []
            for action in actions:
                ever_enabled.add(action.rule.name)
                machine.restore(snapshot)
                try:
                    updates.append((action, machine.compute_updates(action)))
                except AsmError as exc:
                    if action.rule.name not in broken_effects:
                        broken_effects.add(action.rule.name)
                        ctx.emit(
                            "asm-conflicting-updates", ERROR,
                            f"{machine.name}.{action.rule.name}",
                            f"action {action.label} cannot compute a "
                            f"consistent update set: {exc}",
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
        machine.restore(saved)

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
