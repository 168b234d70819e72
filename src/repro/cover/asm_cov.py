"""ASM-level coverage: rule firings and state predicates.

The ASM model packs its behaviour into one rule per clock edge, so rule
coverage alone saturates after two steps; what distinguishes a good
exploration or test suite is which *states* it drives the pipelines
through.  :class:`AsmCoverage` therefore records two point families via
the :attr:`~repro.asm.machine.AsmMachine.fire_observers` hook:

* ``asm.rule.<machine>.<rule>`` -- every registered rule, hit once per
  firing (goal: fire at least once);
* ``asm.pred.<machine>.<name>`` -- named boolean predicates over the
  post-firing state, hit on every step where they hold.

:func:`la1_state_predicates` builds the LA-1 predicate set: per-bank
read-pipeline stages (``req`` / ``fetch`` / ``out0`` / ``out1``),
write-port stages (``sel`` / ``data``), the commit strobe, and the
concurrency predicates (read+write in flight at once, the LA-1 selling
point) -- the states the paper's guided exploration is designed to
reach.  These give coverage-driven test generation
(:mod:`repro.cover.testgen`) a gradient to climb;
:func:`build_la1_testgen_model` pairs them with the machine they read.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from ..asm.machine import Action, AsmMachine
from ..core.asm_model import La1AsmConfig, build_la1_asm
from .db import CoverageDB

__all__ = ["AsmCoverage", "build_la1_testgen_model", "la1_state_predicates"]

#: predicate signature: ``fn(state) -> bool`` over the post-firing state
Predicate = Callable[[dict], bool]


def la1_state_predicates(banks: int) -> dict[str, Predicate]:
    """The LA-1 predicate set over :func:`~repro.core.asm_model.build_la1_asm`
    state for a ``banks``-bank machine."""

    def rp_stage(b: int, stage: str) -> Predicate:
        return lambda s: s[f"rp{b}"][0] == stage

    def wp_stage(b: int, stage: str) -> Predicate:
        return lambda s: s[f"wp{b}"][0] == stage

    predicates: dict[str, Predicate] = {}
    for b in range(banks):
        predicates[f"rp{b}_req"] = rp_stage(b, "req")
        predicates[f"rp{b}_fetch"] = rp_stage(b, "fetch")
        predicates[f"rp{b}_out0"] = rp_stage(b, "out0")
        predicates[f"rp{b}_out1"] = rp_stage(b, "out1")
        predicates[f"wp{b}_sel"] = wp_stage(b, "sel")
        predicates[f"wp{b}_data"] = wp_stage(b, "data")
        predicates[f"wcommit{b}"] = (
            lambda s, b=b: bool(s[f"wcommit{b}"]))

    def any_read(s: dict) -> bool:
        return any(s[f"rp{b}"][0] != "idle" for b in range(banks))

    def any_write(s: dict) -> bool:
        return any(s[f"wp{b}"][0] != "idle" for b in range(banks))

    predicates["any_read"] = any_read
    predicates["any_write"] = any_write
    predicates["read_write_concurrent"] = (
        lambda s: any_read(s) and any_write(s))
    return predicates


def build_la1_testgen_model(banks: int = 2):
    """The ASM testgen vehicle: the ``banks``-bank LA-1 machine and its
    :func:`la1_state_predicates`, as
    :func:`~repro.cover.testgen.coverage_driven_suite` takes them."""
    machine = build_la1_asm(La1AsmConfig(banks=banks))
    return machine, la1_state_predicates(banks)


class AsmCoverage:
    """Rule-fired + state-predicate coverage for one :class:`AsmMachine`.

    All rules and predicates are declared up front, so un-fired rules
    and never-reached predicates show as holes.  Attaches to the
    machine's fire-observer list; :meth:`detach` releases it (e.g.
    between the golden and perturbed runs of a fault campaign).
    """

    def __init__(self, machine: AsmMachine,
                 predicates: Optional[Mapping[str, Predicate]] = None,
                 namespace: str = "asm"):
        self.machine = machine
        self.namespace = namespace
        self.predicates = dict(predicates or {})
        self.rule_hits = {rule.name: 0 for rule in machine.rules}
        self.pred_hits = {name: 0 for name in self.predicates}
        self.steps = 0
        self._attached = False
        self.attach()

    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Start observing rule firings (idempotent)."""
        if self._attached:
            return
        self.machine.fire_observers.append(self._on_fire)
        self._attached = True

    def detach(self) -> None:
        """Stop observing (accumulated hits are kept for harvest)."""
        if not self._attached:
            return
        self.machine.fire_observers.remove(self._on_fire)
        self._attached = False

    def _on_fire(self, machine: AsmMachine, action: Action) -> None:
        self.steps += 1
        self.rule_hits[action.rule.name] = (
            self.rule_hits.get(action.rule.name, 0) + 1)
        state = machine.state
        for name, predicate in self.predicates.items():
            if predicate(state):
                self.pred_hits[name] += 1

    # ------------------------------------------------------------------
    def harvest(self, db: Optional[CoverageDB] = None) -> CoverageDB:
        """Drain accumulated hits into ``db`` under
        ``<ns>.rule.<machine>.<rule>`` / ``<ns>.pred.<machine>.<name>``."""
        db = db if db is not None else CoverageDB()
        machine_name = self.machine.name
        for rule_name, count in self.rule_hits.items():
            key = f"{self.namespace}.rule.{machine_name}.{rule_name}"
            db.declare(key)
            if count:
                db.hit(key, count)
                self.rule_hits[rule_name] = 0
        for pred_name, count in self.pred_hits.items():
            key = f"{self.namespace}.pred.{machine_name}.{pred_name}"
            db.declare(key)
            if count:
                db.hit(key, count)
                self.pred_hits[pred_name] = 0
        return db

    def coverage(self) -> float:
        """Fraction of rules + predicates hit so far (no drain)."""
        total = len(self.rule_hits) + len(self.pred_hits)
        hit = sum(1 for n in self.rule_hits.values() if n) + sum(
            1 for n in self.pred_hits.values() if n)
        return hit / total if total else 1.0

    def __repr__(self):
        return (
            f"AsmCoverage({self.machine.name}, steps={self.steps}, "
            f"{len(self.predicates)} predicates)"
        )
