"""Assertion coverage: activation / fire / vacuity counts at runtime.

The lint subsystem (:mod:`repro.lint.psl_rules`) decides *statically*
whether a property can ever activate; this module answers the runtime
question the paper's methodology needs next: did this simulation
actually exercise the assertion?  A property that "passed" with zero
antecedent activations is a vacuous pass -- no stronger evidence than
not running the simulation at all.

Two collectors share the ``assert.*`` namespace:

* :class:`PslAssertionCoverage` counts
  :class:`~repro.abv.monitor.AssertionMonitor` samples.  Activation
  conditions are extracted from the property AST the same way the lint
  vacuity pass walks it -- implication guards, suffix-implication and
  ``never`` first-cycle SERE letters -- filtered through the BDD
  :func:`~repro.lint.psl_rules.satisfiable` check; a property with no
  antecedent (e.g. a bare invariant) is always-active.
* :class:`OvlAssertionCoverage` observes an OVL-instrumented
  :class:`~repro.rtl.simulator.RtlSimulator`.  Each checker instance's
  activation *port* net (``antecedent`` / ``start`` / ``ev0`` / ``req``
  / ``valid``) is probed at the monitor's clock edge; checkers without
  such a port (``assert_always`` / ``assert_never``) sample every edge.

Per assertion three points are harvested: ``<name>.activated`` with a
goal of 1 (coverage hole when never activated), and the pure counters
``<name>.fired`` and ``<name>.vacuous`` with goal 0 (informational --
they never lower a coverage percentage).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..abv.monitor import AssertionMonitor
from ..lint.psl_rules import satisfiable
from ..psl.ast import (
    Abort,
    Always,
    BoolExpr,
    Never,
    NextP,
    PropAnd,
    PropImplication,
    Property,
    SuffixImpl,
)
from ..psl.monitor import Verdict
from ..psl.sere import compile_sere
from ..rtl.simulator import RtlSimulator
from .db import CoverageDB

__all__ = [
    "PslAssertionCoverage",
    "OvlAssertionCoverage",
    "activation_guards",
    "OVL_ACTIVATION_PORTS",
]


def activation_guards(prop: Property) -> tuple[list[BoolExpr], bool]:
    """Extract a property's first-cycle activation conditions.

    Returns ``(guards, always_active)``: the property counts as
    *activated* on a sample where any guard evaluates true, or on every
    sample when ``always_active`` (the walk reached a leaf obligation
    with no antecedent).  The walk mirrors the lint vacuity pass:
    implication guards and the satisfiable initial-transition letters of
    antecedent SEREs; temporal wrappers are looked through.
    """
    guards: list[BoolExpr] = []
    always = False

    def first_letters(sere) -> tuple[list[BoolExpr], bool]:
        nfa = compile_sere(sere)
        letters = [
            guard
            for src, guard, __ in nfa.transitions
            if src in nfa.initial and satisfiable(guard)
        ]
        return letters, nfa.accepts_empty

    def walk(node: Property) -> None:
        nonlocal always
        if isinstance(node, (Always, NextP, Abort)):
            walk(node.p)
        elif isinstance(node, PropAnd):
            for part in node.parts:
                walk(part)
        elif isinstance(node, PropImplication):
            if satisfiable(node.guard):
                guards.append(node.guard)
        elif isinstance(node, SuffixImpl):
            letters, empty = first_letters(node.sere)
            if empty:
                always = True
            guards.extend(letters)
        elif isinstance(node, Never):
            letters, empty = first_letters(node.sere)
            if empty:
                always = True
            guards.extend(letters)
        else:
            # leaf obligation (PropBool, Until, Before, ...): checked
            # unconditionally from the first cycle
            always = True

    walk(prop)
    return guards, always


class PslAssertionCoverage:
    """Activation/fire/vacuity coverage over ABV assertion monitors.

    Counted rather than observed: each monitor's sampler counts the
    tuples of source values it reads (:meth:`AssertionMonitor.value_counts`),
    so a monitor's activations between :meth:`attach` and :meth:`detach`
    are the samples of the tuples on which one of its guards holds, each
    distinct tuple evaluated once.  Harvest is a snapshot of the run so
    far (harvest once per collection run).
    """

    def __init__(self, monitors: Sequence[AssertionMonitor],
                 namespace: str = "assert.psl"):
        self.namespace = namespace
        self.monitors = list(monitors)
        self._activations = {m.name: 0 for m in self.monitors}
        self._guards = [activation_guards(m.prop) for m in self.monitors]
        # per monitor: activated on a tuple of source values?
        self._active: list[dict[tuple, bool]] = [{} for __ in self.monitors]
        # per monitor: the value counts folded into the activations so
        # far; None while detached
        self._folded: Optional[list[dict[tuple, int]]] = None
        self.attach()

    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Count the monitors' samples from now on (idempotent)."""
        if self._folded is None:
            self._folded = [m.value_counts() for m in self.monitors]

    def detach(self) -> None:
        """Stop counting (counts are kept)."""
        if self._folded is not None:
            self._fold()
            self._folded = None

    @property
    def activations(self) -> dict[str, int]:
        """Activated samples per monitor name, up to now."""
        if self._folded is not None:
            self._fold()
        return self._activations

    def _fold(self) -> None:
        """Add the samples taken since the last fold to the activations."""
        for n, monitor in enumerate(self.monitors):
            counts = monitor.value_counts()
            folded = self._folded[n]
            active = self._active[n]
            guards, always = self._guards[n]
            for values, count in counts.items():
                count -= folded.get(values, 0)
                if not count:
                    continue
                hit = active.get(values)
                if hit is None:
                    valuation = monitor.valuation(values)
                    hit = active[values] = always or any(
                        g.evaluate(valuation) for g in guards)
                if hit:
                    self._activations[monitor.name] += count
            self._folded[n] = counts

    # ------------------------------------------------------------------
    def harvest(self, db: Optional[CoverageDB] = None) -> CoverageDB:
        """Snapshot activation/fire/vacuity points into ``db``."""
        db = db if db is not None else CoverageDB()
        activations = self.activations
        for monitor in self.monitors:
            base = f"{self.namespace}.{monitor.name}"
            db.declare(f"{base}.activated")
            db.declare(f"{base}.fired", goal=0)
            db.declare(f"{base}.vacuous", goal=0)
            count = activations[monitor.name]
            if count:
                db.hit(f"{base}.activated", count)
            fired = monitor.verdict is Verdict.FAILS
            if fired:
                db.hit(f"{base}.fired", goal=0)
            if not fired and count == 0 and monitor.samples:
                # "passed" without a single activation: vacuous evidence
                db.hit(f"{base}.vacuous", goal=0)
        return db

    def __repr__(self):
        return (
            f"PslAssertionCoverage({len(self.monitors)} monitors, "
            f"activations={sum(self.activations.values())})"
        )


#: checker input ports whose assertion counts as "activated" when high
#: (in probe order); checkers exposing none sample unconditionally
OVL_ACTIVATION_PORTS = ("antecedent", "start", "ev0", "req", "valid")


class OvlAssertionCoverage:
    """Activation/fire/vacuity coverage over an OVL-instrumented
    :class:`RtlSimulator` (either backend).

    For every :class:`~repro.rtl.netlist.FlatMonitor` the checker
    instance nets live under the monitor's qualified name
    (``<parent>.<inst>.<port>``); the first port of
    :data:`OVL_ACTIVATION_PORTS` found there is the activation strobe,
    sampled after every edge of the monitor's clock domain.
    """

    def __init__(self, sim: RtlSimulator, namespace: str = "assert.ovl"):
        self.sim = sim
        self.namespace = namespace
        nets = sim.design.nets
        bitpar = sim.backend == "bitpar"
        # activation strobes are read on the golden lane (bit 0 of the
        # bit-sliced word) when the backend is lane-parallel; -1 is the
        # identity mask for the scalar backends' whole-value slots
        self._act_mask = 1 if bitpar else -1
        # (monitor, activation slot or None for always-active)
        self._probes = []
        for monitor in sim.design.monitors:
            slot = None
            for port in OVL_ACTIVATION_PORTS:
                flat = nets.get(f"{monitor.name}.{port}")
                if flat is not None:
                    slot = (sim._bitpar.bit_slots[flat.path][0] if bitpar
                            else flat.slot)
                    break
            self._probes.append((monitor, slot))
        self.activations = {m.name: 0 for m, __ in self._probes}
        self.edges_sampled = 0
        self._attached = False
        self.attach()

    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Start probing activation nets (idempotent)."""
        if self._attached:
            return
        self.sim.add_edge_hook(self._on_edge)
        self.sim._register_cover_collector(self, len(self._probes))
        self._attached = True

    def detach(self) -> None:
        """Stop probing (accumulated counts are kept)."""
        if not self._attached:
            return
        self.sim.remove_edge_hook(self._on_edge)
        self.sim._unregister_cover_collector(self, len(self._probes))
        self._attached = False

    def _on_edge(self, edge: str, sim: RtlSimulator) -> None:
        self.edges_sampled += 1
        sim._cover_probe_calls += 1
        v = sim._v
        mask = self._act_mask
        activations = self.activations
        for monitor, slot in self._probes:
            if monitor.clock != edge:
                continue
            if slot is None or v[slot] & mask:
                activations[monitor.name] += 1

    # ------------------------------------------------------------------
    def harvest(self, db: Optional[CoverageDB] = None) -> CoverageDB:
        """Snapshot activation/fire/vacuity points into ``db``."""
        db = db if db is not None else CoverageDB()
        fired_counts: dict[str, int] = {}
        for record in self.sim.firings:
            fired_counts[record.name] = fired_counts.get(record.name, 0) + 1
        for monitor, __ in self._probes:
            base = f"{self.namespace}.{monitor.name}"
            db.declare(f"{base}.activated")
            db.declare(f"{base}.fired", goal=0)
            db.declare(f"{base}.vacuous", goal=0)
            count = self.activations[monitor.name]
            if count:
                db.hit(f"{base}.activated", count)
            fired = fired_counts.get(monitor.name, 0)
            if fired:
                db.hit(f"{base}.fired", fired, goal=0)
            if not fired and count == 0 and self.edges_sampled:
                db.hit(f"{base}.vacuous", goal=0)
        return db

    def __repr__(self):
        return (
            f"OvlAssertionCoverage({len(self._probes)} monitors, "
            f"edges={self.edges_sampled})"
        )
