"""One-call LA-1 coverage collection across all four methodology levels.

:func:`collect_la1_coverage` runs the paper's verification vehicles with
every :mod:`repro.cover` collector attached and merges the harvests into
one :class:`CoverageDB`:

* **func** -- random host traffic on the kernel-level (SystemC) model
  with :class:`~repro.cover.functional.La1FunctionalCoverage` wrapping
  the transactor;
* **assert.psl** -- the read-mode PSL monitors of the same run, under
  :class:`~repro.cover.assertion.PslAssertionCoverage`;
* **rtl** + **assert.ovl** -- the same traffic on the OVL-instrumented
  RTL with :class:`~repro.cover.rtl_cov.ToggleCollector` and
  :class:`~repro.cover.assertion.OvlAssertionCoverage` (either backend);
* **asm** -- a seeded random walk of the ASM model under
  :class:`~repro.cover.asm_cov.AsmCoverage` with the LA-1 state
  predicates.

This is the engine behind ``python -m repro.cover``; the smoke
invariant (two seeds merge losslessly) runs over exactly these
collections.  The kernel-level and RTL runs are the flow's own ABV and
OVL runs (:func:`repro.core.flow.run_abv` and
:func:`~repro.core.flow.run_ovl`), so the flow's coverage stage collects
the same points.
"""

from __future__ import annotations

import random
from typing import Optional

from ..asm.machine import AsmMachine
from ..core.asm_model import La1AsmConfig, build_la1_asm
from ..core.flow import la1_config, run_abv, run_ovl
from ..core.rtl_model import la1_netlist
from ..core.traffic import queue_traffic
from ..rtl import RtlSimulator
from .asm_cov import AsmCoverage, la1_state_predicates
from .db import CoverageDB

__all__ = [
    "random_traffic",
    "random_asm_walk",
    "collect_sysc_coverage",
    "collect_rtl_coverage",
    "collect_asm_coverage",
    "collect_la1_coverage",
]


#: queue ``count`` seeded random read/write transactions onto a host
#: (the stream the flow's ABV and OVL stages drive)
random_traffic = queue_traffic


def random_asm_walk(machine: AsmMachine, steps: int, seed: int) -> int:
    """Fire ``steps`` uniformly chosen enabled actions from the current
    state; returns the number actually fired (deadlock stops early)."""
    rng = random.Random(seed)
    fired = 0
    for __ in range(steps):
        enabled = machine.enabled_actions()
        if not enabled:
            break
        machine.fire(rng.choice(enabled))
        fired += 1
    return fired


def collect_sysc_coverage(banks: int = 2, traffic: int = 24,
                          seed: int = 2004,
                          db: Optional[CoverageDB] = None) -> CoverageDB:
    """Kernel-level run: functional (``func.*``) + PSL assertion
    (``assert.psl.*``) coverage -- the flow's ABV run."""
    db = db if db is not None else CoverageDB()
    run_abv(la1_config(banks), traffic, seed, db)
    return db


def collect_rtl_coverage(banks: int = 2, traffic: int = 24,
                         seed: int = 2004, backend: str = "compiled",
                         db: Optional[CoverageDB] = None,
                         lanes: int = 1) -> CoverageDB:
    """RTL run with OVL checkers loaded: toggle (``rtl.toggle.*``) +
    OVL assertion (``assert.ovl.*``) coverage -- the flow's OVL run.

    ``lanes > 1`` switches to the bit-parallel backend (``backend`` is
    then ignored) with the traffic broadcast into every lane and lane 0
    harvested -- the collected DB is bit-identical to a scalar run, which
    is exactly what lets campaigns and walk scoring swap the backends
    freely underneath the coverage arithmetic."""
    db = db if db is not None else CoverageDB()
    config = la1_config(banks)
    design = la1_netlist(config, ovl=True)
    if lanes > 1:
        sim = RtlSimulator(design, backend="bitpar", lanes=lanes)
    else:
        sim = RtlSimulator(design, backend=backend)
    run_ovl(sim, config, traffic, seed, db)
    return db


def collect_asm_coverage(banks: int = 2, steps: int = 64, seed: int = 2004,
                         db: Optional[CoverageDB] = None) -> CoverageDB:
    """ASM random walk: rule + state-predicate (``asm.*``) coverage."""
    db = db if db is not None else CoverageDB()
    machine = build_la1_asm(La1AsmConfig(banks=banks))
    collector = AsmCoverage(machine, la1_state_predicates(banks))
    random_asm_walk(machine, steps, seed)
    collector.detach()
    collector.harvest(db)
    return db


def collect_la1_coverage(banks: int = 2, traffic: int = 24,
                         seed: int = 2004, backend: str = "compiled",
                         asm_steps: int = 64,
                         lanes: int = 1) -> CoverageDB:
    """Collect from all four levels into one merged DB.  ``lanes``
    applies to the RTL stage only (the SystemC and ASM vehicles have no
    lane-parallel encoding -- the documented degradation rule)."""
    db = CoverageDB(meta={
        "design": f"la1_{banks}banks",
        "banks": banks,
        "traffic": traffic,
        "seed": seed,
        "backend": backend,
    })
    collect_sysc_coverage(banks, traffic, seed, db=db)
    collect_rtl_coverage(banks, traffic, seed, backend, db=db, lanes=lanes)
    collect_asm_coverage(banks, asm_steps, seed, db=db)
    return db
