"""Lane-parallel RTL stimulus walks for coverage-driven test generation.

The testgen loop in :mod:`repro.cover.testgen` drives any vehicle that
speaks its two-method walk protocol: ``walk_case(walk_seed,
walk_steps)`` names a walk, and ``walk_dbs(walk_seeds, walk_steps,
lanes)`` returns each walk's coverage DB in seed order.
:class:`LaneWalkModel` implements both over the OVL-instrumented LA-1
top, and :class:`RtlWalkModel` is its free-input vehicle: a candidate
"walk" is ``walk_steps`` clock periods of seeded random values on the
free testbench inputs, scored by the toggle (and OVL-fire) coverage it
adds.  What makes RTL walks cheap is the ``"bitpar"`` backend:
``walk_dbs`` packs up to ``lanes`` walks into the lanes of ONE
simulation pass -- per-lane stimulus words in, per-lane toggle masks
out -- so a 64-candidate scoring round costs roughly one
compiled-backend run instead of 64.

Determinism contract: each walk's stimulus comes from its own
``random.Random(walk_seed)`` stream, so a walk's coverage DB is a
function of ``(walk_seed, walk_steps)`` alone -- independent of the lane
count, of which lane it lands in, and of how a round is chunked into
passes.  ``tests/test_cover_rtl_walk.py`` pins lane-N walk DBs
bit-identical to scalar one-walk-at-a-time runs.
"""

from __future__ import annotations

import random
from typing import List

from ..core.rtl_model import la1_netlist
from ..core.spec import La1Config
from ..rtl import RtlSimulator
from .db import CoverageDB
from .rtl_cov import ToggleCollector

__all__ = ["WalkCase", "LaneWalkModel", "RtlWalkModel"]


class WalkCase:
    """One selected RTL walk, reproducible from its seed."""

    __slots__ = ("walk_seed", "walk_steps")

    def __init__(self, walk_seed: int, walk_steps: int):
        self.walk_seed = walk_seed
        self.walk_steps = walk_steps

    def __eq__(self, other):
        return (isinstance(other, WalkCase)
                and other.walk_seed == self.walk_seed
                and other.walk_steps == self.walk_steps)

    def __hash__(self):
        return hash((self.walk_seed, self.walk_steps))

    def __repr__(self):
        return f"WalkCase(seed={self.walk_seed}, steps={self.walk_steps})"


class LaneWalkModel:
    """The OVL-instrumented LA-1 top as a lane-parallel walk vehicle.

    A subclass sets ``namespace`` (the key prefix of its toggle points)
    and ``detect_bus_conflicts``, and implements :meth:`_drive`, the
    stimulus of one pass.  This base owns the rest: one simulator and
    toggle collector per lane width (``"bitpar"`` for ``lanes > 1``,
    ``"compiled"`` otherwise), the fold of monitor firings into per-lane
    words, the per-lane DB assembly and the chunking of a seed list
    into passes.  Monitors record (OVL fire points land in the walk DBs)
    with ``stop_on_failure`` off.
    """

    namespace: str
    detect_bus_conflicts: bool

    def __init__(self, banks: int, addr_bits: int):
        self.config = La1Config(banks=banks, beat_bits=16,
                                addr_bits=addr_bits)
        self.design = la1_netlist(self.config, ovl=True)
        self._engines: dict = {}

    def _drive(self, sim: RtlSimulator, seeds: List[int], walk_steps: int,
               lanes: int) -> CoverageDB:
        """Drive one pass from reset, walk ``i`` of ``seeds`` on lane
        ``i`` (unused lanes replay the last real walk: no extra rng
        draws, nothing harvested from them).  Returns the coverage every
        walk of the pass shares, merged into each walk DB."""
        raise NotImplementedError

    def _run_pass(self, seeds: List[int], walk_steps: int,
                  lanes: int) -> List[CoverageDB]:
        """Run ``len(seeds)`` walks (at most ``lanes``) in one pass and
        return their per-walk coverage DBs in seed order."""
        engine = self._engines.get(lanes)
        if engine is None:
            sim = RtlSimulator(
                self.design, backend="bitpar" if lanes > 1 else "compiled",
                lanes=lanes, detect_bus_conflicts=self.detect_bus_conflicts)
            engine = sim, ToggleCollector(sim, namespace=self.namespace)
            self._engines[lanes] = engine
        sim, collector = engine
        sim.reset()
        collector.reset()
        shared = self._drive(sim, seeds, walk_steps, lanes)
        # per-monitor fired lane words (scalar: bit 0 from the records)
        monitors = self.design.monitors
        if lanes > 1:
            fired = [sim.monitor_lane_word(index)
                     for index in range(len(monitors))]
        else:
            names = {record.name for record in sim.firings}
            fired = [int(monitor.name in names) for monitor in monitors]
        dbs = []
        for lane in range(len(seeds)):
            db = collector.harvest(lane=lane)
            for monitor, word in zip(monitors, fired):
                key = f"assert.ovl.{monitor.name}.fired"
                db.declare(key, goal=0)
                if word >> lane & 1:
                    db.hit(key, goal=0)
            dbs.append(db.merge(shared))
        return dbs

    # -- the testgen walk protocol -------------------------------------
    def walk_case(self, walk_seed: int, walk_steps: int) -> WalkCase:
        """The reproducible handle testgen stores in its suite."""
        return WalkCase(walk_seed, walk_steps)

    def walk_dbs(self, walk_seeds: List[int], walk_steps: int,
                 lanes: int) -> List[CoverageDB]:
        """Per-walk coverage DBs in seed order, ``lanes`` walks per
        simulation pass."""
        lanes = max(1, lanes)
        out: List[CoverageDB] = []
        for index in range(0, len(walk_seeds), lanes):
            chunk = walk_seeds[index:index + lanes]
            out.extend(self._run_pass(chunk, walk_steps, lanes))
        return out

    def __repr__(self):
        return f"{type(self).__name__}(banks={self.config.banks})"


class RtlWalkModel(LaneWalkModel):
    """The LA-1 RTL netlist driven through its free inputs.

    Parameters
    ----------
    banks:
        LA-1 bank count of the model.
    addr_bits:
        Address width of the model (4 matches the campaign scale).

    Free-input walks drive raw values (selects, address, write data,
    byte enables) with no protocol discipline, so bus-conflict detection
    is off -- random double-selects are legitimate stimulus here, and
    what they provoke is exactly what toggle/assertion coverage should
    see.
    """

    namespace = "rtl.toggle"
    detect_bus_conflicts = False

    def __init__(self, banks: int = 2, addr_bits: int = 4):
        super().__init__(banks, addr_bits)
        self._stim = sorted(self.design.inputs, key=lambda flat: flat.path)

    def _drive(self, sim: RtlSimulator, seeds: List[int], walk_steps: int,
               lanes: int) -> CoverageDB:
        rngs = [random.Random(seed) for seed in seeds]
        pad = lanes - len(seeds)
        for __ in range(walk_steps):
            for edge in ("K", "K#"):
                for flat in self._stim:
                    width = flat.width
                    if lanes > 1:
                        values = [rng.getrandbits(width) for rng in rngs]
                        sim.set_input_lanes(
                            flat.path, values + values[-1:] * pad)
                    else:
                        sim.set_input(flat.path, rngs[0].getrandbits(width))
                sim.step(edge)
        return CoverageDB()
