"""Lane-parallel LA-1 *transaction-level* stimulus walks for testgen.

:class:`~repro.cover.rtl_walk.RtlWalkModel` scores raw free-input
vectors; this module is its transaction-level sibling: a candidate walk
is ``walk_steps`` protocol-legal LA-1 transactions driven through the
ordinary :class:`~repro.core.rtl_testbench.RtlHost`.  All candidates of
a round share one *command schedule* (which command goes to which bank,
in which order -- drawn from the model seed via
:func:`~repro.core.traffic.traffic_schedule`) and differ only in their
datapath fields (addresses, write data -- re-drawn per candidate from
its walk seed via :func:`~repro.core.traffic.pattern_values`).  That is
exactly the control-invariance PPSFP pattern packing rests on, and it
is what lets ``walk_dbs`` pack up to ``lanes`` candidates into ONE
bit-parallel simulation pass: per-lane address and data words in
(:class:`~repro.core.rtl_testbench.LaneVec`), per-lane toggle masks and
monitor fire words out.

A walk's coverage DB merges three sources: per-lane toggle coverage
(:class:`~repro.cover.rtl_cov.ToggleCollector`), per-lane OVL fire
points, and the LA-1 functional covergroup
(:mod:`repro.cover.functional`) -- the latter samples only
``(kind, bank)`` at queue time, so it is schedule-shared: computed once
per ``walk_steps`` from a replay against a null host and merged into
every walk DB unchanged.

Determinism contract: a walk's DB is a function of ``(walk_seed,
walk_steps)`` alone -- independent of lane count, lane position and
pass chunking (``tests/test_cover_traffic_walk.py`` pins lane-N walk
DBs bit-identical to scalar runs).  Like :class:`RtlWalkModel` it is a
:class:`~repro.cover.rtl_walk.LaneWalkModel` and supplies only its
stimulus, so :func:`repro.cover.testgen.coverage_driven_suite` drives
it through the same two-method walk protocol -- including sharded over
forked workers, which walk the caller's model (``jobs > 1``).
"""

from __future__ import annotations

from typing import List

from ..core.rtl_testbench import LaneVec, RtlHost
from ..core.spec import La1Config
from ..core.traffic import pattern_values, traffic_schedule
from ..par.seeds import derive_seed
from ..rtl import RtlSimulator
from .db import CoverageDB
from .rtl_walk import LaneWalkModel

__all__ = ["La1TrafficModel"]


class _NullHost:
    """Transaction sink for the schedule-shared functional replay."""

    def __init__(self, config: La1Config):
        self.config = config

    def read(self, bank: int, addr) -> None:
        pass

    def write(self, bank: int, addr, word, byte_enables=None) -> None:
        pass


class La1TrafficModel(LaneWalkModel):
    """The OVL-instrumented LA-1 top as a transaction-walk vehicle.

    Parameters
    ----------
    banks:
        LA-1 bank count of the model.
    seed:
        Model seed the shared command schedule derives from (every
        candidate of a round replays it; walk seeds vary only the
        datapath fields).
    addr_bits:
        Address width (4 matches the campaign scale).

    The traffic is protocol-legal host discipline, so -- unlike the
    free-input walks -- bus-conflict detection stays on; a lane that
    could conflict would be a real finding, not stimulus noise.
    """

    namespace = "rtl.traffic"
    detect_bus_conflicts = True

    def __init__(self, banks: int = 2, seed: int = 7, addr_bits: int = 4):
        super().__init__(banks, addr_bits)
        self.seed = seed
        self._schedules: dict = {}
        self._functional: dict = {}

    # -- the shared round structure ------------------------------------
    def _schedule(self, walk_steps: int):
        """The command schedule every candidate of a ``walk_steps``
        round shares (cached; derived from the model seed so it is
        identical in every worker process)."""
        schedule = self._schedules.get(walk_steps)
        if schedule is None:
            schedule = traffic_schedule(
                self.config, walk_steps,
                derive_seed(self.seed, "traffic_walk", walk_steps))
            self._schedules[walk_steps] = schedule
        return schedule

    def _functional_db(self, walk_steps: int) -> CoverageDB:
        """The LA-1 functional coverage of the shared schedule.

        The covergroup samples only ``(kind, bank)`` at queue time, so
        it is identical for every candidate: one replay against a null
        host per ``walk_steps`` value, merged into each walk DB."""
        db = self._functional.get(walk_steps)
        if db is None:
            from .functional import La1FunctionalCoverage

            host = _NullHost(self.config)
            functional = La1FunctionalCoverage(host)
            for is_read, bank, addr, word in self._schedule(walk_steps):
                if is_read:
                    host.read(bank, addr)
                else:
                    host.write(bank, addr, word)
            functional.detach()
            db = functional.harvest()
            self._functional[walk_steps] = db
        return db

    def _cycles(self, walk_steps: int) -> int:
        """Fixed drain budget: lane-count independent by construction
        (a data-dependent ``run_until_idle`` could run different cycle
        counts per pass and break the chunking-independence contract).
        Reads and writes both retire well within 6 periods."""
        return walk_steps * 6 + 16

    # -- one pass ------------------------------------------------------
    def _drive(self, sim: RtlSimulator, seeds: List[int], walk_steps: int,
               lanes: int) -> CoverageDB:
        host = RtlHost(sim, self.config)
        schedule = self._schedule(walk_steps)
        values = [pattern_values(self.config, schedule, seed)
                  for seed in seeds]
        pad = lanes - len(seeds)
        for t, (is_read, bank, __a, __w) in enumerate(schedule):
            if lanes > 1:
                addr = [v[t][0] for v in values]
                addr = LaneVec(addr + addr[-1:] * pad)
                if is_read:
                    host.read(bank, addr)
                else:
                    word = [v[t][1] for v in values]
                    host.write(bank, addr, LaneVec(word + word[-1:] * pad))
            elif is_read:
                host.read(bank, values[0][t][0])
            else:
                host.write(bank, values[0][t][0], values[0][t][1])
        host.run_cycles(self._cycles(walk_steps))
        return self._functional_db(walk_steps)

    def __repr__(self):
        return (f"La1TrafficModel(banks={self.config.banks}, "
                f"seed={self.seed})")
