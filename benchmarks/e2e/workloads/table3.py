"""``table3``: the paper's Table 3, SystemC + monitors vs RTL + OVL.

One task drives one seeded 2000-cycle traffic plan through four
simulators of the 4-bank LA-1 (``beat_bits=16, addr_bits=3``): the
SystemC model with the PSL monitors, and the RTL with OVL checkers on
the ``interp``, ``compiled`` and ``bitpar`` backends.  On ``bitpar``,
lane *p* of 64 drives stimulus pattern *p* of the plan
(:func:`repro.core.traffic.schedule_values`).  The models are built and
compiled once, in set-up, so a task is pure kernel and step cost.
"""

from __future__ import annotations

import time

from repro.abv import summarize
from repro.core import (
    La1Config,
    RtlHost,
    attach_read_mode_monitors,
    build_la1_system,
    build_la1_top_with_ovl,
)
from repro.core.rtl_testbench import LaneVec
from repro.core.traffic import schedule_values, traffic_schedule
from repro.rtl import RtlSimulator, elaborate

from . import Workload as Base
from . import median

TASK_S = 2.1
CONFIG = La1Config(banks=4, beat_bits=16, addr_bits=3)
CYCLES = 2000
LANES = 64
BACKENDS = ("interp", "compiled", "bitpar")


def _log(results) -> tuple:
    return tuple((r.bank, r.addr, r.word, tuple(r.beats), tuple(r.parities))
                 for r in results)


class Workload(Base):
    def __init__(self, seed: int, tracer):
        super().__init__(tracer)
        design = elaborate(build_la1_top_with_ovl(CONFIG))
        self.sims = {backend: RtlSimulator(design, backend=backend,
                                           lanes=LANES)
                     for backend in BACKENDS}
        self.problems: list[str] = []

    def _run_sysc(self, schedule) -> None:
        sim, clocks, device, host = build_la1_system(CONFIG)
        monitors = attach_read_mode_monitors(sim, device, clocks)
        for is_read, bank, addr, word in schedule:
            if is_read:
                host.read(bank, addr)
            else:
                host.write(bank, addr, word)
        sim.initialize()
        start = time.perf_counter()
        sim.run(2 * CYCLES)  # two time units per clock cycle
        self.record("sysc", time.perf_counter() - start)
        self.attempted += 1
        if not summarize(monitors).finish().passed:
            self.failed += 1
            self.problems.append("SystemC PSL monitors fired")

    def _run_rtl(self, backend: str, schedule, values) -> tuple:
        sim = self.sims[backend]
        sim.reset()
        host = RtlHost(sim, CONFIG)
        for t, (is_read, bank, addr, word) in enumerate(schedule):
            if backend == "bitpar":
                addr = LaneVec([v[t][0] for v in values])
                if not is_read:
                    word = LaneVec([v[t][1] for v in values])
            if is_read:
                host.read(bank, addr)
            else:
                host.write(bank, addr, word)
        start = time.perf_counter()
        host.run_cycles(CYCLES)
        self.record(backend, time.perf_counter() - start)
        self.attempted += 1
        lanes_failing = []
        if backend == "bitpar":
            # one pass with every lane carrying a live pattern
            sim.note_pass_occupancy(LANES)
            lanes_failing = [lane for lane in range(LANES)
                             if sim.lane_failure_names(lane)]
        if not sim.ok or lanes_failing:
            self.failed += 1
            self.problems.append(
                f"{backend}: OVL failures {sim.failures[:3]}, failing "
                f"lanes {lanes_failing[:5]}")
        return _log(host.results)

    def task(self, seed: int) -> None:
        start = time.perf_counter()
        schedule = traffic_schedule(CONFIG, CYCLES // 8, seed)
        values = [schedule_values(CONFIG, schedule, seed, p)
                  for p in range(LANES)]
        self._run_sysc(schedule)
        logs = {backend: self._run_rtl(backend, schedule, values)
                for backend in BACKENDS}
        if len(set(logs.values())) != 1:
            self.failed += 1
            self.problems.append(
                f"seed {seed}: backend logs differ "
                f"({ {b: len(log) for b, log in logs.items()} } reads)")
        self.record("task", time.perf_counter() - start)

    def check(self):
        return [("RTL backend logs agree and every monitor is clean",
                 not self.problems, "; ".join(self.problems[:3]))]

    def metrics(self, scales) -> dict:
        per_cycle = {name: median(self.scaled(name, scales)) / CYCLES
                     for name in ("sysc",) + BACKENDS}
        return {
            "sc_cycles_per_s": 1.0 / per_cycle["sysc"],
            "ovl_cycles_per_s": 1.0 / per_cycle["interp"],
            "compiled_cycles_per_s": 1.0 / per_cycle["compiled"],
            "bitpar_lane_cycles_per_s": LANES / per_cycle["bitpar"],
            "table3_ratio": per_cycle["interp"] / per_cycle["sysc"],
        }
