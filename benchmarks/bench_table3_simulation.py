"""Table 3 -- Simulation Results: SystemC + C# monitors vs Verilog + OVL.

The paper "compares the average of execution time per cycle for the
assertion based verification of [the] SystemC design with assertions in
C# and the Verilog design with assertions in OVL ... the SystemC
simulation runs always at least 20 times faster [and] the larger is the
system, the faster is the SystemC simulation in comparison to Verilog."

This benchmark drives identical random read/write traffic through

* the kernel-level (SystemC) LA-1 model with the external PSL assertion
  monitors attached, and
* the bit-level (Verilog) RTL model with the OVL checker modules loaded,

and reports the average execution time per clock cycle for each, plus
the ratio delta_OVL / delta_SC.  Each point is the median of
``REPEATS`` runs, so one host stall cannot move it.

The RTL side deliberately runs the ``"interp"`` backend: the paper's
right-hand column is a *commercial Verilog simulator* evaluating the
netlist gate by gate, and the tree-walking interpreter is our stand-in
for that cost model.  The compiled backend (``repro.rtl.compile``)
erases the gap entirely -- it beats even the kernel-level model on this
workload -- so it gets its own measurement below
(``test_table3_rtl_backend_speedup``), recorded to ``BENCH_rtl_sim.json``
as the machine-readable perf trajectory.
"""

import gc
import random
import statistics
import time

import pytest

from conftest import FULL, record_bench, record_row
from repro.abv import summarize
from repro.core import (
    La1Config,
    RtlHost,
    attach_read_mode_monitors,
    build_la1_system,
    build_la1_top_with_ovl,
)
from repro.rtl import RtlSimulator, elaborate

BANKS = [1, 2, 4, 8]
CYCLES = 600 if FULL else 250
TRAFFIC_DENSITY = 0.5
#: timed runs per Table 3 point; the point is their median
REPEATS = 3

_ratios: dict[int, tuple[float, float]] = {}


def _traffic_plan(banks: int, cycles: int, seed: int = 2004):
    rng = random.Random(seed)
    plan = []
    for __ in range(cycles // 8):
        bank = rng.randrange(banks)
        addr = rng.randrange(8)
        if rng.random() < TRAFFIC_DENSITY:
            plan.append(("r", bank, addr, 0))
        else:
            plan.append(("w", bank, addr, rng.getrandbits(32)))
    return plan


def _config(banks: int) -> La1Config:
    return La1Config(banks=banks, beat_bits=16, addr_bits=3)


def _run_sysc(banks: int) -> float:
    """Seconds per clock cycle for the kernel model + monitors."""
    config = _config(banks)
    sim, clocks, device, host = build_la1_system(config)
    monitors = attach_read_mode_monitors(sim, device, clocks)
    for op, bank, addr, word in _traffic_plan(banks, CYCLES):
        if op == "r":
            host.read(bank, addr)
        else:
            host.write(bank, addr, word)
    sim.initialize()
    gc.collect()  # no collector pause from the set-up inside the timing
    start = time.perf_counter()
    sim.run(2 * CYCLES)  # two time units per clock cycle
    elapsed = time.perf_counter() - start
    report = summarize(monitors).finish()
    assert report.passed, report.render()
    return elapsed / CYCLES


def _run_rtl_ovl(banks: int, backend: str = "interp") -> float:
    """Seconds per clock cycle for the RTL model + OVL checkers."""
    config = _config(banks)
    sim = RtlSimulator(elaborate(build_la1_top_with_ovl(config)),
                       backend=backend)
    host = RtlHost(sim, config)
    for op, bank, addr, word in _traffic_plan(banks, CYCLES):
        if op == "r":
            host.read(bank, addr)
        else:
            host.write(bank, addr, word)
    gc.collect()
    start = time.perf_counter()
    host.run_cycles(CYCLES)
    elapsed = time.perf_counter() - start
    assert sim.ok, sim.failures[:3]
    return elapsed / CYCLES


@pytest.mark.parametrize("banks", BANKS)
def test_table3_simulation_per_cycle(benchmark, banks):
    box = {}

    def run():
        box["sc"] = statistics.median(
            _run_sysc(banks) for __ in range(REPEATS))
        box["ovl"] = statistics.median(
            _run_rtl_ovl(banks) for __ in range(REPEATS))

    benchmark.pedantic(run, rounds=1, iterations=1)
    delta_sc, delta_ovl = box["sc"], box["ovl"]
    ratio = delta_ovl / delta_sc
    _ratios[banks] = (delta_sc, delta_ovl)
    record_row(
        "Table 3: Simulation Results (time/cycle)",
        f"banks={banks}  delta_SC={delta_sc * 1e6:9.1f}us  "
        f"delta_OVL={delta_ovl * 1e6:9.1f}us  ratio={ratio:6.1f}x",
    )
    assert ratio > 1.0, "the RTL+OVL simulation must be slower"


@pytest.mark.parametrize("banks", BANKS)
def test_table3_rtl_backend_speedup(benchmark, banks):
    """Compiled vs interpreted RTL simulation on the Table 3 workload.

    The codegen backend must deliver >= 5x cycles/sec on the 4-bank
    configuration; every point lands in BENCH_rtl_sim.json so later PRs
    can track the trajectory.  Each backend's figure is the median of
    ``REPEATS`` runs, like the Table 3 points.
    """
    box = {}

    def run():
        for backend in ("interp", "compiled"):
            box[backend] = statistics.median(
                _run_rtl_ovl(banks, backend=backend)
                for __ in range(REPEATS))

    benchmark.pedantic(run, rounds=1, iterations=1)
    interp_cps = 1.0 / box["interp"]
    compiled_cps = 1.0 / box["compiled"]
    speedup = compiled_cps / interp_cps
    record_bench(
        "BENCH_rtl_sim.json",
        f"banks={banks}",
        {
            "banks": banks,
            "cycles": CYCLES,
            "interp_cycles_per_sec": round(interp_cps, 1),
            "compiled_cycles_per_sec": round(compiled_cps, 1),
            "speedup": round(speedup, 2),
        },
    )
    record_row(
        "Table 3 addendum: RTL backend speedup (cycles/sec)",
        f"banks={banks}  interp={interp_cps:8.0f}/s  "
        f"compiled={compiled_cps:8.0f}/s  speedup={speedup:5.1f}x",
    )
    if banks >= 4:
        assert speedup >= 5.0, (
            f"compiled backend must be >=5x at {banks} banks, got "
            f"{speedup:.1f}x"
        )


def test_table3_ratio_grows_with_banks(benchmark):
    """The paper's second observation: the gap widens with design size."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if len(_ratios) < 2:
        pytest.skip("per-bank measurements did not run")
    banks_sorted = sorted(_ratios)
    first = _ratios[banks_sorted[0]][1] / _ratios[banks_sorted[0]][0]
    last = _ratios[banks_sorted[-1]][1] / _ratios[banks_sorted[-1]][0]
    record_row(
        "Table 3: Simulation Results (time/cycle)",
        f"ratio trend: {banks_sorted[0]} banks -> {first:.1f}x, "
        f"{banks_sorted[-1]} banks -> {last:.1f}x",
    )
    assert last > first
