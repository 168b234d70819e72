"""``prove``: symbolic model checking, BDD and SAT.

One task runs Table 2's 1-bank point on the full netlist
(``check_read_mode_rtl(1, datapath=True, coi=False)``, about 552k peak
BDD nodes), proves all 12 ``read_mode_suite(4)`` properties by
k-induction with DRAT-checked UNSAT answers, and runs BMC of the 4-bank
read-mode conjuncts to depth 40.  SAT runs nowhere else in the
benchmark, and BDD only lightly in ``flow``.  The engines are
deterministic, so the seed only orders the 12 properties.
"""

from __future__ import annotations

import random
import time

from repro.core.properties import read_mode_suite
from repro.core.rulebase import check_read_mode_rtl
from repro.sat.bmc import check_read_mode_sat

from . import Workload as Base
from . import median

TASK_S = 3.6
BANKS = 4
MAX_K = 20
BMC_DEPTH = 40


class Workload(Base):
    def __init__(self, seed: int, tracer):
        super().__init__(tracer)
        self.suite = read_mode_suite(BANKS)
        #: property -> the set of (verdict, k) seen across iterations
        self.verdicts: dict[str, set] = {}
        #: properties with an unexpected verdict on some iteration
        self.wrong: set[str] = set()

    def _timed(self, engine: str, check):
        start = time.perf_counter()
        result = check()
        self.record(engine, time.perf_counter() - start)
        return result

    def _verdict(self, name: str, verdict: tuple, expected: bool) -> None:
        self.attempted += 1
        if not expected:
            self.failed += 1
            self.wrong.add(name)
        self.verdicts.setdefault(name, set()).add(verdict)

    def task(self, seed: int) -> None:
        start = time.perf_counter()
        bdd = self._timed("bdd", lambda: check_read_mode_rtl(
            1, datapath=True, coi=False))
        self._verdict("bdd:read_mode[1]", (bdd.holds, bdd.iterations),
                     bdd.holds is True)
        order = list(self.suite)
        random.Random(seed).shuffle(order)

        def prove_all():
            return [(name, check_read_mode_sat(
                BANKS, prop=prop, coi=False, max_k=MAX_K, check_proofs=True))
                for name, prop in order]

        for name, result in self._timed("sat", prove_all):
            k = result.bdd_stats.get("k")
            self._verdict(name, (result.holds, k), result.holds is True)
        bmc = self._timed("bmc", lambda: check_read_mode_sat(
            BANKS, method="bmc", max_depth=BMC_DEPTH, coi=False))
        clean = bmc.bdd_stats.get("clean_depth")
        self._verdict("bmc:read_mode[4]", (bmc.holds, clean),
                     bmc.holds is not False and clean == BMC_DEPTH)
        self.record("task", time.perf_counter() - start)

    def check(self):
        unstable = sorted(name for name, seen in self.verdicts.items()
                          if len(seen) != 1)
        wrong = sorted(self.wrong)
        return [
            ("every property is proved at the same k on every iteration, "
             "and BMC finds no counterexample", not unstable and not wrong,
             f"unstable {unstable[:3]}, wrong {wrong[:3]}"),
        ]

    def metrics(self, scales) -> dict:
        return {"bdd_prove_s": median(self.scaled("bdd", scales)),
                "sat_prove_s": median(self.scaled("sat", scales)),
                "bmc_s": median(self.scaled("bmc", scales))}
