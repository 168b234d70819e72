"""``flow``: the Figure 2 flow, whose ASM stage is Table 1.

One task runs ``run_flow`` at 1, 2 and 4 banks with 200 host
transactions.  ASM exploration is about 40% of a round; SystemC ABV,
lint, the BDD control-model check and compiled OVL simulation make up
the rest.  No bitpar, process-pool or serve work runs here.
"""

from __future__ import annotations

import time

from repro.core.flow import FlowConfig, run_flow

from . import Workload as Base
from . import median

TASK_S = 1.9
BANKS = (1, 2, 4)
TRAFFIC = 200


class Workload(Base):
    def __init__(self, seed: int, tracer):
        super().__init__(tracer)
        # a small flow loads the engines each stage imports lazily, so
        # the first timed round is not also the cold one
        run_flow(FlowConfig(banks=1, traffic=8, seed=seed))
        self.failures: list[str] = []

    def task(self, seed: int) -> None:
        start = time.perf_counter()
        reports = [run_flow(FlowConfig(banks=banks, traffic=TRAFFIC,
                                       seed=seed))
                   for banks in BANKS]
        elapsed = time.perf_counter() - start
        for banks, report in zip(BANKS, reports):
            self.attempted += 1
            if not report.ok:
                self.failed += 1
                failing = [s.name for s in report.stages if not s.ok]
                self.failures.append(f"seed {seed}, {banks} banks: {failing}")
        self.record("task", elapsed)

    def check(self):
        return [("every flow stage is ok", not self.failures,
                 "; ".join(self.failures[:3]))]

    def metrics(self, scales) -> dict:
        return {"flow_s": median(self.scaled("task", scales))}
