"""A parallel campaign prepares its shards before the pool forks, and
plans them by measured cost.

``FaultCampaign._prepare`` fills, in the coordinator, the kernels,
imports, checker automata and golden runs every shard reads, so a
forked worker runs no golden run and compiles no automaton.  Golden
logs live in the bounded per-process ``golden_logs`` memo, keyed by the
workload fingerprint.  ``FaultCampaign.shard_plan`` packs
``execute_faults``' execution units under the ``UNIT_COST_MS`` model, a
lane batch staying whole.  None of it may change a verdict.
"""

import os
import time

import pytest

from repro.fault import ppsfp
from repro.fault.campaign import (
    UNIT_COST_MS,
    CampaignConfig,
    FaultCampaign,
    default_fault_list,
    golden_logs,
)
from repro.psl import automata

SMALL = dict(banks=1, traffic=8, rtl_cycles=80)


@pytest.fixture
def fresh_memos():
    """Empty golden and checker memos, so this test's coordinator runs
    every golden and compiles every automaton whatever ran before."""
    golden_logs.cache_clear()
    automata.compiled_checker.cache_clear()
    yield
    golden_logs.cache_clear()


def _log_calls(monkeypatch, log):
    """Append ``<what> <pid>`` to ``log`` for every golden run (SystemC,
    scalar RTL, PPSFP golden pass) and every checker automaton built,
    in this process or a forked worker."""
    def record(what):
        with open(log, "a") as fh:
            fh.write(f"{what} {os.getpid()}\n")

    sysc_run = FaultCampaign._sysc_run
    rtl_run = FaultCampaign._rtl_run
    golden_pass = ppsfp._golden_pass
    build_checker = automata.build_checker

    def sysc(self, fault=None):
        if fault is None:
            record("sysc")
        return sysc_run(self, fault)

    def rtl(self, fault=None, pattern=0):
        if fault is None:
            record("rtl")
        return rtl_run(self, fault, pattern)

    def lanes(campaign, chunk, width):
        record("lanes")
        return golden_pass(campaign, chunk, width)

    def checker(prop):
        record("checker")
        return build_checker(prop)

    monkeypatch.setattr(FaultCampaign, "_sysc_run", sysc)
    monkeypatch.setattr(FaultCampaign, "_rtl_run", rtl)
    monkeypatch.setattr(ppsfp, "_golden_pass", lanes)
    monkeypatch.setattr(automata, "build_checker", checker)


def _content(report):
    """Everything of a report's verdicts except the timing field."""
    return [{k: v for k, v in verdict.to_dict().items() if k != "cpu_time"}
            for verdict in report.verdicts]


class TestPrepareBeforeFork:
    def test_forked_workers_run_no_golden_and_build_no_checker(
            self, monkeypatch, fresh_memos, tmp_path):
        log = tmp_path / "calls.log"
        _log_calls(monkeypatch, str(log))
        config = CampaignConfig(patterns=2, **SMALL)
        parallel = FaultCampaign(config).run(jobs=2, lanes=64)
        assert parallel.engine_stats["par"]["mode"] == "pool"
        assert parallel.engine_stats["par"]["shards"] == 2
        lines = [line.split() for line in log.read_text().splitlines()]
        coordinator = str(os.getpid())
        assert [line for line in lines if line[1] != coordinator] == []
        # the coordinator ran each golden once: one SystemC golden, the
        # scalar RTL golden of both patterns, one lane golden pass
        kinds = [what for what, __ in lines]
        assert kinds.count("sysc") == 1
        assert kinds.count("rtl") == 2
        assert kinds.count("lanes") == 1
        assert kinds.count("checker") > 0
        serial = FaultCampaign(config).run(jobs=1, lanes=1)
        assert _content(parallel) == _content(serial)

    def test_prepare_runs_inside_the_campaign_deadline(self, monkeypatch):
        # the prepare step spends the deadline: one that outlasts the
        # whole budget leaves the pool no time at all
        def slow_prepare(self, faults, lanes):
            time.sleep(0.5)

        monkeypatch.setattr(FaultCampaign, "_prepare", slow_prepare)
        report = FaultCampaign(CampaignConfig(
            campaign_deadline_s=0.4, **SMALL)).run(jobs=2, resume=False)
        assert report.counts()["truncated"] == len(report.verdicts)
        assert report.engine_stats["par"]["timed_out"] == [0, 1]


class TestGoldenMemo:
    def _count_sysc_goldens(self, monkeypatch):
        calls = []
        original = FaultCampaign._sysc_run

        def counted(self, fault=None):
            if fault is None:
                calls.append(self.config.seed)
            return original(self, fault)

        monkeypatch.setattr(FaultCampaign, "_sysc_run", counted)
        return calls

    def test_hits_for_the_same_workload_and_misses_for_another_seed(
            self, monkeypatch, fresh_memos):
        calls = self._count_sysc_goldens(monkeypatch)
        FaultCampaign(CampaignConfig(seed=1, **SMALL))._sysc_golden_run()
        FaultCampaign(CampaignConfig(seed=1, **SMALL))._sysc_golden_run()
        assert calls == [1]
        FaultCampaign(CampaignConfig(seed=2, **SMALL))._sysc_golden_run()
        assert calls == [1, 2]
        # budgets and paths are no part of a golden run's workload
        FaultCampaign(CampaignConfig(
            seed=1, campaign_deadline_s=1.0, shard_attempts=5,
            **SMALL))._sysc_golden_run()
        assert calls == [1, 2]

    def test_evicts_at_its_bound(self, monkeypatch, fresh_memos):
        calls = self._count_sysc_goldens(monkeypatch)
        campaign = FaultCampaign(CampaignConfig(seed=1, **SMALL))
        campaign._sysc_golden_run()
        bound = golden_logs.cache_info().maxsize
        for seed in range(100, 100 + bound):
            golden_logs((("seed", seed),))
        assert golden_logs.cache_info().currsize == bound
        campaign._sysc_golden_run()
        assert calls == [1, 1]

    def test_never_caches_a_failing_golden(self, monkeypatch, fresh_memos):
        original = FaultCampaign._sysc_run

        def failing(self, fault=None):
            failed, triggered, log, points = original(self, fault)
            return ["A1[0]"], triggered, log, points

        campaign = FaultCampaign(CampaignConfig(**SMALL))
        with monkeypatch.context() as patch:
            patch.setattr(FaultCampaign, "_sysc_run", failing)
            with pytest.raises(RuntimeError, match="golden SystemC run"):
                campaign._sysc_golden_run()
        assert "sysc" not in campaign._goldens()
        assert campaign._sysc_golden_run() == campaign._goldens()["sysc"]

    def test_never_caches_a_failing_lane_golden_pass(
            self, monkeypatch, fresh_memos):
        # a golden pass whose lane 0 misses the compiled golden run
        # raises before any of its logs is stored
        campaign = FaultCampaign(CampaignConfig(patterns=2, **SMALL))
        goldens = campaign._goldens()
        goldens["rtl", 0] = ("not", "the", "golden", "log")
        with pytest.raises(RuntimeError, match="compiled golden run"):
            ppsfp._pattern_goldens(campaign, [0, 1], 64)
        assert [key for key in goldens if key[0] == "lanes"] == []
        del goldens["rtl", 0]
        logs = ppsfp._pattern_goldens(campaign, [0, 1], 64)
        assert logs[0] == campaign._rtl_golden_run(0)
        assert sorted(key for key in goldens if key[0] == "lanes") == [
            ("lanes", 0), ("lanes", 1)]


def _best_split(costs):
    """The least possible makespan of ``costs`` on two shards."""
    total = sum(costs)
    sums = {0}
    for cost in costs:
        sums |= {s + cost for s in sums}
    return min(max(s, total - s) for s in sums)


class TestShardPlan:
    @pytest.mark.parametrize("lanes", [1, 64])
    @pytest.mark.parametrize("banks", [1, 2, 4])
    def test_default_lists_balance_under_the_model(self, banks, lanes):
        campaign = FaultCampaign(CampaignConfig(banks=banks))
        faults = default_fault_list(banks)
        units = campaign._units(faults, lanes)
        cost = {tuple(f.fault_id for f in batch):
                campaign._unit_cost((lane_batch, batch), lanes)
                for lane_batch, batch in units}
        shards = campaign.shard_plan(faults, 2, lanes)
        assert sorted(f.fault_id for shard in shards for f in shard) == \
            sorted(f.fault_id for f in faults)
        where = {f.fault_id: index for index, shard in enumerate(shards)
                 for f in shard}
        loads = [0.0] * len(shards)
        for ids, unit_cost in cost.items():
            # a lane batch never splits across shards
            assert len({where[fault_id] for fault_id in ids}) == 1
            loads[where[ids[0]]] += unit_cost
        # greedy LPT on two shards is within 7/6 of the best split
        assert max(loads) <= _best_split(list(cost.values())) * 7 / 6
        for shard in shards:
            # each shard keeps submission order and re-plans the batches
            # the coordinator packed
            assert shard == [f for f in faults if f.fault_id in
                             {g.fault_id for g in shard}]
            for lane_batch, batch in campaign._units(shard, lanes):
                assert tuple(f.fault_id for f in batch) in cost

    def test_one_bank_shards_are_even(self):
        # the serve job's shape: the old per-layer weights put two ASM
        # faults in one shard and everything else in the other
        campaign = FaultCampaign(CampaignConfig(banks=1))
        faults = default_fault_list(1)
        shards = campaign.shard_plan(faults, 2, 64)
        loads = [sum(campaign._unit_cost(unit, 64)
                     for unit in campaign._units(shard, 64))
                 for shard in shards]
        assert max(loads) <= 1.25 * min(loads)

    def test_cost_model_is_bank_aware(self):
        assert all(len(costs) == 4 for costs in UNIT_COST_MS.values())
        # an ASM fault costs less than a SystemC fault at 1 bank and over
        # an order of magnitude more at 4
        ratio = [asm / sysc for asm, sysc in
                 zip(UNIT_COST_MS["asm"], UNIT_COST_MS["sysc"])]
        assert ratio == sorted(ratio) and ratio[0] < 1 < 10 < ratio[-1]
        # beyond the measured range the 4-bank column stands
        asm = [f for f in default_fault_list(8) if f.layer == "asm"]
        big = FaultCampaign(CampaignConfig(banks=8))
        assert big._unit_cost((False, asm[:1]), 1) == UNIT_COST_MS["asm"][3]


@pytest.fixture(scope="module")
def references():
    """The jobs=1, lanes=1 report of each pattern count."""
    return {
        patterns: _content(FaultCampaign(CampaignConfig(
            patterns=patterns, **SMALL)).run(jobs=1, lanes=1))
        for patterns in (1, 4)
    }


@pytest.mark.parametrize("patterns", [1, 4])
@pytest.mark.parametrize("lanes", [1, 64])
@pytest.mark.parametrize("jobs", [1, 2])
def test_verdicts_identical_across_shapes(references, jobs, lanes, patterns):
    report = FaultCampaign(CampaignConfig(patterns=patterns, **SMALL)).run(
        jobs=jobs, lanes=lanes)
    assert _content(report) == references[patterns]
