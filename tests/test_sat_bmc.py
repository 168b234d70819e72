"""Tests for SAT-based bounded model checking and k-induction, and
their integration with the sweep/flow layers."""

import time

import pytest

from repro.core.properties import read_mode_suite, rtl_labels
from repro.core.rtl_model import build_la1_top_rtl
from repro.core.rulebase import MC_SCALE_CONFIG
from repro.psl import builder as B
from repro.rtl import elaborate
from repro.sat.bmc import SatModelChecker, check_read_mode_sat


def _design(banks=1, datapath=False):
    return elaborate(
        build_la1_top_rtl(MC_SCALE_CONFIG(banks), datapath=datapath))


class TestBmc:
    def test_false_property_refuted_and_replayed(self):
        """'read_req never rises' is false; BMC must find the violation
        and the decoded counterexample must replay on the simulator."""
        design = _design()
        prop = B.always(B.implies(B.atom("req"), B.atom("nope")))
        labels = {
            "req": ("la1_top.bank0.stat_read_req", 0),
            "nope": ("la1_top.bank0.stat_data_valid", 0),
        }
        mc = SatModelChecker(design, prop, labels, name="false-prop")
        result = mc.bmc(max_depth=20)
        assert result.holds is False
        assert result.failed_at is not None
        assert result.replayed is True
        assert len(result.counterexample) == result.failed_at + 1

    def test_true_property_clean_to_depth_with_proofs(self):
        design = _design()
        suite = read_mode_suite(1)
        labels = rtl_labels("la1_top", 1)
        name, prop = suite[0]
        mc = SatModelChecker(design, prop, labels, name=name)
        result = mc.bmc(max_depth=10, check_proofs=True)
        assert result.holds is None
        assert result.failed_at is None
        assert result.clean_depth == 10
        assert result.stats["proof_lemmas"] > 0


class TestKInduction:
    def test_read_mode_suite_proved(self):
        design = _design()
        labels = rtl_labels("la1_top", 1)
        for name, prop in read_mode_suite(1):
            mc = SatModelChecker(design, prop, labels, name=name)
            result = mc.prove(max_k=20, check_proofs=True)
            assert result.proved, f"{name}: {result!r}"
            assert result.k is not None and result.k >= 1
            assert result.stats["proof_lemmas"] > 0

    def test_false_property_yields_base_counterexample(self):
        design = _design()
        prop = B.always(B.implies(B.atom("req"), B.atom("nope")))
        labels = {
            "req": ("la1_top.bank0.stat_read_req", 0),
            "nope": ("la1_top.bank0.stat_data_valid", 0),
        }
        mc = SatModelChecker(design, prop, labels, name="false-prop")
        result = mc.prove(max_k=20)
        assert result.holds is False
        assert result.cex is not None
        assert result.cex.replayed is True

    def test_non_safety_property_rejected(self):
        from repro.psl.ast import PslError

        design = _design()
        with pytest.raises(PslError, match="safety"):
            SatModelChecker(
                design, B.always(B.eventually(B.atom("x"))),
                {"x": ("la1_top.bank0.stat_read_req", 0)})


class TestCheckReadModeSat:
    def test_result_shape_matches_bdd_engine(self):
        result = check_read_mode_sat(1, max_k=20, check_proofs=True)
        assert result.holds is True
        assert result.property_name == "read_mode[1banks]"
        stats = result.bdd_stats
        assert stats["engine"] == "sat"
        assert stats["method"] == "k-induction"
        assert stats["k"] >= 1
        assert stats["proof_checked"] is True
        # round-trips through the shard-transport dict form
        from repro.mc.checker import SymbolicCheckResult

        again = SymbolicCheckResult.from_dict(result.to_dict())
        assert again.holds is True
        assert again.bdd_stats["engine"] == "sat"

    def test_bmc_method(self):
        result = check_read_mode_sat(1, method="bmc", max_depth=8)
        assert result.holds is None
        assert result.bdd_stats["method"] == "bmc"
        assert result.bdd_stats["clean_depth"] == 8
        assert not result.truncated

    def test_past_the_bdd_wall_4banks(self):
        """The acceptance check: the full 4-bank read-mode property set
        -- the configuration the BDD engine explodes on (paper Table 2)
        -- is proved by k-induction, full netlist, no cone reduction."""
        for name, prop in read_mode_suite(4):
            result = check_read_mode_sat(
                4, prop=prop, property_name=name, coi=False, max_k=20)
            assert result.holds is True, f"{name}: {result!r}"
            assert not result.bdd_stats.get("exploded", False)

    def test_2bank_suite_encoding_is_pinned(self):
        """(k, vars, clauses, proof_lemmas) per read-mode conjunct at 2
        banks with the default cone of influence -- the k-induction rows
        of BENCH_sat.json.  A change to the bit-level lowering or the
        automaton embedding that moves one gate moves these numbers."""
        pinned = {
            "read_latency": (4, 406, 1278, 71),
            "read_second_beat": (2, 84, 176, 5),
            "no_spurious_data": (11, 686, 2103, 27),
        }
        for name, prop in read_mode_suite(2):
            result = check_read_mode_sat(
                2, prop=prop, property_name=name, max_k=20,
                check_proofs=True)
            stats = result.bdd_stats
            assert result.holds is True, f"{name}: {result!r}"
            assert (stats["k"], stats["vars"], stats["clauses"],
                    stats["proof_lemmas"]) == pinned[name.split("[")[0]]


class TestBudgetNaming:
    """Every truncated SAT result names the budget that ran out."""

    def test_max_k(self):
        # read_latency needs k=4 at 1 bank: one step decides nothing
        result = check_read_mode_sat(1, max_k=1)
        assert result.holds is None and result.truncated
        assert result.bdd_stats["budget"] == "max_k"
        assert result.bdd_stats["properties"] == 3
        design = _design()
        name, prop = read_mode_suite(1)[0]
        kres = SatModelChecker(design, prop, rtl_labels("la1_top", 1),
                               name=name).prove(max_k=1)
        assert kres.truncated and kres.stats["budget"] == "max_k"

    @pytest.mark.parametrize("method", ["prove", "bmc"])
    def test_deadline_reaches_the_solver(self, method, monkeypatch):
        # the solver's clock runs past any deadline, the frame loop's does
        # not: only the check inside Solver.solve can stop this run
        monkeypatch.setattr("repro.sat.solver.perf_counter",
                            lambda: float("inf"))
        result = check_read_mode_sat(1, method=method, max_depth=8,
                                     deadline_s=3600.0)
        assert result.holds is None and result.truncated
        assert result.bdd_stats["budget"] == "deadline_s"
        assert result.bdd_stats["conflicts"] == 1

    def test_deadline_bounds_the_whole_call(self, monkeypatch):
        # the first conjunct spends the whole budget; the next one must
        # not get a fresh one, and the last one must not run at all
        budgets = []
        prove = SatModelChecker.prove

        def prove_then_spend(self, max_k, check_proofs, deadline_s):
            budgets.append(deadline_s)
            result = prove(self, max_k=max_k, check_proofs=check_proofs,
                           deadline_s=deadline_s)
            if len(budgets) == 1:
                time.sleep(deadline_s)
            return result

        monkeypatch.setattr(SatModelChecker, "prove", prove_then_spend)
        result = check_read_mode_sat(1, max_k=20, deadline_s=1.0)
        assert result.holds is None and result.truncated
        assert result.bdd_stats["budget"] == "deadline_s"
        assert len(budgets) == 2 and budgets[1] < 0

    def test_decided_runs_name_no_budget(self):
        result = check_read_mode_sat(1, max_k=20, deadline_s=3600.0)
        assert result.holds is True
        assert "budget" not in result.bdd_stats


class TestSweepIntegration:
    def test_sweep_engine_sat_inline(self):
        from repro.mc import sweep_rtl_properties

        report = sweep_rtl_properties(
            1, read_mode_suite(1), datapath=False, jobs=1, engine="sat")
        assert report.holds is True
        combined = report.combined()
        assert combined.holds is True
        for __, result in report.results:
            assert result.bdd_stats["engine"] == "sat"

    @staticmethod
    def _untimed(result) -> dict:
        data = result.to_dict()
        for key in ("cpu_time", "property_name"):
            data.pop(key)
        data["bdd_stats"].pop("cpu_time")
        return data

    def test_fold_of_the_2bank_conjuncts(self):
        from repro.mc import sweep_rtl_properties

        folded = sweep_rtl_properties(
            2, read_mode_suite(1), datapath=False, engine="sat",
            check_proofs=True).combined()
        stats = folded.bdd_stats
        assert folded.holds is True
        # k 4, 2 and 11 fold to their maximum, not their sum
        assert (stats["k"], folded.iterations) == (11, 11)
        assert (stats["engine"], stats["method"]) == ("sat", "k-induction")
        assert stats["proof_checked"] is True
        assert stats["properties"] == 3
        # the largest single encoding; the clause counter adds up
        assert (folded.peak_nodes, stats["clauses"]) == (2103, 3557)
        direct = check_read_mode_sat(2, datapath=False, check_proofs=True)
        assert direct.property_name == "read_mode[2banks]"
        assert self._untimed(direct) == self._untimed(folded)

    def test_bmc_fold_keeps_the_shallowest_clean_depth(self):
        from repro.mc import sweep_rtl_properties

        folded = sweep_rtl_properties(
            2, read_mode_suite(1), datapath=False, engine="sat",
            method="bmc", max_depth=10).combined()
        assert folded.holds is None and not folded.truncated
        assert folded.bdd_stats["clean_depth"] == 10
        assert folded.bdd_stats["method"] == "bmc"
        direct = check_read_mode_sat(2, datapath=False, method="bmc",
                                     max_depth=10)
        assert self._untimed(direct) == self._untimed(folded)

    def test_sweep_rejects_unknown_engine(self):
        from repro.mc import sweep_rtl_properties

        with pytest.raises(ValueError, match="unknown mc engine"):
            sweep_rtl_properties(
                1, read_mode_suite(1), engine="smt")


class TestFlowIntegration:
    def test_flow_mc_engine_sat(self):
        from repro.core.flow import FlowConfig, run_flow

        report = run_flow(FlowConfig(
            banks=1, traffic=4, mc_engine="sat",
            static_lint=False, coverage=False))
        stage = next(s for s in report.stages
                     if s.name == "rtl_model_checking")
        assert stage.ok
        assert "clauses" in stage.detail
        assert stage.data.bdd_stats["engine"] == "sat"

    def test_flow_rejects_unknown_engine(self):
        from repro.core.flow import FlowConfig, run_flow

        with pytest.raises(ValueError, match="unknown mc engine"):
            run_flow(FlowConfig(
                banks=1, traffic=4, mc_engine="smt",
                static_lint=False, coverage=False))
