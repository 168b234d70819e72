"""Unit tests for the symbolic model checker: encoding, the image
step's quantification schedule, and reachability."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import NEXT_SUFFIX, BddBudgetExceeded, BddManager
from repro.mc import PHASE_VAR, SymbolicModel, SymbolicModelChecker
from repro.mc.checker import quantification_schedule
from repro.psl import PslError, parse_property
from repro.rtl import C, Mux, RtlModule, RtlSimulator, elaborate
from tests.test_sat_encode import _random_module


def _counter(width=3, clock="K"):
    m = RtlModule("top")
    en = m.input("en", 1)
    cnt = m.reg("cnt", width, clock=clock, init=0)
    m.sync(cnt, Mux(en.ref(), cnt.ref() + C(1, width), cnt.ref()))
    hit = m.wire("hit", 1)
    m.assign(hit, cnt.ref().eq((1 << width) - 1))
    at0 = m.wire("at0", 1)
    m.assign(at0, cnt.ref().eq(0))
    out = m.output("q", width)
    m.assign(out, cnt.ref())
    return m


class TestSymbolicEncoding:
    def test_state_and_input_bits(self):
        model = SymbolicModel(elaborate(_counter()))
        assert "top.cnt[0]" in model.state_bits
        assert model.input_bits == ["top.en"]
        assert PHASE_VAR not in model.state_bits  # single clock domain

    def test_phase_bit_for_two_domains(self):
        m = RtlModule("ddr")
        r1 = m.reg("r1", 1, clock="K")
        r2 = m.reg("r2", 1, clock="K#")
        m.sync(r1, ~r1.ref())
        m.sync(r2, ~r2.ref())
        q = m.output("q", 1)
        m.assign(q, r1.ref() ^ r2.ref())
        model = SymbolicModel(elaborate(m))
        assert PHASE_VAR in model.state_bits

    def test_three_domains_rejected(self):
        m = RtlModule("bad")
        for i, clk in enumerate(("K", "K#", "J")):
            r = m.reg(f"r{i}", 1, clock=clk)
            m.sync(r, ~r.ref())
        with pytest.raises(ValueError):
            SymbolicModel(elaborate(m))

    def test_net_bdd_lookup(self):
        model = SymbolicModel(elaborate(_counter()))
        bits = model.net_bdd("top.cnt")
        assert len(bits) == 3
        assert model.net_bit("top.hit") is not None

    def test_orderings(self):
        for ordering in ("interleaved", "naive"):
            model = SymbolicModel(elaborate(_counter()), ordering=ordering)
            assert model.manager.num_nodes > 2
        with pytest.raises(ValueError):
            SymbolicModel(elaborate(_counter()), ordering="random")


class TestSymbolicVsSimulation:
    """The symbolic next-state functions must agree with the interpreted
    simulator on every input sequence."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=6))
    def test_counter_equivalence(self, inputs):
        design = elaborate(_counter())
        model = SymbolicModel(design)
        sim = RtlSimulator(elaborate(_counter()))
        m = model.manager
        # symbolic state as a concrete assignment dict
        assignment = {name: False for name in model.state_bits}
        for en in inputs:
            sim.set_input("top.en", int(en))
            sim.step("K")
            env = dict(assignment)
            env["top.en"] = en
            new_assignment = {}
            for name in model.state_bits:
                fn = model.next_functions[name]
                new_assignment[name] = m.evaluate(fn, env)
            assignment = new_assignment
            symbolic_cnt = sum(
                (1 << i)
                for i in range(3)
                if assignment[f"top.cnt[{i}]"]
            )
            assert symbolic_cnt == sim.read("top.cnt")

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    def test_ddr_equivalence(self, inputs):
        def build():
            m = RtlModule("ddr")
            d = m.input("d", 2)
            rk = m.reg("rk", 2, clock="K", init=0)
            rks = m.reg("rks", 2, clock="K#", init=0)
            m.sync(rk, d.ref())
            m.sync(rks, rk.ref() ^ d.ref())
            q = m.output("q", 2)
            m.assign(q, rk.ref() & rks.ref())
            return m

        model = SymbolicModel(elaborate(build()))
        sim = RtlSimulator(elaborate(build()))
        m = model.manager
        assignment = {name: False for name in model.state_bits}
        edges = ["K", "K#"]
        for step, d in enumerate(inputs):
            sim.set_input("ddr.d", d)
            sim.step(edges[step % 2])
            env = dict(assignment)
            env["ddr.d[0]"] = bool(d & 1)
            env["ddr.d[1]"] = bool(d & 2)
            assignment = {
                name: m.evaluate(model.next_functions[name], env)
                for name in model.state_bits
            }
            for reg, width in (("rk", 2), ("rks", 2)):
                symbolic = sum(
                    (1 << i)
                    for i in range(width)
                    if assignment[f"ddr.{reg}[{i}]"]
                )
                assert symbolic == sim.read(f"ddr.{reg}"), (step, reg)


def _relation(model):
    """The image step's inputs: manager, per-state-bit partitions in
    ``state_bits`` order, and the quantifiable variables."""
    m = model.manager
    partitions = [
        m.xnor(m.var(v + NEXT_SUFFIX), model.next_functions[v])
        for v in model.state_bits
    ]
    return m, partitions, model.state_bits + model.input_bits


def _random_model(seed):
    rng = random.Random(2300 + seed)
    module = _random_module(rng, width=rng.choice((2, 3, 4)))
    return SymbolicModel(elaborate(module)), rng


def _random_states(m, state_bits, rng, cubes=3):
    """A random set of current states: a union of random cubes."""
    states = m.FALSE
    for __ in range(cubes):
        cube = m.TRUE
        for v in state_bits:
            pick = rng.random()
            if pick < 0.4:
                cube = m.and_(cube, m.var(v))
            elif pick < 0.8:
                cube = m.and_(cube, m.not_(m.var(v)))
        states = m.or_(states, cube)
    return states


def _chained_image(m, frontier, ordered, release_at, unused_anywhere):
    """The image step of ``SymbolicModelChecker`` (before renaming)."""
    product = m.exists(unused_anywhere, frontier)
    for part, released in zip(ordered, release_at):
        product = m.and_exists(product, part, released)
    return product


def _assert_released_at_last_use(m, ordered, release_at, unused_anywhere,
                                 quantifiable):
    supports = [m.support(p) for p in ordered]
    released = [v for group in release_at for v in group] + unused_anywhere
    assert sorted(released) == sorted(quantifiable)
    for position, group in enumerate(release_at):
        for v in group:
            assert v in supports[position], (v, position)
            assert not any(v in s for s in supports[position + 1:]), (
                v, position)
    for v in unused_anywhere:
        assert not any(v in s for s in supports), v


def _release_one_early(release_at):
    """Move one released variable to the partition before its last
    reader: an unsound schedule the checks below must reject.  None when
    only the first partition releases anything."""
    early = [list(group) for group in release_at]
    for position in range(1, len(early)):
        if early[position]:
            early[position - 1].append(early[position].pop())
            return early
    return None


class TestQuantificationSchedule:
    """The greedy IWLS95 order of the image step's relational products."""

    def test_greedy_rule_and_its_tie_breaks(self):
        m = BddManager()
        a, b, u, v, w, x, y, __ = (m.add_var(n) for n in "abuvwxyz")
        partitions = [
            m.and_(x, a),           # sole reader of x
            y,                      # sole reader of y, smaller support
            m.or_(a, b),            # sole reader of a once 0 is in
            b,                      # sole reader of b once 2 is in
            m.and_all([u, v, w]),   # sole reader of three: first
        ]
        ordered, release_at, unused = quantification_schedule(
            m, partitions, "abuvwxyz")
        assert ordered == [partitions[i] for i in (4, 1, 0, 2, 3)]
        assert release_at == [["u", "v", "w"], ["y"], ["x"], ["a"], ["b"]]
        assert unused == ["z"]

    def test_equal_scores_keep_the_state_bit_order(self):
        m = BddManager()
        a, b, c = (m.add_var(n) for n in "abc")
        ordered, release_at, unused = quantification_schedule(
            m, [b, a], ["a", "b", "c"])
        assert ordered == [b, a]
        assert release_at == [["b"], ["a"]]
        assert unused == ["c"]

    @pytest.mark.parametrize("seed", range(4))
    def test_order_is_a_deterministic_permutation(self, seed):
        orders = []
        for __ in range(2):
            model, __ = _random_model(seed)
            m, partitions, quantifiable = _relation(model)
            ordered, __, __ = quantification_schedule(
                m, partitions, quantifiable)
            assert sorted(ordered) == sorted(partitions)
            orders.append([partitions.index(p) for p in ordered])
        assert orders[0] == orders[1]

    def test_la1_control_model_schedule(self):
        from repro.core.rulebase import MC_SCALE_CONFIG, mc_design

        model = SymbolicModel(mc_design(MC_SCALE_CONFIG(2), False))
        m, partitions, quantifiable = _relation(model)
        ordered, release_at, unused = quantification_schedule(
            m, partitions, quantifiable)
        assert sorted(ordered) == sorted(partitions)
        assert ordered != partitions     # the schedule does reorder
        _assert_released_at_last_use(m, ordered, release_at, unused,
                                     quantifiable)

    @pytest.mark.parametrize("seed", range(12))
    def test_chained_image_equals_the_monolithic_image(self, seed):
        model, rng = _random_model(seed)
        m, partitions, quantifiable = _relation(model)
        schedule = quantification_schedule(m, partitions, quantifiable)
        _assert_released_at_last_use(m, *schedule, quantifiable)
        for frontier in (model.init, _random_states(
                m, model.state_bits, rng)):
            monolithic = m.exists(
                quantifiable, m.and_all([frontier] + partitions))
            assert _chained_image(m, frontier, *schedule) == monolithic

    def test_early_release_is_caught(self):
        """Quantifying a variable one partition before its last reader
        fails the release check, and changes the image of some seeded
        netlists."""
        mutated = changed = 0
        for seed in range(12):
            model, rng = _random_model(seed)
            m, partitions, quantifiable = _relation(model)
            ordered, release_at, unused = quantification_schedule(
                m, partitions, quantifiable)
            early = _release_one_early(release_at)
            if early is None:
                continue
            mutated += 1
            with pytest.raises(AssertionError):
                _assert_released_at_last_use(m, ordered, early, unused,
                                             quantifiable)
            for frontier in (model.init, _random_states(
                    m, model.state_bits, rng)):
                monolithic = m.exists(
                    quantifiable, m.and_all([frontier] + partitions))
                if _chained_image(m, frontier, ordered, early,
                                  unused) != monolithic:
                    changed += 1
        assert mutated >= 6 and changed >= mutated, (mutated, changed)


class TestReachabilityChecking:
    def test_reachable_violation_found_at_right_depth(self):
        model = SymbolicModel(elaborate(_counter(width=2)))
        checker = SymbolicModelChecker(model)
        result = checker.check_property(
            parse_property("always (!hit)"), {"hit": ("top.hit", 0)})
        assert result.holds is False
        assert result.counterexample_depth == 3

    def test_unreachable_bad_state(self):
        # with en tied low... en is free, so use a property true by design
        model = SymbolicModel(elaborate(_counter(width=2)))
        checker = SymbolicModelChecker(model)
        result = checker.check_property(
            parse_property("always (hit -> next (!hit) -> true)")
            if False else parse_property("always (true)"),
            {},
        )
        assert result.holds is True

    def test_temporal_property_over_design(self):
        # from the max value the counter either holds (en=0) or wraps to
        # zero (en=1) -- true for every input sequence
        model = SymbolicModel(elaborate(_counter(width=2)))
        checker = SymbolicModelChecker(model)
        result = checker.check_property(
            parse_property("always (hit -> next (hit | at0))"),
            {"hit": ("top.hit", 0), "at0": ("top.at0", 0)},
        )
        assert result.holds is True

    def test_temporal_property_violation_over_design(self):
        # claiming the counter always wraps is refuted by en=0
        model = SymbolicModel(elaborate(_counter(width=2)))
        checker = SymbolicModelChecker(model)
        result = checker.check_property(
            parse_property("always (hit -> next (at0))"),
            {"hit": ("top.hit", 0), "at0": ("top.at0", 0)},
        )
        assert result.holds is False

    def test_invariant_api(self):
        model = SymbolicModel(elaborate(_counter(width=2)))
        checker = SymbolicModelChecker(model)
        bad = model.net_bit("top.hit")
        result = checker.check_invariant(bad, "no-hit")
        assert result.holds is False

    def test_initial_state_violation_depth_zero(self):
        model = SymbolicModel(elaborate(_counter(width=2)))
        checker = SymbolicModelChecker(model)
        m = model.manager
        at0 = m.not_(m.or_all(model.net_bdd("top.cnt")))
        result = checker.check_invariant(at0, "not-zero")
        assert result.holds is False
        assert result.counterexample_depth == 0

    def test_liveness_rejected(self):
        model = SymbolicModel(elaborate(_counter(width=2)))
        checker = SymbolicModelChecker(model)
        with pytest.raises(PslError):
            checker.check_property(parse_property("eventually! hit"),
                                   {"hit": ("top.hit", 0)})

    def test_missing_label_rejected(self):
        model = SymbolicModel(elaborate(_counter(width=2)))
        checker = SymbolicModelChecker(model)
        with pytest.raises(PslError):
            checker.check_property(parse_property("always (mystery)"), {})

    def test_transient_budget_explosion(self):
        # a budget too small for the check surfaces as either an exploded
        # result (budget hit during reachability) or the raw exception
        # (budget hit while encoding the model)
        try:
            model = SymbolicModel(elaborate(_counter(width=6)),
                                  node_budget=250)
            checker = SymbolicModelChecker(model)
            result = checker.check_property(
                parse_property("always (!hit)"), {"hit": ("top.hit", 0)})
            assert result.exploded
            assert result.holds is None
        except BddBudgetExceeded:
            pass

    def test_live_budget_explosion_via_gc(self):
        model = SymbolicModel(elaborate(_counter(width=4)))
        checker = SymbolicModelChecker(model, live_node_budget=1,
                                       gc_threshold=10)
        result = checker.check_property(
            parse_property("always (true)"), {})
        # live budget of 1 node is always exceeded after the first GC
        assert result.exploded

    def test_gc_preserves_verdict(self):
        # force GC every iteration; the verdict must be unchanged
        plain = SymbolicModelChecker(
            SymbolicModel(elaborate(_counter(width=3)))
        ).check_property(parse_property("always (!hit)"),
                         {"hit": ("top.hit", 0)})
        gc = SymbolicModelChecker(
            SymbolicModel(elaborate(_counter(width=3))),
            gc_threshold=1,
        ).check_property(parse_property("always (!hit)"),
                         {"hit": ("top.hit", 0)})
        assert plain.holds == gc.holds is False
        assert plain.counterexample_depth == gc.counterexample_depth

    def test_aux_slot_overflow_falls_back(self):
        model = SymbolicModel(elaborate(_counter(width=2)), aux_slots=1)
        names = model.alloc_aux_vars(3)
        assert len(names) == 3
        assert len(set(names)) == 3


class TestRunAccounting:
    def test_gc_keeps_cache_counters(self):
        # a GC every iteration swaps in fresh managers; the reported
        # counters must still include the original manager's work
        model = SymbolicModel(elaborate(_counter(width=4)))
        result = SymbolicModelChecker(model, gc_threshold=1).check_property(
            parse_property("always (true)"), {})
        assert result.holds is True
        original = model.manager.stats()
        assert result.bdd_stats["cache_misses"] >= original["cache_misses"]
        assert result.bdd_stats["cache_hits"] >= original["cache_hits"]


class TestBudgetNaming:
    """Every undecided verdict names the budget that ran out."""

    def _read_mode(self, **budgets):
        from repro.core.rulebase import check_read_mode_rtl

        return check_read_mode_rtl(1, datapath=False, coi=False, **budgets)

    def test_transient_budget_while_encoding(self):
        result = self._read_mode(transient_node_budget=100)
        assert result.exploded and result.holds is None
        assert result.bdd_stats["budget"] == "transient_node_budget"

    def test_transient_budget_while_embedding_the_automaton(self):
        model = SymbolicModel(elaborate(_counter(width=4)))
        model.manager.node_budget = model.manager.num_nodes
        result = SymbolicModelChecker(model).check_property(
            parse_property("always (hit -> next (hit | at0))"),
            {"hit": ("top.hit", 0), "at0": ("top.at0", 0)})
        assert result.exploded and result.iterations == 0
        assert result.bdd_stats["budget"] == "transient_node_budget"

    def test_transient_budget_during_reachability(self):
        def check(node_budget=None):
            model = SymbolicModel(elaborate(_counter(width=6)))
            model.manager.node_budget = node_budget
            bad = model.net_bit("top.hit")
            return SymbolicModelChecker(model).check_invariant(bad)

        # one node short of an unbounded run: the last image step trips it
        full = check()
        assert full.holds is False
        result = check(node_budget=full.bdd_stats["nodes"] - 2)
        assert result.exploded and result.iterations == full.iterations
        assert result.bdd_stats["budget"] == "transient_node_budget"

    def test_live_node_budget(self):
        result = self._read_mode(live_node_budget=1, gc_threshold=1)
        assert result.exploded and result.holds is None
        assert result.bdd_stats["budget"] == "live_node_budget"

    def test_deadline(self, monkeypatch):
        # a sweep's deadline never reaches an engine: inline, the
        # property running at it finishes and decides, and no later one
        # starts; forked, the properties running at it are killed
        from repro.core.properties import read_mode_suite
        from repro.mc import sweep, sweep_rtl_properties

        check = sweep.check_la1_property

        def overrun(*args, **kwargs):
            time.sleep(1.0)
            return check(*args, **kwargs)

        def hang(*args, **kwargs):
            time.sleep(60)

        def cut(report, ran):
            for name, result in report.results[ran:]:
                assert result.property_name == name
                assert result.holds is None and result.truncated
                assert result.bdd_stats == {"budget": "deadline_s"}

        suite = read_mode_suite(1)
        monkeypatch.setattr(sweep, "check_la1_property", overrun)
        inline = sweep_rtl_properties(1, suite, datapath=False,
                                      deadline_s=0.5)
        __, first = inline.results[0]
        assert first.holds is True and "budget" not in first.bdd_stats
        cut(inline, 1)
        assert inline.par_stats["timed_out"] == [1, 2]
        monkeypatch.setattr(sweep, "check_la1_property", hang)
        forked = sweep_rtl_properties(1, suite, datapath=False, jobs=2,
                                      deadline_s=1.0)
        cut(forked, 0)
        assert forked.par_stats["killed_workers"] == 2
        assert forked.par_stats["timed_out"] == [0, 1, 2]

    def test_decided_runs_name_no_budget(self):
        result = self._read_mode()
        assert result.holds is True
        assert "budget" not in result.bdd_stats

    def test_max_iterations(self):
        def check(max_iterations):
            model = SymbolicModel(elaborate(_counter(width=2)))
            return SymbolicModelChecker(model).check_invariant(
                model.net_bit("top.hit"), max_iterations=max_iterations)

        # hit is first reachable at depth 3: two images decide nothing
        short = check(2)
        assert short.truncated and short.holds is None
        assert short.iterations == 2
        assert short.bdd_stats["budget"] == "max_iterations"
        enough = check(3)
        assert enough.holds is False and enough.counterexample_depth == 3
        assert "budget" not in enough.bdd_stats

    def test_property_never_started_folds_undecided(self):
        # a sweep whose deadline passed as it began starts no property,
        # yet each stays in the conjunction as undecided
        from repro.core.properties import read_mode_suite
        from repro.mc import sweep_rtl_properties

        suite = read_mode_suite(1)[:2]
        report = sweep_rtl_properties(1, suite, datapath=False,
                                      deadline_s=0.0)
        assert [name for name, __ in report.results] == \
            [name for name, __ in suite]
        for name, skipped in report.results:
            assert skipped.property_name == name
            assert skipped.holds is None and skipped.truncated
            assert skipped.bdd_stats == {"budget": "deadline_s"}
        folded = report.combined()
        assert folded.holds is None and folded.truncated
        assert folded.bdd_stats["budget"] == "deadline_s"

    @pytest.mark.parametrize("budgets, combined", [
        (["live_node_budget", None, "live_node_budget"],
         "live_node_budget"),
        (["deadline_s", "live_node_budget", None, "deadline_s"],
         "deadline_s,live_node_budget"),
    ])
    def test_sweep_combination_keeps_budget_names(self, budgets, combined):
        from repro.mc import SymbolicCheckResult
        from repro.mc.sweep import PropertySweepReport

        results = []
        for index, budget in enumerate(budgets):
            stats = {"cache_hits": 1}
            if budget is not None:
                stats["budget"] = budget
            results.append((f"p{index}", SymbolicCheckResult(
                None if budget else True, 0.0, 0, 0, 1, 0.0,
                exploded=budget == "live_node_budget",
                truncated=budget == "deadline_s", bdd_stats=stats)))
        stats = PropertySweepReport(results).combined().bdd_stats
        assert stats == {"cache_hits": len(budgets), "budget": combined}


class TestSweepSpecErrors:
    """A spec error raises in the coordinator, naming the property,
    before any property starts; it is never retried into a quarantine."""

    @pytest.mark.parametrize("engine", ["bdd", "sat"])
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("text, message", [
        ("always (eventually! true)", "is not a safety property"),
        ("always (mystery)", "no label mapping for atom 'mystery'"),
    ], ids=["liveness", "unlabelled"])
    def test_sweep_raises_before_any_property(self, text, message, jobs,
                                              engine, monkeypatch):
        from repro.core.properties import read_mode_suite
        from repro.mc import sweep_rtl_properties

        def never_run(*args, **kwargs):
            raise AssertionError("a property started")

        monkeypatch.setattr("repro.par.run_supervised", never_run)
        suite = read_mode_suite(1)[:1] + [("bad", parse_property(text))]
        with pytest.raises(PslError, match=f"^bad: .*{message}"):
            sweep_rtl_properties(1, suite, datapath=False, jobs=jobs,
                                 engine=engine)
