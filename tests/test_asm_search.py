"""The one breadth-first search over an ASM machine and its callers.

``repro.asm.exploration.search`` is the only exploration loop: the FSM
explorer, the model checker (``check_combined``, ``check_cover``),
conformance co-execution and the lint sweep step their own monitor
component through it.  An ASM fault of a campaign costs one search,
whose failed properties retire while the rest are stepped on.
"""

import pytest

from repro.asm import (
    AsmMachine,
    AsmModelChecker,
    ExplicitDomain,
    ExplorationConfig,
    Explorer,
    Implementation,
    Labeling,
    check_conformance,
    generate_transition_cover,
    replay_suite,
)
from repro.asm.exploration import search
from repro.core import La1AsmConfig, build_la1_asm
from repro.core.conformance import check_la1_conformance
from repro.core.properties import asm_labeling
from repro.core.refinement import check_asm_rtl_refinement
from repro.dsl.elab import check_dsl_conformance
from repro.dsl.zoo import build_elaborated, zoo_names
from repro.fault.asm_perturb import build_perturbed_la1_asm
from repro.fault.campaign import CampaignConfig, FaultCampaign, default_fault_list
from repro.fault.models import ASM_KINDS, AsmPerturbation
from repro.lint import sweep_states
from repro.psl import parse_property
from repro.psl.automata import CheckerAutomaton, PropertyBank


def _counter(limit=6):
    m = AsmMachine("counter")
    m.var("n", 0)
    m.rule("inc", lambda s: s["n"] < limit, lambda s: {"n": s["n"] + 1})
    m.rule("reset", lambda s: s["n"] == limit, lambda s: {"n": 0})
    return m


#: counter properties: the first fails at depth 4, the second holds and
#: the third fails at depth 2; ``always (!at0)`` would fail at reset
_COUNTER_LABELING = Labeling({
    "at2": lambda s: s["n"] == 2,
    "at4": lambda s: s["n"] == 4,
    "big": lambda s: s["n"] > 6,
    "at0": lambda s: s["n"] == 0,
})
_COUNTER_PROPS = [
    parse_property("always (!at4)"),
    parse_property("always (!big)"),
    parse_property("always (!at2)"),
]


def _replays_to_failure(machine, labeling, prop, trace):
    """``trace`` is a run of ``machine`` from reset on which ``prop``'s
    checker reaches FAIL at the last step, and not before."""
    bank = PropertyBank([prop])
    machine.reset()
    states = bank.initial
    for depth, (label, state) in enumerate(trace):
        if depth:
            (action,) = [a for a in machine.enabled_actions()
                         if a.label == label]
            machine.fire(action)
        else:
            assert label == "initial"
        assert dict(machine.snapshot()) == state
        assert CheckerAutomaton.FAIL_STATE not in states
        states = bank.step(states, tuple(
            bool(labeling.function(atom, state)(state))
            for atom in bank.atoms))
    assert states == (CheckerAutomaton.FAIL_STATE,)
    machine.reset()


def _assert_matches_standalone(machine, labeling, props, config=None):
    checker = AsmModelChecker(machine, labeling, config)
    combined = checker.check_combined(props)
    for index, prop in enumerate(props):
        alone = checker.check(prop)
        if alone.holds is False:
            trace = combined.failures[index]
            assert len(trace) == len(alone.counterexample)
            _replays_to_failure(machine, labeling, prop, trace)
        else:
            assert index not in combined.failures
            assert alone.holds is (None if combined.truncated_reason
                                   else True)
    return combined


class TestCheckCombinedRetires:
    def test_counter_properties_failing_at_different_depths(self):
        machine = _counter()
        combined = _assert_matches_standalone(machine, _COUNTER_LABELING,
                                              _COUNTER_PROPS)
        assert combined.holds is False
        assert sorted(combined.failures) == [0, 2]
        # the first failure found is the shallower one
        assert combined.counterexample == combined.failures[2]
        assert [label for label, __ in combined.counterexample] == \
            ["initial", "inc", "inc"]
        # a holding property keeps the search going to the end: n = 0..6
        # once more with both failures retired, until n == 4 repeats
        assert combined.truncated_reason == ""
        assert (combined.num_nodes, combined.num_transitions) == (11, 11)

    def test_every_property_failing_ends_the_search(self):
        machine = _counter()
        props = [_COUNTER_PROPS[0], _COUNTER_PROPS[2]]
        combined = _assert_matches_standalone(machine, _COUNTER_LABELING,
                                              props)
        assert sorted(combined.failures) == [0, 1]
        # stopped on the transition into n == 4: nodes 0..3 plus that one
        assert (combined.num_nodes, combined.num_transitions) == (5, 4)

    def test_initial_failure_retires_and_the_rest_is_searched(self):
        machine = _counter()
        props = [parse_property("always (!at0)"), _COUNTER_PROPS[0]]
        combined = _assert_matches_standalone(machine, _COUNTER_LABELING,
                                              props)
        assert combined.failures[0] == [("initial", {"n": 0})]
        assert 1 in combined.failures

    @pytest.mark.parametrize("kind", ASM_KINDS)
    @pytest.mark.parametrize("bank", [0, 1])
    def test_perturbed_bank_suites_at_two_banks(self, kind, bank):
        campaign = FaultCampaign(CampaignConfig(banks=2))
        suite = [prop for __, prop in campaign._asm_suite(bank)]
        machine = build_perturbed_la1_asm(La1AsmConfig(banks=2),
                                          AsmPerturbation(kind, bank))
        combined = _assert_matches_standalone(machine, asm_labeling(2), suite)
        assert combined.holds is False


class TestStateCap:
    def test_failure_past_the_state_cap_is_reported(self):
        # n == 4 is the fifth state: the cap of four refuses it, but the
        # failing transition into it is still seen
        checker = AsmModelChecker(_counter(), _COUNTER_LABELING,
                                  ExplorationConfig(max_states=4))
        result = checker.check(_COUNTER_PROPS[0])
        assert result.holds is False
        assert result.counterexample[-1] == ("inc", {"n": 4})
        assert result.num_nodes == 5
        combined = checker.check_combined(_COUNTER_PROPS[:2])
        assert sorted(combined.failures) == [0]
        assert combined.holds is False
        assert combined.truncated_reason == "bounds"

    @pytest.mark.parametrize("cap", [1, 5, 40])
    def test_explorer_records_no_state_past_the_cap(self, cap):
        machine = build_la1_asm(La1AsmConfig(banks=2))
        full = Explorer(machine).explore().fsm
        capped = Explorer(machine, ExplorationConfig(max_states=cap)).explore()
        assert capped.truncated and capped.truncated_reason == "bounds"
        fsm = capped.fsm
        assert fsm.states == full.states[:cap]
        assert all(t.dst < cap for t in fsm.transitions)
        # the capped FSM is the full one restricted to its states
        assert fsm.transitions == [t for t in full.transitions
                                   if t.src < cap and t.dst < cap]

    @pytest.mark.parametrize("cap", [1, 5, 40])
    def test_sweep_records_no_state_past_the_cap(self, cap):
        machine = build_la1_asm(La1AsmConfig(banks=2))
        full, capped = sweep_states(machine, 10_000)
        assert not capped and len(full) == 368
        snapshots, capped = sweep_states(machine, cap)
        assert capped
        assert snapshots == full[:cap]


class TestConformancePins:
    """Paths and steps of the co-execution, one node per action path."""

    @pytest.mark.parametrize("depth, paths, steps", [
        (4, 37, 112), (6, 113, 536), (8, 298, 1936),
    ])
    def test_la1_systemc(self, depth, paths, steps):
        result = check_la1_conformance(La1AsmConfig(banks=1),
                                       max_depth=depth, max_paths=100_000)
        assert result.conformant
        assert (result.paths_checked, result.steps_executed) == (paths, steps)

    @pytest.mark.parametrize("depth, paths, steps", [
        (4, 37, 112), (6, 113, 536),
    ])
    def test_la1_rtl_refinement(self, depth, paths, steps):
        result = check_asm_rtl_refinement(La1AsmConfig(banks=1),
                                          max_depth=depth, max_paths=100_000)
        assert result.conformant
        assert (result.paths_checked, result.steps_executed) == (paths, steps)

    @pytest.mark.parametrize("name, steps", [
        ("arbiter", 11712), ("fifo", 11712), ("noc", 7936), ("qdr", 10912),
    ])
    def test_zoo_designs_at_both_levels(self, name, steps):
        assert name in zoo_names()
        results = check_dsl_conformance(build_elaborated(name))
        for result in results.values():
            assert result.conformant
            assert (result.paths_checked, result.steps_executed) == \
                (4000, steps)


def _mode_machine():
    """A rule over a string domain in which one value reads as a number."""
    m = AsmMachine("modes")
    m.var("mode", "idle")
    m.rule("go", lambda s, to: to != s["mode"], lambda s, to: {"mode": to},
           domains={"to": ExplicitDomain("to", ["idle", "1", "run"])})
    return m


class _ModeImpl(Implementation):
    def __init__(self):
        self.mode = "idle"

    def reset(self):
        self.mode = "idle"

    def apply(self, rule_name, args):
        self.mode = args["to"]

    def observe(self):
        return {"mode": self.mode}


class TestRecordedActions:
    """Co-execution and suite replay hand the implementation the fired
    action's own arguments, never ones parsed back from its label."""

    def test_conformance_keeps_argument_types(self):
        result = check_conformance(_mode_machine(), _ModeImpl(), ["mode"],
                                   max_depth=3)
        assert result.conformant, result.divergence
        assert (result.paths_checked, result.steps_executed) == (14, 34)

    def test_replay_stays_on_recorded_states(self):
        machine = _mode_machine()
        fsm = Explorer(machine).explore().fsm
        assert fsm.num_nodes == 3
        suite = generate_transition_cover(fsm)
        visited = []
        machine.fire_observers.append(
            lambda m, action: visited.append(m.snapshot()))
        report = replay_suite(suite, machine, _ModeImpl(), ["mode"])
        assert report.passed
        assert len(visited) == suite.total_steps
        assert set(visited) <= set(fsm.states)


class TestOneSearchPerAsmFault:
    @pytest.fixture
    def searches(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0])
            return search(*args, **kwargs)

        monkeypatch.setattr("repro.asm.checker.search", spy)
        return calls

    @pytest.mark.parametrize("banks", [1, 2])
    def test_one_search_per_fault(self, searches, banks):
        campaign = FaultCampaign(CampaignConfig(banks=banks))
        faults = [f for f in default_fault_list(banks) if f.layer == "asm"]
        for count, fault in enumerate(faults, start=1):
            verdict = campaign._run_asm(fault)
            assert verdict.outcome == "detected"
            assert len(searches) == count

    def test_state_capped_fault_is_truncated_not_silent(self, monkeypatch):
        def capped(**kwargs):
            return ExplorationConfig(**{**kwargs, "max_states": 5})

        monkeypatch.setattr("repro.fault.campaign.ExplorationConfig", capped)
        campaign = FaultCampaign(CampaignConfig(banks=2))
        for kind in ("stall_read", "drop_commit"):
            verdict = campaign._run_asm(AsmPerturbation(kind, 0))
            assert verdict.outcome == "truncated"
            assert "max_states=5" in verdict.detail
            assert verdict.detected_by == []
