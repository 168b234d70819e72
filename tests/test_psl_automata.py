"""Checker-automaton tests: determinisation agrees with the monitor."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.psl import (
    PropertyBank,
    PslError,
    PslMonitor,
    Verdict,
    build_checker,
    parse_property,
)

PROPERTIES = [
    "always (ok)",
    "always (req -> next[2] (ack))",
    "always (req -> next (ack))",
    "never {req & ack}",
    "never {req; !ack; !ack}",
    "always {req} |=> (ack)",
    "always {req; ack} |-> next (done)",
    "req until ack",
    "grant before use",
    "within![3] done",
    "always (a -> (b until c))",
]

_ATOMS = ["ok", "req", "ack", "done", "a", "b", "c", "grant", "use"]


def _traces(draw_atoms):
    return st.lists(
        st.fixed_dictionaries({a: st.booleans() for a in draw_atoms}),
        min_size=0, max_size=8,
    )


class TestConstruction:
    def test_simple_always_structure(self):
        checker = build_checker(parse_property("always (ok)"))
        assert checker.atoms == ["ok"]
        assert checker.num_states >= 1
        # from the initial state: ok -> same, !ok -> fail
        assert checker.transition(0, (True,)) != checker.FAIL_STATE
        assert checker.transition(0, (False,)) == checker.FAIL_STATE

    def test_accepting_sink(self):
        checker = build_checker(parse_property("within![1] done"))
        state = checker.transition(0, (True,))
        assert checker.is_accepting_sink(state)

    def test_strong_pending_detection(self):
        checker = build_checker(parse_property("within![3] done"))
        state = checker.transition(0, (False,))
        assert checker.has_strong_pending(state)

    def test_fail_state_is_absorbing(self):
        checker = build_checker(parse_property("always (ok)"))
        assert checker.transition(checker.FAIL_STATE, (True,)) == \
            checker.FAIL_STATE

    def test_atom_cap(self):
        text = "always (" + " & ".join(f"x{i}" for i in range(17)) + ")"
        with pytest.raises(PslError):
            build_checker(parse_property(text))

    def test_run_results(self):
        checker = build_checker(
            parse_property("always (req -> next (ack))"))
        holds_trace = [{"req": 1, "ack": 0}, {"req": 0, "ack": 1}]
        fails_trace = [{"req": 1, "ack": 0}, {"req": 0, "ack": 0}]
        assert checker.run(holds_trace) == ("holds", None)
        verdict, cycle = checker.run(fails_trace)
        assert verdict == "fails" and cycle == 1


class TestMonitorEquivalence:
    """The determinised automaton must agree with direct progression."""

    @pytest.mark.parametrize("text", PROPERTIES)
    def test_equivalence_on_directed_traces(self, text):
        prop = parse_property(text)
        checker = build_checker(prop)
        atoms = sorted(prop.atoms())
        # all traces of length <= 4 over the property's atoms
        from itertools import product

        for length in range(4):
            for bits in product([0, 1], repeat=length * len(atoms)):
                trace = []
                for i in range(length):
                    chunk = bits[i * len(atoms):(i + 1) * len(atoms)]
                    trace.append(dict(zip(atoms, chunk)))
                self._compare(prop, checker, trace)

    @staticmethod
    def _compare(prop, checker, trace):
        monitor = PslMonitor(prop)
        for valuation in trace:
            monitor.step(valuation)
        monitor_verdict = monitor.finish()
        checker_verdict, __ = checker.run(trace)
        expected = {
            Verdict.HOLDS: "holds",
            Verdict.FAILS: "fails",
        }[monitor_verdict]
        got = "fails" if checker_verdict == "fails" else (
            "fails" if checker_verdict == "pending" else "holds"
        )
        assert got == expected, (prop, trace)

    @settings(max_examples=150)
    @given(st.sampled_from(PROPERTIES), st.data())
    def test_equivalence_on_random_traces(self, text, data):
        prop = parse_property(text)
        atoms = sorted(prop.atoms())
        trace = data.draw(_traces(atoms))
        checker = build_checker(prop)
        self._compare(prop, checker, trace)

    @settings(max_examples=50)
    @given(_traces(["req", "ack"]))
    def test_failing_cycle_matches_monitor(self, trace):
        prop = parse_property("always (req -> next (ack))")
        monitor = PslMonitor(prop)
        for valuation in trace:
            monitor.step(valuation)
        checker = build_checker(prop)
        verdict, cycle = checker.run(trace)
        if monitor.verdict is Verdict.FAILS:
            assert verdict == "fails"
            assert cycle == monitor.failed_at


class TestPropertyBank:
    """One memoised product step agrees with stepping each checker."""

    @settings(max_examples=100)
    @given(st.lists(st.sampled_from(PROPERTIES), min_size=1, max_size=4),
           _traces(_ATOMS))
    def test_step_matches_each_checker(self, texts, trace):
        props = [parse_property(t) for t in texts]
        bank = PropertyBank(props)
        assert list(bank.atoms) == sorted(set().union(
            *(p.atoms() for p in props)))
        checkers = [build_checker(p) for p in props]
        states = bank.initial
        singles = [0] * len(props)
        assert states == (0,) * len(props)
        for valuation in trace:
            states = bank.step(states, tuple(valuation[a] for a in bank.atoms))
            singles = [c.transition(s, tuple(valuation[a] for a in c.atoms))
                       for c, s in zip(checkers, singles)]
            assert list(states) == singles

    def test_memo_holds_one_entry_per_distinct_transition(self):
        bank = PropertyBank([parse_property("always (req -> next (ack))"),
                             parse_property("never {req & ack}")])
        assert bank.atoms == ("ack", "req")
        states, keys = bank.initial, set()
        for label in [(False, True), (True, False)] * 10:
            keys.add((states, label))
            states = bank.step(states, label)
        assert len(bank._memo) == len(keys) <= 20

    def test_checkers_shared_across_banks(self):
        prop = parse_property("always (ok)")
        first, second = PropertyBank([prop]), PropertyBank([prop])
        assert first.checkers[0] is second.checkers[0]
        assert first._memo is not second._memo
