"""Unit tests for the OVL checker library and the ABV monitor framework."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.abv import AssertionMonitor, FailureAction, bind_atom, summarize
from repro.ovl import (
    Severity,
    assert_always,
    assert_cycle_sequence,
    assert_even_parity,
    assert_frame,
    assert_handshake,
    assert_implication,
    assert_never,
    assert_next,
    assert_unchanged,
)
from repro.psl import Verdict
from repro.psl.automata import CheckerAutomaton, PropertyBank
from repro.rtl import AssertionFailure, Mux, RtlModule, RtlSimulator
from repro.sysc import ClockPair, Event, Signal, Simulator


def _sim_with(builder):
    top = RtlModule("t")
    nets = builder(top)
    return RtlSimulator(top), nets


class TestOvlBasics:
    def test_assert_always_pass_and_fail(self):
        top = RtlModule("t")
        x = top.input("x", 1)
        assert_always(top, x.ref(), name="alw")
        sim = RtlSimulator(top)
        sim.set_input("t.x", 1)
        sim.cycle(2)
        assert sim.ok
        sim.set_input("t.x", 0)
        sim.cycle(1)
        assert not sim.ok
        assert "alw" in sim.failures[0].name

    def test_assert_never(self):
        top = RtlModule("t")
        x = top.input("x", 1)
        assert_never(top, x.ref(), name="nev")
        sim = RtlSimulator(top)
        sim.cycle(2)
        assert sim.ok
        sim.set_input("t.x", 1)
        sim.cycle(1)
        assert not sim.ok

    def test_monitor_clock_gating(self):
        # a K#-clocked monitor must not fire on K edges
        top = RtlModule("t")
        x = top.input("x", 1)
        assert_never(top, x.ref(), name="nev", clock="K#")
        sim = RtlSimulator(top)
        sim.set_input("t.x", 1)
        sim.step("K")
        assert sim.ok
        sim.step("K#")
        assert not sim.ok

    def test_severity_warning_does_not_fail(self):
        top = RtlModule("t")
        x = top.input("x", 1)
        assert_never(top, x.ref(), name="warn", severity=Severity.WARNING)
        sim = RtlSimulator(top)
        sim.set_input("t.x", 1)
        sim.cycle(1)
        assert sim.ok           # warnings are not failures
        assert sim.firings      # but they are recorded

    def test_stop_on_failure_raises(self):
        top = RtlModule("t")
        x = top.input("x", 1)
        assert_never(top, x.ref(), name="fatal")
        sim = RtlSimulator(top, stop_on_failure=True)
        sim.set_input("t.x", 1)
        with pytest.raises(AssertionFailure):
            sim.cycle(1)

    def test_assert_implication(self):
        top = RtlModule("t")
        a = top.input("a", 1)
        c = top.input("c", 1)
        assert_implication(top, a.ref(), c.ref(), name="imp")
        sim = RtlSimulator(top)
        sim.set_input("t.a", 1)
        sim.set_input("t.c", 1)
        sim.cycle(1)
        assert sim.ok
        sim.set_input("t.c", 0)
        sim.cycle(1)
        assert not sim.ok


class TestOvlTemporal:
    def test_assert_next_pass(self):
        top = RtlModule("t")
        s = top.input("s", 1)
        t = top.input("t", 1)
        assert_next(top, s.ref(), t.ref(), num_cks=2, name="nxt")
        sim = RtlSimulator(top)
        sim.set_input("t.s", 1)
        sim.step("K")
        sim.set_input("t.s", 0)
        sim.step("K#")
        sim.step("K")
        sim.step("K#")
        sim.set_input("t.t", 1)
        sim.step("K")
        assert sim.ok

    def test_assert_next_fail(self):
        top = RtlModule("t")
        s = top.input("s", 1)
        t = top.input("t", 1)
        assert_next(top, s.ref(), t.ref(), num_cks=1, name="nxt")
        sim = RtlSimulator(top)
        sim.set_input("t.s", 1)
        sim.step("K")
        sim.set_input("t.s", 0)
        sim.step("K#")
        sim.step("K")  # t still low one K-tick after s
        assert not sim.ok

    def test_assert_next_validation(self):
        top = RtlModule("t")
        s = top.input("s", 1)
        with pytest.raises(ValueError):
            assert_next(top, s.ref(), s.ref(), num_cks=0)

    def test_cycle_sequence(self):
        top = RtlModule("t")
        a = top.input("a", 1)
        b = top.input("b", 1)
        c = top.input("c", 1)
        assert_cycle_sequence(top, [a.ref(), b.ref(), c.ref()], name="seq")
        sim = RtlSimulator(top)
        # correct sequence a, b, c on consecutive K edges
        for pins in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)):
            sim.set_input("t.a", pins[0])
            sim.set_input("t.b", pins[1])
            sim.set_input("t.c", pins[2])
            sim.step("K")
            sim.step("K#")
        assert sim.ok
        # broken sequence: a then nothing
        sim.reset()
        sim.set_input("t.a", 1)
        sim.step("K")
        sim.set_input("t.a", 0)
        sim.step("K#")
        sim.step("K")
        assert not sim.ok

    def test_cycle_sequence_validation(self):
        top = RtlModule("t")
        a = top.input("a", 1)
        with pytest.raises(ValueError):
            assert_cycle_sequence(top, [a.ref()])

    def test_frame_window(self):
        top = RtlModule("t")
        s = top.input("s", 1)
        t = top.input("t", 1)
        assert_frame(top, s.ref(), t.ref(), 2, 3, name="frm")
        sim = RtlSimulator(top)
        # test at age 1 -> too early
        sim.set_input("t.s", 1)
        sim.cycle(1)
        sim.set_input("t.s", 0)
        sim.set_input("t.t", 1)
        sim.cycle(1)
        assert not sim.ok

    def test_frame_validation(self):
        top = RtlModule("t")
        s = top.input("s", 1)
        with pytest.raises(ValueError):
            assert_frame(top, s.ref(), s.ref(), 0, 2)
        with pytest.raises(ValueError):
            assert_frame(top, s.ref(), s.ref(), 3, 2)

    def test_unchanged(self):
        top = RtlModule("t")
        s = top.input("s", 1)
        v = top.input("v", 4)
        assert_unchanged(top, s.ref(), v.ref(), 3, name="unc")
        sim = RtlSimulator(top)
        sim.set_input("t.v", 9)
        sim.set_input("t.s", 1)
        sim.cycle(1)
        sim.set_input("t.s", 0)
        sim.cycle(3)
        assert sim.ok
        sim.reset()
        sim.set_input("t.v", 9)
        sim.set_input("t.s", 1)
        sim.cycle(1)
        sim.set_input("t.s", 0)
        sim.set_input("t.v", 5)  # changes within the window
        sim.cycle(1)
        assert not sim.ok

    def test_handshake(self):
        top = RtlModule("t")
        req = top.input("req", 1)
        ack = top.input("ack", 1)
        assert_handshake(top, req.ref(), ack.ref(), name="hs")
        sim = RtlSimulator(top)
        sim.set_input("t.req", 1)
        sim.cycle(1)
        sim.set_input("t.req", 0)
        sim.set_input("t.ack", 1)
        sim.cycle(1)
        sim.set_input("t.ack", 0)
        sim.cycle(1)
        assert sim.ok
        # spurious ack with nothing outstanding
        sim.set_input("t.ack", 1)
        sim.cycle(1)
        assert not sim.ok

    def test_even_parity_checker(self):
        top = RtlModule("t")
        d = top.input("d", 8)
        p = top.input("p", 1)
        v = top.input("v", 1)
        assert_even_parity(top, d.ref(), p.ref(), v.ref(), name="par")
        sim = RtlSimulator(top)
        sim.set_input("t.d", 0b1110)
        sim.set_input("t.p", 1)
        sim.set_input("t.v", 1)
        sim.cycle(1)
        assert sim.ok
        sim.set_input("t.p", 0)
        sim.cycle(1)
        assert not sim.ok

    def test_checker_adds_design_load(self):
        """The paper's Table 3 premise: each OVL call loads a module."""
        from repro.rtl import elaborate

        bare = RtlModule("t")
        x = bare.input("x", 1)
        out = bare.output("q", 1)
        bare.assign(out, x.ref())
        bare_nets = elaborate(bare).stats()["nets"]

        loaded = RtlModule("t")
        x = loaded.input("x", 1)
        out = loaded.output("q", 1)
        loaded.assign(out, x.ref())
        for i in range(5):
            assert_next(loaded, x.ref(), out.ref(), 2, name=f"a{i}")
        loaded_stats = elaborate(loaded).stats()
        assert loaded_stats["nets"] > bare_nets
        # one pipeline + one registered fire strobe per checker
        assert loaded_stats["regs"] == 10
        assert loaded_stats["monitors"] == 5


class TestAbvMonitors:
    def _system(self):
        sim = Simulator()
        clocks = ClockPair(sim, "K")
        sig = Signal(sim, "ok", True)
        return sim, clocks, sig

    def test_monitor_samples_on_trigger(self):
        sim, clocks, sig = self._system()
        monitor = AssertionMonitor("always (ok)", "m", {"ok": sig})
        monitor.attach(sim, clocks.posedge_k)
        sim.run(8)
        assert monitor.samples == 4
        assert monitor.verdict is Verdict.PENDING
        assert monitor.finish() is Verdict.HOLDS

    def test_monitor_detects_failure_and_reports(self):
        sim, clocks, sig = self._system()
        monitor = AssertionMonitor("always (ok)", "m", {"ok": sig},
                                   actions=(FailureAction.REPORT,))
        monitor.attach(sim, clocks.posedge_k)
        sim.run(4)
        sig.write(False)
        sim.run(4)
        assert monitor.verdict is Verdict.FAILS
        assert monitor.reports and "ASSERTION FIRED" in monitor.reports[0]

    def test_monitor_stops_simulation(self):
        sim, clocks, sig = self._system()
        monitor = AssertionMonitor(
            "always (ok)", "m", {"ok": sig},
            actions=(FailureAction.STOP,))
        monitor.attach(sim, clocks.posedge_k)
        sig.write_now(False)
        sim.run(100)
        assert sim.time < 100
        assert "fired" in (sim.stop_reason or "")

    def test_monitor_warning_signal(self):
        sim, clocks, sig = self._system()
        warn = Signal(sim, "warn", False)
        monitor = AssertionMonitor(
            "always (ok)", "m", {"ok": sig},
            actions=(FailureAction.WARN,))
        monitor.attach(sim, clocks.posedge_k, warning_signal=warn)
        sig.write_now(False)
        sim.run(4)
        assert warn.read() is True

    def test_unbound_atom_rejected(self):
        with pytest.raises(ValueError):
            AssertionMonitor("always (a & b)", "m", {"a": lambda: True})

    def test_bind_atom_variants(self):
        sim = Simulator()
        sig = Signal(sim, "s", 1)
        assert bind_atom(sig)() is True
        assert bind_atom(lambda: 0)() is False
        with pytest.raises(TypeError):
            bind_atom(42)

    def test_summary_report(self):
        sim, clocks, sig = self._system()
        good = AssertionMonitor("always (ok)", "good", {"ok": sig})
        bad = AssertionMonitor("always (!ok)", "bad", {"ok": sig})
        for monitor in (good, bad):
            monitor.attach(sim, clocks.posedge_k)
        sim.run(4)
        report = summarize([good, bad]).finish()
        assert not report.passed
        assert [m.name for m in report.failed] == ["bad"]
        assert "good" in report.render() and "FAIL" in report.render()

    def test_p_status_encoding(self):
        sim, clocks, sig = self._system()
        monitor = AssertionMonitor("always (ok)", "m", {"ok": sig})
        monitor.attach(sim, clocks.posedge_k)
        sim.run(2)
        assert not monitor.p_status and monitor.p_value


#: every read-mode monitor of a 1-bank device under each protocol
#: mutation of bank 0: (failed_at, first report line) of the monitors that
#: fire; the others hold.  Every monitor takes 1000 samples.
MUTATION_FIRINGS = {
    "drop_beat0": {
        "read_latency[0]": (17, "[read_latency[0]] ASSERTION FIRED at time "
                            "18: always ((read_req_0 -> next[4] "
                            "(data_valid_0))) with data_valid_0=0, "
                            "read_req_0=0"),
    },
    "drop_beat1": {
        "read_second_beat[0]": (18, "[read_second_beat[0]] ASSERTION FIRED "
                                "at time 19: always ((data_valid_0 -> "
                                "next[1] (data_valid2_0))) with "
                                "data_valid2_0=0, data_valid_0=0"),
    },
    "spurious_data": {
        "read_second_beat[0]": (2, "[read_second_beat[0]] ASSERTION FIRED "
                                "at time 3: always ((data_valid_0 -> "
                                "next[1] (data_valid2_0))) with "
                                "data_valid2_0=0, data_valid_0=0"),
        "no_spurious_data[0]": (1, "[no_spurious_data[0]] ASSERTION FIRED "
                                "at time 2: never {{!read_fetch_0} ; "
                                "{data_valid_0}} with data_valid_0=1, "
                                "read_fetch_0=0"),
    },
    "duplicate_command": {
        "read_latency[0]": (21, "[read_latency[0]] ASSERTION FIRED at time "
                            "22: always ((read_req_0 -> next[4] "
                            "(data_valid_0))) with data_valid_0=0, "
                            "read_req_0=1"),
    },
    "corrupt_parity": {
        "parity_even[0]": (17, "[parity_even[0]] ASSERTION FIRED at time "
                           "18: always (((data_valid_0 | data_valid2_0) -> "
                           "parity_ok_0)) with data_valid2_0=0, "
                           "data_valid_0=1, parity_ok_0=0"),
    },
}


class TestAbvUnderProtocolMutations:
    """The campaign's SystemC recipe on a 1-bank device: saboteur, then
    the read-mode monitors, then 40 seeded transactions."""

    @pytest.mark.parametrize("kind", sorted(MUTATION_FIRINGS))
    def test_monitor_outcomes(self, kind):
        from repro.core import La1Config, build_la1_system
        from repro.core.monitors import attach_read_mode_monitors
        from repro.core.traffic import queue_traffic
        from repro.fault import PROTOCOL_KINDS, ProtocolMutation
        from repro.fault.sysc_inject import ProtocolSaboteur

        assert set(MUTATION_FIRINGS) == set(PROTOCOL_KINDS)
        config = La1Config(banks=1)
        sim, clocks, device, host = build_la1_system(config)
        ProtocolSaboteur(sim, device, ProtocolMutation(kind, 0))
        monitors = attach_read_mode_monitors(sim, device, clocks)
        queue_traffic(host, config, 40, 2004)
        sim.run(40 * 20 + 200)
        summarize(monitors).finish()
        assert [m.name for m in monitors] == [
            "read_latency[0]", "read_second_beat[0]",
            "no_spurious_data[0]", "parity_even[0]"]
        fired = MUTATION_FIRINGS[kind]
        for monitor in monitors:
            assert monitor.samples == 1000
            if monitor.name in fired:
                assert monitor.verdict is Verdict.FAILS
                assert (monitor.monitor.failed_at, monitor.reports[0]) == \
                    fired[monitor.name]
            else:
                assert monitor.verdict is Verdict.HOLDS
                assert monitor.monitor.failed_at is None
                assert monitor.reports == []


class TestSharedSampler:
    """Monitors attached with the same triggers share one sampler; each
    samples and decides exactly as when attached alone."""

    def _run(self, names):
        from repro.psl import ModelingLayer
        from repro.psl import builder as B

        sim = Simulator()
        clocks = ClockPair(sim, "K")
        a = Signal(sim, "a", True)
        b = Signal(sim, "b", False)
        layer = ModelingLayer()
        either = layer.define("either", B.atom("a") | B.atom("b"))
        monitors = {
            "compiled": (AssertionMonitor("always (a -> next b)", "compiled",
                                          {"a": a, "b": b}),
                         clocks.posedge_k),
            "modeling": (AssertionMonitor(B.always(either), "modeling",
                                          {"a": a, "b": b}, modeling=layer),
                         clocks.posedge_k),
            "other": (AssertionMonitor("always (a)", "other", {"a": a}),
                      clocks.posedge_k_bar),
        }
        for name in names:
            monitor, trigger = monitors[name]
            monitor.attach(sim, trigger)
        sim.run(12)
        return {name: monitors[name][0] for name in names}

    def test_each_samples_as_when_alone(self):
        shared = self._run(["compiled", "modeling", "other"])
        assert shared["compiled"]._checker is not None
        assert shared["modeling"]._checker is None
        assert shared["compiled"]._sampler is shared["modeling"]._sampler
        assert shared["other"]._sampler is not shared["compiled"]._sampler
        for name, monitor in shared.items():
            alone = self._run([name])[name]
            assert monitor.samples == alone.samples > 0
            assert monitor.finish() is alone.finish()
            assert monitor.monitor.failed_at == alone.monitor.failed_at
        assert shared["compiled"].verdict is Verdict.FAILS

    def test_atom_bound_to_another_source_gets_own_sampler(self):
        sim = Simulator()
        clocks = ClockPair(sim, "K")
        high = Signal(sim, "high", True)
        low = Signal(sim, "low", False)
        on_high = AssertionMonitor("always (x)", "on_high", {"x": high})
        on_low = AssertionMonitor("always (x)", "on_low", {"x": low})
        for monitor in (on_high, on_low):
            monitor.attach(sim, clocks.posedge_k)
        sim.run(4)
        assert on_high._sampler is not on_low._sampler
        assert on_high.finish() is Verdict.HOLDS
        assert on_low.verdict is Verdict.FAILS
        assert on_high.samples == on_low.samples == 2

    def test_attaching_twice_is_rejected(self):
        sim = Simulator()
        clocks = ClockPair(sim, "K")
        monitor = AssertionMonitor("always (ok)", "m",
                                   {"ok": Signal(sim, "ok", True)})
        monitor.attach(sim, clocks.posedge_k)
        with pytest.raises(ValueError, match="already sampled"):
            monitor.attach(sim, clocks.posedge_k_bar)

    def test_stop_ends_the_sample_for_later_monitors(self):
        """A STOP fired by one monitor ends the delta: a monitor attached
        after it neither counts nor steps that sample."""
        sim = Simulator()
        clocks = ClockPair(sim, "K")
        ok = Signal(sim, "ok", False)
        req = Signal(sim, "req", True)
        ack = Signal(sim, "ack", False)
        stopper = AssertionMonitor("always (ok)", "stopper", {"ok": ok},
                                   actions=(FailureAction.STOP,))
        later = AssertionMonitor("always (req -> within![2] ack)", "later",
                                 {"req": req, "ack": ack})
        for monitor in (stopper, later):
            monitor.attach(sim, clocks.posedge_k)
        sim.run(8)
        assert stopper.verdict is Verdict.FAILS
        assert (stopper.samples, later.samples) == (1, 0)
        # unstepped, ``later`` has no strong obligation pending
        assert later.finish() is Verdict.HOLDS


# ----------------------------------------------------------------------
# the sampler against the settle-every-monitor-every-sample reference
# ----------------------------------------------------------------------
class _Feeder:
    """The atom values of the current sample; every binding reads it."""

    def __init__(self):
        self.current = dict.fromkeys("abc", False)
        self.bindings = {atom: (lambda atom=atom: self.current[atom])
                         for atom in "abc"}


class _WarningLog:
    """Stands in for a warning signal and records every write."""

    def __init__(self):
        self.writes = []

    def write(self, value):
        self.writes.append(value)


class _ReferenceSampler:
    """The reference sampler: every sample steps a property bank over the
    compiled monitors, then settles every monitor in attach order; a STOP
    ends the sample for the monitors after it."""

    def __init__(self):
        self.monitors = []
        self.samples = {}
        self.bank = PropertyBank(())
        self.states = ()

    def add(self, monitor):
        self.monitors.append(monitor)
        self.samples[monitor.name] = 0
        if monitor._checker is not None:
            self.bank = PropertyBank([m.prop for m in self.monitors
                                      if m._checker is not None])
            self.states += (0,)

    def sample(self, current):
        before = self.states
        self.states = self.bank.step(
            before, tuple(current[atom] for atom in self.bank.atoms))
        slot = 0
        for n, monitor in enumerate(self.monitors, 1):
            if self._settle(monitor, slot, current):
                done = sum(m._checker is not None
                           for m in self.monitors[:n])
                self.states = self.states[:done] + before[done:]
                return
            slot += monitor._checker is not None

    def _settle(self, monitor, slot, current):
        self.samples[monitor.name] += 1
        checker = monitor._checker
        reads = monitor._bindings if checker is None else checker.atoms
        valuation = {atom: current[atom] for atom in reads}
        for observer in monitor.sample_observers:
            observer(valuation)
        psl = monitor.monitor
        if checker is None:
            before = psl.verdict
            verdict = psl.step(valuation)
            return (verdict is Verdict.FAILS and before is not Verdict.FAILS
                    and monitor._fire(valuation))
        if psl.verdict is not Verdict.PENDING:
            return False
        state = self.states[slot]
        if state == CheckerAutomaton.FAIL_STATE:
            psl.verdict = Verdict.FAILS
            psl.failed_at = self.samples[monitor.name] - 1
            return monitor._fire(valuation)
        if checker.is_accepting_sink(state):
            psl.verdict = Verdict.HOLDS
        return False


def _pool_monitor(index, name, actions, bindings):
    from repro.psl import ModelingLayer
    from repro.psl import builder as B

    if index == len(_POOL):
        # a modeling-layer monitor is never compiled
        layer = ModelingLayer()
        either = layer.define("either", B.atom("a") | B.atom("b"))
        return AssertionMonitor(B.always(B.implies(either, B.atom("c"))),
                                name, bindings, actions, modeling=layer)
    return AssertionMonitor(_POOL[index], name, bindings, actions)


_POOL = [
    "always (a -> next b)",
    "always (!c)",
    "next a",  # accepting sink: HOLDS latches
    "never {a; b}",
    "always (b -> within![2] c)",
    "a until b",
    "always (a -> eventually! b)",  # not a safety property: uncompiled
]
_ACTIONS = (FailureAction.REPORT, FailureAction.STOP, FailureAction.WARN)


def _run_sampling(specs, trace, toggles, reference):
    """Sample ``trace`` with one monitor per ``(pool index, action mask,
    join sample)`` spec; ``toggles`` adds or removes monitor ``n``'s
    observer before sample ``k``.  Returns what each monitor did."""
    feeder = _Feeder()
    sim = Simulator()
    trigger = Event(sim, "sample")
    monitors, warnings, observers, log = [], [], [], []
    for n, (index, mask, __) in enumerate(specs):
        actions = tuple(a for bit, a in enumerate(_ACTIONS) if mask >> bit & 1)
        monitors.append(_pool_monitor(index, f"m{n}", actions,
                                      feeder.bindings))
        warnings.append(_WarningLog())
        observers.append(lambda valuation, name=f"m{n}":
                         log.append((name, dict(valuation))))
    reference_sampler = _ReferenceSampler()
    sampler = None  # sampling starts when the first monitor joins
    states = []
    for k, current in enumerate(trace):
        for n, (__, __, join) in enumerate(specs):
            if join != k:
                continue
            if reference:
                monitors[n]._sim = sim
                monitors[n].warning = warnings[n]
                sampler = reference_sampler
                sampler.add(monitors[n])
            else:
                monitors[n].attach(sim, trigger, warning_signal=warnings[n])
                sampler = monitors[n]._sampler
        for at, n in toggles:
            if at == k:
                hooks = monitors[n % len(specs)].sample_observers
                observer = observers[n % len(specs)]
                if observer in hooks:
                    hooks.remove(observer)
                else:
                    hooks.append(observer)
        feeder.current = current
        if sampler is None:
            continue
        if reference:
            sampler.sample(current)
        else:
            sampler.sample()
        states.append(sampler.states)
        if sim._stop_requested:
            break
    return {
        "monitors": [(m.name,
                      reference_sampler.samples.get(m.name, 0) if reference
                      else m.samples,
                      m.verdict, m.monitor.failed_at, m.reports)
                     for m in monitors],
        "warnings": [w.writes for w in warnings],
        "observed": log,
        "states": states,
        "stopped": sim.stop_reason,
    }


class TestSamplerAgainstReference:
    """Settling only uncompiled, observed and latching monitors decides,
    counts, reports and observes exactly as settling every monitor on
    every sample."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, len(_POOL)), st.integers(0, 7),
                           st.integers(0, 4)), min_size=1, max_size=6),
        st.lists(st.fixed_dictionaries({a: st.booleans() for a in "abc"}),
                 max_size=14),
        st.lists(st.tuples(st.integers(0, 13), st.integers(0, 5)),
                 max_size=6),
    )
    # a STOP in the middle of a sample, with uncompiled monitors after it
    @example([(0, 1, 0), (1, 3, 0), (6, 5, 0), (7, 5, 0)],
             [{"a": True, "b": False, "c": False},
              {"a": False, "b": False, "c": True}], [])
    # ``next a`` latches HOLDS at its sink; a monitor joins late
    @example([(2, 1, 0), (4, 4, 2)],
             [{"a": False, "b": True, "c": False},
              {"a": True, "b": False, "c": False},
              {"a": False, "b": True, "c": False},
              {"a": False, "b": False, "c": False},
              {"a": False, "b": False, "c": False}], [(1, 0), (3, 0)])
    def test_same_outcomes(self, specs, trace, toggles):
        assert _run_sampling(specs, trace, toggles, reference=False) == \
            _run_sampling(specs, trace, toggles, reference=True)

    def test_a_passing_run_settles_no_compiled_monitor(self, monkeypatch):
        """The read-mode monitors watch 20 transactions on one bank: no
        verdict latches, so no monitor is settled; an observer makes its
        monitor settle on every sample."""
        from repro.core import La1Config, build_la1_system
        from repro.core.monitors import attach_read_mode_monitors
        from repro.core.traffic import queue_traffic

        settled = []
        settle = AssertionMonitor._settle
        monkeypatch.setattr(AssertionMonitor, "_settle",
                            lambda self, values: settled.append(self.name)
                            or settle(self, values))
        config = La1Config(banks=1)
        sim, clocks, device, host = build_la1_system(config)
        monitors = attach_read_mode_monitors(sim, device, clocks)
        queue_traffic(host, config, 20, 2004)
        sim.run(300)
        assert settled == []
        assert all(m.samples == 300 for m in monitors)
        seen = []
        monitors[1].sample_observers.append(seen.append)
        sim.run(10)
        assert len(seen) == 10
        assert settled == [monitors[1].name] * 10
        assert summarize(monitors).finish().passed
