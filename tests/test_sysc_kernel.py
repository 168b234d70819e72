"""Unit tests for the event-driven simulation kernel."""

import pytest

from repro.sysc import (
    Event,
    MethodProcess,
    Signal,
    SimulationError,
    Simulator,
    ThreadProcess,
    wait_for,
    wait_time,
)


class TestEvents:
    def test_immediate_notify_fires_now(self):
        sim = Simulator()
        sim.initialize()
        event = Event(sim, "e")
        log = []
        p = MethodProcess(sim, "p", lambda: log.append(sim.time))
        p.make_sensitive(event)
        event.notify(0)
        sim.run(0)
        assert log == [0]

    def test_delta_notify(self):
        sim = Simulator()
        event = Event(sim, "e")
        log = []
        p = MethodProcess(sim, "p", lambda: log.append(sim.delta_count))
        p.make_sensitive(event)
        sim.initialize()
        event.notify()  # delta
        sim.run(0)
        # one run at init (delta 0) plus one at the delta notification
        assert len(log) == 2

    def test_timed_notify(self):
        sim = Simulator()
        event = Event(sim, "e")
        times = []
        p = MethodProcess(sim, "p", lambda: times.append(sim.time))
        p.make_sensitive(event)
        event.notify(5)
        sim.run(10)
        assert times == [0, 5]  # init + timed

    def test_negative_delay_rejected(self):
        sim = Simulator()
        event = Event(sim, "e")
        with pytest.raises(ValueError):
            event.notify(-1)

    def test_remove_static(self):
        sim = Simulator()
        event = Event(sim, "e")
        log = []
        p = MethodProcess(sim, "p", lambda: log.append(1))
        p.make_sensitive(event)
        event.remove_static(p)
        sim.initialize()
        log.clear()
        event.notify(0)
        sim.run(0)
        assert log == []


class TestMethodProcesses:
    def test_initialization_runs_every_process(self):
        sim = Simulator()
        log = []
        MethodProcess(sim, "a", lambda: log.append("a"))
        MethodProcess(sim, "b", lambda: log.append("b"))
        sim.initialize()
        assert sorted(log) == ["a", "b"]

    def test_trigger_attribute(self):
        sim = Simulator()
        event = Event(sim, "e")
        seen = []
        p = MethodProcess(sim, "p", lambda: seen.append(p.trigger))
        p.make_sensitive(event)
        sim.initialize()
        event.notify(0)
        sim.run(0)
        assert seen[0] is None          # init has no trigger
        assert seen[1] is event


class TestThreadProcesses:
    def test_wait_time_sequence(self):
        sim = Simulator()
        times = []

        def thread():
            times.append(sim.time)
            yield wait_time(3)
            times.append(sim.time)
            yield wait_time(4)
            times.append(sim.time)

        ThreadProcess(sim, "t", thread)
        sim.run(20)
        assert times == [0, 3, 7]

    def test_wait_for_event(self):
        sim = Simulator()
        event = Event(sim, "go")
        log = []

        def thread():
            yield wait_for(event)
            log.append(sim.time)

        ThreadProcess(sim, "t", thread)
        event.notify(6)
        sim.run(10)
        assert log == [6]

    def test_wait_for_any_of_two(self):
        sim = Simulator()
        a = Event(sim, "a")
        b = Event(sim, "b")
        log = []

        def thread():
            yield wait_for(a, b)
            log.append(sim.time)

        ThreadProcess(sim, "t", thread)
        b.notify(2)
        a.notify(8)
        sim.run(10)
        assert log == [2]

    def test_thread_termination(self):
        sim = Simulator()

        def thread():
            yield wait_time(1)

        t = ThreadProcess(sim, "t", thread)
        sim.run(5)
        assert t._terminated

    def test_bad_yield_raises(self):
        sim = Simulator()

        def thread():
            yield 42

        ThreadProcess(sim, "t", thread)
        with pytest.raises(SimulationError):
            sim.run(1)

    def test_wait_validation(self):
        with pytest.raises(ValueError):
            wait_time(0)
        with pytest.raises(ValueError):
            wait_for()

    def test_clocked_run_builds_no_event_after_the_first_wait(
            self, monkeypatch):
        """A thread reuses one timeout event for every ``wait_time``: a
        clock pair's 10,000-unit run constructs no event at all."""
        from repro.sysc import ClockPair

        sim = Simulator()
        clocks = ClockPair(sim, "K")
        edges = []
        edge = MethodProcess(sim, "edge", lambda: edges.append(sim.time))
        edge.make_sensitive(clocks.posedge_k)
        sim.initialize()  # the clock thread's first wait
        built = []
        init = Event.__init__
        monkeypatch.setattr(
            Event, "__init__",
            lambda self, *args, **kwargs: built.append(args)
            or init(self, *args, **kwargs))
        sim.run(10_000)
        assert built == []
        # K rises every other time unit; the init run logs time 0 too
        assert edges == [0] + list(range(2, 10_001, 2))

    def test_successive_waits_keep_time_and_order(self):
        """A thread's successive waits interleave with other timed
        notifications by time, then by the order they were requested."""
        sim = Simulator()
        event = Event(sim, "e")
        log = []

        def thread():
            for delay in (3, 2, 4):
                yield wait_time(delay)
                log.append(("thread", sim.time))

        def on_event():
            if process.trigger is None:
                return
            log.append(("event", sim.time))
            if sim.time == 8:
                event.notify(1)  # requested after the thread's wait to 9

        process = MethodProcess(sim, "m", on_event)
        process.make_sensitive(event)
        for at in (3, 5, 8):
            event.notify(at)  # requested before any of the thread's waits
        ThreadProcess(sim, "t", thread)
        sim.run(20)
        assert log == [("event", 3), ("thread", 3), ("event", 5),
                       ("thread", 5), ("event", 8), ("thread", 9),
                       ("event", 9)]


class TestScheduler:
    def test_run_without_duration_stops_at_quiescence(self):
        sim = Simulator()
        event = Event(sim, "e")
        log = []
        p = MethodProcess(sim, "p", lambda: log.append(sim.time))
        p.make_sensitive(event)
        event.notify(7)
        end = sim.run()
        assert end == 7

    def test_run_duration_advances_time_even_when_idle(self):
        sim = Simulator()
        sim.run(25)
        assert sim.time == 25

    def test_request_stop(self):
        sim = Simulator()

        def thread():
            while True:
                yield wait_time(1)
                if sim.time >= 3:
                    sim.request_stop("done")

        ThreadProcess(sim, "t", thread)
        sim.run(100)
        assert sim.time == 3
        assert sim.stop_reason == "done"

    def test_delta_cycles_counted(self):
        sim = Simulator()
        sig = Signal(sim, "s", 0)
        log = []
        p = MethodProcess(sim, "p", lambda: log.append(sig.read()))
        p.make_sensitive(sig.changed)
        sim.initialize()
        sig.write(1)
        before = sim.delta_count
        sim.run(0)
        assert sim.delta_count > before

    def test_pending_activity(self):
        sim = Simulator()
        event = Event(sim, "e")
        event.notify(10)
        assert sim.pending_activity()
        sim.run(20)
        assert not sim.pending_activity()

    def test_chained_delta_evaluation(self):
        # a writes s1 -> p1 writes s2 -> p2 observes, all at time 0
        sim = Simulator()
        s1 = Signal(sim, "s1", 0)
        s2 = Signal(sim, "s2", 0)
        seen = []

        def p1():
            if s1.read():
                s2.write(s1.read() + 1)

        def p2():
            seen.append(s2.read())

        mp1 = MethodProcess(sim, "p1", p1)
        mp1.make_sensitive(s1.changed)
        mp2 = MethodProcess(sim, "p2", p2)
        mp2.make_sensitive(s2.changed)
        sim.initialize()
        s1.write(1)
        sim.run(0)
        assert seen[-1] == 2
        assert sim.time == 0
