"""Event-driven simulation kernel (the SystemC core).

SystemC's core language "consists of an event-driven simulator as the base;
it works with events and processes" (paper, Section 2.1).  This module is
that base:

* :class:`Event` -- notification primitive; processes subscribe statically
  (sensitivity) or dynamically (``wait``).
* :class:`Process` -- a schedulable unit.  Two flavours mirror SystemC:
  *method* processes (:class:`MethodProcess`, like ``SC_METHOD``) re-run
  from the top on every trigger, and *thread* processes
  (:class:`ThreadProcess`, like ``SC_THREAD``) are Python generators that
  suspend by yielding wait requests.
* :class:`Simulator` -- the scheduler.  It implements the canonical
  evaluate / update / delta-notification loop and a timed event queue.

Time is a dimensionless non-negative integer.  One LA-1 clock period is two
time units by convention (K rises on even times, K# on odd times), so
"cycles" in the paper map directly onto time.
"""

from __future__ import annotations

import heapq
from typing import Callable, Generator, Optional

__all__ = [
    "Event",
    "Process",
    "MethodProcess",
    "ThreadProcess",
    "Simulator",
    "SimulationError",
    "wait_for",
    "wait_time",
]


class SimulationError(Exception):
    """Raised on kernel misuse (e.g. writing a signal outside a simulation)."""


class Event:
    """A SystemC-style event.

    Events carry no value; they wake the processes that are statically
    sensitive to them or dynamically waiting on them.  ``notify`` supports
    the three SystemC flavours: immediate, delta-delayed and time-delayed.
    """

    __slots__ = ("name", "sim", "_static", "_dynamic", "_delta_pending")

    def __init__(self, sim: "Simulator", name: str = "event"):
        self.name = name
        self.sim = sim
        self._static: list[Process] = []
        self._dynamic: list[Process] = []
        # set while a delta notification of this event is scheduled
        self._delta_pending = False

    def add_static(self, process: "Process") -> None:
        """Statically sensitise ``process`` to this event."""
        if process not in self._static:
            self._static.append(process)

    def remove_static(self, process: "Process") -> None:
        """Drop ``process`` from the static sensitivity list."""
        if process in self._static:
            self._static.remove(process)

    def add_dynamic(self, process: "Process") -> None:
        """One-shot (dynamic) wait of ``process`` on this event."""
        if process not in self._dynamic:
            self._dynamic.append(process)

    def notify(self, delay: Optional[int] = None) -> None:
        """Notify the event.

        ``delay=None`` requests a *delta* notification (fires in the next
        delta cycle at the current time); ``delay=0`` is immediate;
        ``delay=n`` fires ``n`` time units in the future.
        """
        if delay is None:
            self.sim._schedule_delta_notify(self)
        elif delay == 0:
            self._fire()
        else:
            if delay < 0:
                raise ValueError("event delay must be >= 0")
            self.sim._schedule_timed_notify(self, delay)

    def _fire(self) -> None:
        woken = self._static
        if self._dynamic:
            woken = woken + self._dynamic
            self._dynamic = []
        # Simulator._make_runnable, inlined: the kernel's hottest loop
        runnable = self.sim._runnable
        for process in woken:
            if not (process._terminated or process._runnable):
                process._runnable = True
                process.trigger = self
                runnable.append(process)

    def __repr__(self) -> str:
        return f"Event({self.name!r})"


class _WaitRequest:
    """Base class of the values thread processes ``yield`` to suspend."""

    __slots__ = ()


class _WaitEvent(_WaitRequest):
    __slots__ = ("events",)

    def __init__(self, events: tuple[Event, ...]):
        self.events = events


class _WaitTime(_WaitRequest):
    __slots__ = ("delay",)

    def __init__(self, delay: int):
        self.delay = delay


def wait_for(*events: Event) -> _WaitRequest:
    """Yielded by a thread process to wait on any of ``events``."""
    if not events:
        raise ValueError("wait_for needs at least one event")
    return _WaitEvent(tuple(events))


def wait_time(delay: int) -> _WaitRequest:
    """Yielded by a thread process to wait ``delay`` time units."""
    if delay <= 0:
        raise ValueError("wait_time delay must be > 0")
    return _WaitTime(delay)


class Process:
    """A schedulable unit of behaviour owned by the simulator."""

    def __init__(self, sim: "Simulator", name: str):
        self.sim = sim
        self.name = name
        self.trigger: Optional[Event] = None
        self._runnable = False
        self._terminated = False
        sim._register_process(self)

    def make_sensitive(self, *events: Event) -> None:
        """Statically sensitise this process to ``events``."""
        for event in events:
            event.add_static(self)

    def run(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class MethodProcess(Process):
    """An ``SC_METHOD``-style process: a callable re-run on every trigger."""

    def __init__(self, sim: "Simulator", name: str, fn: Callable[[], None]):
        super().__init__(sim, name)
        self.fn = fn

    def run(self) -> None:
        self.fn()


class ThreadProcess(Process):
    """An ``SC_THREAD``-style process implemented as a Python generator.

    The generator function receives no arguments and suspends by yielding
    :func:`wait_for` / :func:`wait_time` requests.  Returning (or raising
    ``StopIteration``) terminates the process permanently.
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        genfn: Callable[[], Generator[_WaitRequest, None, None]],
    ):
        super().__init__(sim, name)
        self._genfn = genfn
        self._gen: Optional[Generator[_WaitRequest, None, None]] = None
        # one timeout event, reused by every wait_time of this thread
        self._timeout: Optional[Event] = None

    def run(self) -> None:
        if self._terminated:
            return
        if self._gen is None:
            self._gen = self._genfn()
        try:
            request = next(self._gen)
        except StopIteration:
            self._terminated = True
            return
        self._handle(request)

    def _handle(self, request: _WaitRequest) -> None:
        if isinstance(request, _WaitEvent):
            for event in request.events:
                event.add_dynamic(self)
        elif isinstance(request, _WaitTime):
            wake = self._timeout
            if wake is None:
                wake = self._timeout = Event(self.sim, f"{self.name}.timeout")
            wake.add_dynamic(self)
            wake.notify(request.delay)
        else:
            raise SimulationError(
                f"thread {self.name} yielded {request!r}; "
                "yield wait_for(...) or wait_time(...)"
            )


class Simulator:
    """The evaluate/update/delta scheduler.

    The scheduling algorithm follows the SystemC LRM:

    1. *Evaluate*: run every runnable process.  Processes may write
       signals (requests queued for the update phase) and notify events.
    2. *Update*: commit queued primitive-channel updates; channels whose
       value changed schedule delta notifications.
    3. *Delta notification*: fire pending delta notifications, which may
       make more processes runnable; if so, loop back to 1 (one *delta
       cycle* elapsed, simulated time unchanged).
    4. Otherwise advance time to the earliest timed notification and fire
       everything scheduled there.
    """

    def __init__(self) -> None:
        self.time = 0
        self.delta_count = 0
        self._runnable: list[Process] = []
        self._update_queue: list = []  # objects with a _update() method
        self._delta_notifications: list[Event] = []
        self._timed: list[tuple[int, int, Event]] = []
        self._seq = 0
        self._processes: list[Process] = []
        self._initialized = False
        self._stop_requested = False
        self.stop_reason: Optional[str] = None
        self.abort_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # registration hook (used by the Process constructor)
    # ------------------------------------------------------------------
    def _register_process(self, process: Process) -> None:
        self._processes.append(process)

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def _make_runnable(self, process: Process, trigger: Optional[Event]) -> None:
        if process._terminated or process._runnable:
            return
        process._runnable = True
        process.trigger = trigger
        self._runnable.append(process)

    def _schedule_update(self, channel) -> None:
        # a channel queues itself at most once per update phase (its
        # ``_pending`` flag), so the queue needs no membership test
        self._update_queue.append(channel)

    def _schedule_delta_notify(self, event: Event) -> None:
        if not event._delta_pending:
            event._delta_pending = True
            self._delta_notifications.append(event)

    def _schedule_timed_notify(self, event: Event, delay: int) -> None:
        self._seq += 1
        heapq.heappush(self._timed, (self.time + delay, self._seq, event))

    def request_stop(self, reason: str = "sc_stop") -> None:
        """Stop the simulation at the end of the current delta (``sc_stop``)."""
        self._stop_requested = True
        self.stop_reason = reason

    def _abort(self, diagnostic: str) -> None:
        """Poison the kernel after a process blew up mid-delta.

        A half-executed delta cycle has no consistent resume point: some
        processes ran, some updates are uncommitted.  Rather than letting
        a later ``run`` silently drop those events, the kernel discards
        all pending activity and refuses further execution with the
        original diagnostic.
        """
        self.abort_reason = diagnostic
        self._stop_requested = True
        self.stop_reason = diagnostic
        self._runnable.clear()
        self._update_queue.clear()
        for event in self._delta_notifications:
            event._delta_pending = False
        self._delta_notifications.clear()
        self._timed.clear()

    def _check_not_aborted(self) -> None:
        if self.abort_reason is not None:
            raise SimulationError(
                f"simulation was aborted and cannot continue: "
                f"{self.abort_reason}"
            )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def initialize(self) -> None:
        """Run every process once (the SystemC initialization phase)."""
        self._check_not_aborted()
        if self._initialized:
            return
        self._initialized = True
        for process in list(self._processes):
            self._make_runnable(process, None)
        self._delta_loop()

    def run(self, duration: Optional[int] = None) -> int:
        """Advance the simulation.

        With ``duration=None`` runs until no activity remains; otherwise
        runs at most ``duration`` time units past the current time.
        Returns the simulated time at exit.
        """
        self._check_not_aborted()
        self.initialize()
        end_time = None if duration is None else self.time + duration
        while not self._stop_requested:
            self._delta_loop()
            if self._stop_requested or not self._timed:
                break
            next_time = self._timed[0][0]
            if end_time is not None and next_time > end_time:
                self.time = end_time
                break
            self.time = next_time
            while self._timed and self._timed[0][0] == self.time:
                __, __, event = heapq.heappop(self._timed)
                event._fire()
        if end_time is not None and self.time < end_time and not self._stop_requested:
            self.time = end_time
        return self.time

    def _delta_loop(self) -> None:
        while (self._runnable or self._update_queue or self._delta_notifications) \
                and not self._stop_requested:
            # evaluate
            runnable, self._runnable = self._runnable, []
            for process in runnable:
                process._runnable = False
                try:
                    process.run()
                except SimulationError as exc:
                    # kernel misuse already carries its diagnostic; the
                    # delta cycle is still half-executed, so poison
                    process._terminated = True
                    self._abort(str(exc))
                    raise
                except Exception as exc:
                    # a faulty process must terminate the simulation with
                    # a diagnostic naming it, not wedge the kernel
                    process._terminated = True
                    diagnostic = (
                        f"process {process.name!r} raised "
                        f"{type(exc).__name__}: {exc} at time {self.time} "
                        f"(delta {self.delta_count})"
                    )
                    self._abort(diagnostic)
                    raise SimulationError(diagnostic) from exc
                if self._stop_requested:
                    return
            # update
            updates, self._update_queue = self._update_queue, []
            for channel in updates:
                channel._update()
            # delta notify
            notifications, self._delta_notifications = self._delta_notifications, []
            if notifications:
                self.delta_count += 1
            for event in notifications:
                event._delta_pending = False
                event._fire()

    def pending_activity(self) -> bool:
        """True if any process, update or notification is still scheduled."""
        return bool(
            self._runnable
            or self._update_queue
            or self._delta_notifications
            or self._timed
        )
