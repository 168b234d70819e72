"""Primitive channels: signals and resolved (tristate) signals.

``sc_signal`` is the workhorse primitive channel of SystemC: writes are
queued during the evaluate phase and committed during the update phase, and
a value *change* produces a delta notification.  :class:`Signal` implements
exactly that contract for arbitrary Python values; :class:`ResolvedSignal`
adds multiple-driver resolution for four-valued logic buses (the tristate
buffers connecting LA-1 banks at RTL use the same semantics).
"""

from __future__ import annotations

from typing import Any, Callable, Generic, TypeVar

from .datatypes import Logic, LogicVector, resolve
from .kernel import Event, Simulator

__all__ = ["Signal", "ResolvedSignal"]

T = TypeVar("T")


class Signal(Generic[T]):
    """A single-driver signal with SystemC evaluate/update semantics.

    ``read`` returns the *current* (committed) value; ``write`` schedules a
    new value that becomes visible one delta cycle later.  The three events
    (``changed``, ``posedge``, ``negedge``) fire when the committed value
    changes; edges are defined for boolean-convertible values.
    """

    def __init__(self, sim: Simulator, name: str, initial: T):
        self.sim = sim
        self.name = name
        self._current: T = initial
        self._next: T = initial
        self._pending = False
        self.changed = Event(sim, f"{name}.changed")
        self.posedge = Event(sim, f"{name}.posedge")
        self.negedge = Event(sim, f"{name}.negedge")
        self._watchers: list[Callable[[str, T, T], None]] = []

    # ------------------------------------------------------------------
    def read(self) -> T:
        """The committed value (stable during the evaluate phase)."""
        return self._current

    @property
    def value(self) -> T:
        """Alias for :meth:`read`."""
        return self._current

    def write(self, value: T) -> None:
        """Schedule ``value``; it commits at the next update phase."""
        self._next = value
        if not self._pending:
            self._pending = True
            self.sim._schedule_update(self)

    def write_now(self, value: T) -> None:
        """Immediately overwrite the committed value *without* notification.

        Only for construction-time initialisation (before the simulation
        starts); using it mid-simulation would break delta semantics.
        """
        self._current = value
        self._next = value

    def watch(self, fn: Callable[[str, T, T], None]) -> Callable[[str, T, T], None]:
        """Register ``fn(name, old, new)`` called on every committed change.

        Returns ``fn`` as the subscription handle for :meth:`unwatch`.
        Prefer registering through
        :class:`repro.sysc.observe.SignalObservatory`, the shared
        observer path used by tracers and coverage collectors -- it can
        release all of an instrument's subscriptions at once.
        """
        self._watchers.append(fn)
        return fn

    def unwatch(self, fn: Callable[[str, T, T], None]) -> None:
        """Detach a watcher registered with :meth:`watch` (no-op when
        absent), so transient instrumentation can release a signal."""
        if fn in self._watchers:
            self._watchers.remove(fn)

    # ------------------------------------------------------------------
    def _update(self) -> None:
        self._pending = False
        if self._next == self._current:
            return
        old, self._current = self._current, self._next
        self.changed.notify()
        high = self._is_true(self._current)
        if high != self._is_true(old):
            (self.posedge if high else self.negedge).notify()
        for watcher in self._watchers:
            watcher(self.name, old, self._current)

    @staticmethod
    def _is_true(value: Any) -> bool:
        if isinstance(value, Logic):
            return value.value == "1"
        return bool(value)

    def __repr__(self) -> str:
        return f"Signal({self.name!r}, value={self._current!r})"


class ResolvedSignal:
    """A multi-driver four-valued signal (``sc_signal_resolved`` analogue).

    Each driver owns a slot obtained from :meth:`driver`; the committed
    value is the resolution of all driver contributions.  Undriven slots
    contribute ``Z``, so tristate bank multiplexing falls out naturally.
    """

    def __init__(self, sim: Simulator, name: str, width: int = 1):
        self.sim = sim
        self.name = name
        self.width = width
        self._contributions: list[LogicVector] = []
        self._pending = False
        self._current = LogicVector.high_impedance(width)
        self.changed = Event(sim, f"{name}.changed")

    def driver(self) -> "ResolvedDriver":
        """Allocate a new driver slot on this net."""
        index = len(self._contributions)
        self._contributions.append(LogicVector.high_impedance(self.width))
        return ResolvedDriver(self, index)

    def read(self) -> LogicVector:
        """The resolved, committed bus value."""
        return self._current

    @property
    def value(self) -> LogicVector:
        """Alias for :meth:`read`."""
        return self._current

    def _write_slot(self, index: int, value: LogicVector) -> None:
        if value.width != self.width:
            raise ValueError(
                f"driver wrote width {value.width} to {self.width}-bit net {self.name}"
            )
        self._contributions[index] = value
        if not self._pending:
            self._pending = True
            self.sim._schedule_update(self)

    def _update(self) -> None:
        self._pending = False
        bits = []
        for position in range(self.width):
            bits.append(resolve(c[position] for c in self._contributions))
        resolved = LogicVector(bits)
        if resolved != self._current:
            self._current = resolved
            self.changed.notify()

    def __repr__(self) -> str:
        return f"ResolvedSignal({self.name!r}, value={self._current!r})"


class ResolvedDriver:
    """One driver slot of a :class:`ResolvedSignal`."""

    def __init__(self, net: ResolvedSignal, index: int):
        self.net = net
        self.index = index

    def write(self, value: LogicVector) -> None:
        """Drive ``value`` onto the net (``Z`` bits release the bus)."""
        self.net._write_slot(self.index, value)

    def release(self) -> None:
        """Stop driving (drive all-``Z``)."""
        self.net._write_slot(self.index, LogicVector.high_impedance(self.net.width))
