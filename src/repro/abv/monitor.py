"""External assertion monitors -- the paper's C# monitor architecture.

"We propose to integrate PSL assertion to SystemC designs as external
monitors implemented in C#.  These latter are directly compiled from the
PSL properties modeled in ASM" (paper, Section 5.3).  Here the external
monitor is a Python object compiled from a PSL property; binding follows
the same rules:

* the design signals an assertion reads "must be seen as external signals
  ... input to the assertion monitor" -- the binding maps every atom of
  the property to a read-only getter (usually ``signal.read``);
* the bound monitor samples on a clock-edge event of the kernel and, when
  the assertion fires, can **stop the simulation**, **write a report**
  about the assertion status and all its variables, and **send a warning
  signal to other modules**.

Monitors attached to one simulator with the same triggers share one
sampler process: each sample reads every distinct bound source once,
counts the tuple of values it read and steps the compiled monitors
through one :class:`~repro.psl.automata.PropertyBank`; the others
progress their :class:`~repro.psl.monitor.PslMonitor` in the same
sampler.  A compiled monitor is only settled on the sample at which its
verdict latches, so a passing run settles none of them.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Union

from ..psl.ast import ModelingLayer, Property
from ..psl.automata import CheckerAutomaton, PropertyBank, compiled_checker
from ..psl.monitor import PslMonitor, Verdict
from ..psl.parser import parse_property
from ..sysc.kernel import Event, Process, Simulator
from ..sysc.signal import Signal

__all__ = ["AssertionMonitor", "bind_atom", "FailureAction"]


class FailureAction:
    """What a firing assertion does (any combination can be enabled)."""

    STOP = "stop"
    REPORT = "report"
    WARN = "warn"


def bind_atom(source: Union[Signal, Callable[[], object]]) -> Callable[[], bool]:
    """Normalise a binding source into a boolean getter.

    Accepts a kernel :class:`~repro.sysc.signal.Signal` (read-only access,
    per the paper's transformation) or any zero-argument callable.
    """
    if isinstance(source, Signal):
        return lambda: bool(source.read())
    if callable(source):
        return lambda: bool(source())
    raise TypeError(f"cannot bind atom to {source!r}")


class AssertionMonitor:
    """An external PSL assertion monitor for kernel-level designs.

    Parameters
    ----------
    prop:
        A :class:`~repro.psl.ast.Property` or PSL source text.
    name:
        Reporting name.
    bindings:
        ``atom name -> Signal or getter`` for every atom the property
        reads (modeling-layer auxiliaries excluded).
    actions:
        Iterable of :class:`FailureAction` values; defaults to
        ``(REPORT,)``.
    modeling:
        Optional modeling layer evaluated over the sampled valuation.
    """

    def __init__(
        self,
        prop: Union[Property, str],
        name: str,
        bindings: Mapping[str, Union[Signal, Callable[[], object]]],
        actions: tuple = (FailureAction.REPORT,),
        modeling: Optional[ModelingLayer] = None,
        compiled: bool = True,
    ):
        if isinstance(prop, str):
            prop = parse_property(prop)
        self.prop = prop
        self.name = name
        self.actions = tuple(actions)
        self.monitor = PslMonitor(prop, name, modeling=modeling,
                                  history=not compiled)
        # the paper's monitors are *compiled from* the PSL properties:
        # for safety properties without a modeling layer the monitor
        # steps a precompiled deterministic automaton (table lookups)
        # instead of re-progressing the formula every cycle
        self._checker: Optional[CheckerAutomaton] = None
        if compiled and modeling is None and prop.is_safety():
            self._checker = compiled_checker(prop)
        self._bindings = dict(bindings)
        for source in self._bindings.values():
            bind_atom(source)  # reject an unbindable source now
        design_atoms = prop.atoms()
        if modeling is not None:
            design_atoms = design_atoms - set(modeling.names)
        missing = design_atoms - set(self._bindings)
        if missing:
            raise ValueError(
                f"monitor {name}: unbound atoms {sorted(missing)}"
            )
        self.reports: list[str] = []
        self.warning: Optional[Signal] = None
        self._sim: Optional[Simulator] = None
        # set by the sampler: (atom, source index) reads, bank slot, and
        # the sampler's samples this monitor did not take (before it
        # joined, or cut short by a STOP) per tuple of source values
        self._sampler: Optional[_Sampler] = None
        self._reads: tuple = ()
        self._slot = 0
        self._unseen: dict[tuple, int] = {}
        self._sample_observers: list[Callable[[dict], None]] = []

    # ------------------------------------------------------------------
    def attach(self, sim: Simulator, *triggers: Event,
               warning_signal: Optional[Signal] = None) -> None:
        """Bind the monitor into a simulation: sample on every trigger
        notification (typically clock posedge events -- pass both K and
        K# samplers for half-cycle properties).  Monitors attached to one
        simulator with the same triggers share one sampler process."""
        if self._sampler is not None:
            raise ValueError(f"monitor {self.name} is already sampled")
        self._sim = sim
        self.warning = warning_signal
        sensitive = triggers[0]._static if triggers else ()
        sampler = next((p for p in sensitive if isinstance(p, _Sampler)
                        and p.triggers == triggers and p.agrees(self)), None)
        (sampler or _Sampler(sim, triggers)).add(self)

    def sample(self) -> Verdict:
        """Read all bound signals and advance the property one cycle.

        Runs the monitor's sampler once: an attached monitor samples with
        every monitor sharing its triggers, an unattached one alone."""
        if self._sampler is None:
            _Sampler(Simulator(), ()).add(self)
        self._sampler.sample()
        return self.verdict

    @property
    def samples(self) -> int:
        """Samples this monitor took."""
        sampler = self._sampler
        if sampler is None:
            return 0
        return sampler.count - sum(self._unseen.values())

    @property
    def sample_observers(self) -> list[Callable[[dict], None]]:
        """``fn(valuation)`` hooks called with the sampled atom valuation
        on every sample, decided or not.  A compiled monitor with
        observers is settled on every sample instead of only when its
        verdict latches; counting a sampled quantity is cheaper through
        :meth:`value_counts`."""
        return self._sample_observers

    def value_counts(self) -> dict[tuple, int]:
        """How many samples this monitor took of each tuple of its
        sampler's source values (see :meth:`valuation`)."""
        sampler = self._sampler
        if sampler is None:
            return {}
        unseen = self._unseen
        return {values: count - unseen.get(values, 0)
                for values, count in sampler.counts.items()}

    def valuation(self, values: tuple) -> dict:
        """The atom valuation this monitor reads from its sampler's
        source ``values``."""
        return {atom: values[i] for atom, i in self._reads}

    def _settle(self, values: tuple) -> bool:
        """Account one sample of the sampler's source ``values``: feed the
        observers and latch a new verdict.  True when a firing action
        stopped the simulation."""
        if self._sample_observers or self._checker is None:
            valuation = self.valuation(values)
            for observer in self._sample_observers:
                observer(valuation)
        monitor = self.monitor
        if self._checker is None:
            before = monitor.verdict
            verdict = monitor.step(valuation)
            return (verdict is Verdict.FAILS and before is not Verdict.FAILS
                    and self._fire(valuation))
        if monitor.verdict is not Verdict.PENDING:
            return False
        state = self._sampler.states[self._slot]
        if state == CheckerAutomaton.FAIL_STATE:
            monitor.verdict = Verdict.FAILS
            monitor.failed_at = self.samples - 1
            return self._fire(self.valuation(values))
        if self._checker.is_accepting_sink(state):
            monitor.verdict = Verdict.HOLDS
        return False

    def finish(self) -> Verdict:
        """Apply end-of-trace semantics (see :meth:`PslMonitor.finish`)."""
        monitor = self.monitor
        if self._checker is None:
            before = monitor.verdict
            verdict = monitor.finish()
            if verdict is Verdict.FAILS and before is not Verdict.FAILS:
                self._fire({})
            return verdict
        if monitor.verdict is Verdict.PENDING:
            state = self._sampler.states[self._slot] if self._sampler else 0
            if self._checker.has_strong_pending(state):
                monitor.verdict = Verdict.FAILS
                monitor.failed_at = self.samples
                self._fire({})
            else:
                monitor.verdict = Verdict.HOLDS
        return monitor.verdict

    # ------------------------------------------------------------------
    def _fire(self, valuation: dict) -> bool:
        if FailureAction.REPORT in self.actions:
            variables = ", ".join(f"{k}={int(bool(v))}" for k, v in
                                  sorted(valuation.items()))
            when = self._sim.time if self._sim is not None else self.monitor.cycle
            self.reports.append(
                f"[{self.name}] ASSERTION FIRED at time {when}: "
                f"{self.prop!r} with {variables or 'no variables'}"
            )
        if FailureAction.WARN in self.actions and self.warning is not None:
            self.warning.write(True)
        if FailureAction.STOP in self.actions and self._sim is not None:
            self._sim.request_stop(f"assertion {self.name} fired")
            return True
        return False

    # ------------------------------------------------------------------
    @property
    def verdict(self) -> Verdict:
        """Current three-valued verdict."""
        return self.monitor.verdict

    @property
    def p_status(self) -> bool:
        """Paper encoding: verdict decided?"""
        return self.monitor.p_status

    @property
    def p_value(self) -> bool:
        """Paper encoding: current value (True = not falsified)."""
        return self.monitor.p_value

    def __repr__(self):
        return f"AssertionMonitor({self.name!r}, {self.verdict.value})"


def _decided(checker: CheckerAutomaton, state: int) -> bool:
    """True when a checker in ``state`` has its verdict decided."""
    return state == CheckerAutomaton.FAIL_STATE or \
        checker.is_accepting_sink(state)


class _Sampler(Process):
    """The kernel process sampling the monitors attached to one set of
    triggers.  A compiled monitor that binds a bank atom to another source
    gets a sampler of its own.

    A sample reads every bound source once into a tuple of values, counts
    it in :attr:`counts` and looks up ``(bank states, values)`` in the
    step memo: the next bank states, and the attach-order positions of
    the monitors to settle.  Those are the uncompiled monitors and the
    compiled ones whose checker enters FAIL or an accepting sink -- the
    only samples at which a compiled verdict latches.  A monitor with
    sample observers is settled on every sample as well.
    """

    def __init__(self, sim: Simulator, triggers: tuple):
        super().__init__(sim, "abv.sampler")
        self.make_sensitive(*triggers)
        self.triggers = triggers
        self.monitors: list[AssertionMonitor] = []
        self._getters: list[Callable[[], bool]] = []
        self._index: dict[int, int] = {}  # id(source) -> getter index
        self._bound: dict[str, object] = {}  # bank atom -> source
        self._bank = PropertyBank(())
        self._label: tuple = ()  # getter index of each bank atom
        self._observers: tuple = ()  # each monitor's sample observers
        self._memo: dict = {}  # (states, values) -> (states, to settle)
        self.states: tuple = ()
        self.count = 0  # samples taken
        self.counts: dict[tuple, int] = {}  # samples per source values

    def agrees(self, monitor: AssertionMonitor) -> bool:
        """False when ``monitor`` binds a bank atom to another source."""
        return monitor._checker is None or all(
            self._bound.get(atom, monitor._bindings[atom])
            is monitor._bindings[atom] for atom in monitor._checker.atoms)

    def add(self, monitor: AssertionMonitor) -> None:
        """Sample ``monitor`` from the next trigger on."""
        checker = monitor._checker
        atoms = monitor._bindings if checker is None else checker.atoms
        monitor._reads = tuple((atom, self._read(monitor._bindings[atom]))
                               for atom in atoms)
        monitor._sampler = self
        monitor._unseen = dict(self.counts)
        self.monitors.append(monitor)
        self._observers += (monitor._sample_observers,)
        if checker is not None:
            monitor._slot = len(self.states)
            self._bound.update((atom, monitor._bindings[atom])
                               for atom in checker.atoms)
            self._bank = PropertyBank(
                [m.prop for m in self.monitors if m._checker is not None])
            self._label = tuple(self._read(self._bound[atom])
                                for atom in self._bank.atoms)
            self.states += (0,)
        self._memo = {}

    def _read(self, source) -> int:
        index = self._index.get(id(source))
        if index is None:
            index = self._index[id(source)] = len(self._getters)
            self._getters.append(bind_atom(source))
        return index

    def run(self) -> None:
        # the kernel runs every process once at initialisation with no
        # trigger; monitors only sample on real notifications
        if self.trigger is not None:
            self.sample()

    def _step(self, before: tuple, values: tuple) -> tuple:
        """The memo entry of one ``(states, values)`` sample."""
        after = self._bank.step(before, tuple(map(values.__getitem__,
                                                  self._label)))
        # a slot starts in state 0, which is never decided, and a STOP
        # rolls back the slots it cuts short: a slot in a decided state
        # has latched its verdict on the sample that entered it
        settle = tuple(
            n for n, monitor in enumerate(self.monitors)
            if monitor._checker is None
            or (_decided(monitor._checker, after[monitor._slot])
                and not _decided(monitor._checker, before[monitor._slot])))
        return after, settle

    def sample(self) -> None:
        """Read each bound source once, count the values and step the
        bank, then settle the monitors that need it in attach order."""
        values = tuple([get() for get in self._getters])
        self.count += 1
        counts = self.counts
        counts[values] = counts.get(values, 0) + 1
        before = self.states
        step = self._memo.get((before, values))
        if step is None:
            step = self._memo[before, values] = self._step(before, values)
        self.states, settle = step
        if any(self._observers):
            settle = sorted({*settle, *(n for n, observers
                                        in enumerate(self._observers)
                                        if observers)})
        monitors = self.monitors
        for n in settle:
            if monitors[n]._settle(values):
                # the stop ends the sample for the monitors attached
                # after this one: they neither count nor step it
                for later in monitors[n + 1:]:
                    later._unseen[values] = later._unseen.get(values, 0) + 1
                done = sum(m._checker is not None for m in monitors[:n + 1])
                self.states = self.states[:done] + before[done:]
                return
