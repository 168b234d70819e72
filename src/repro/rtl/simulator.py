"""Synchronous simulator for flattened RTL designs (three backends).

This plays the role of the commercial Verilog simulator in the paper's
Table 3 experiment: the design is evaluated at the bit level, gate by gate,
once per clock edge, with OVL assertion monitors loaded *as part of the
simulated design* (each monitor adds nets and registers to the netlist,
which is exactly the overhead the paper attributes to the OVL approach).

Three backends share the flat slot-array state representation:

* ``"compiled"`` (default) -- the design is lowered once to Python
  bytecode by :mod:`repro.rtl.compile`: one function per clock edge plus
  a ``settle`` function, with expressions inlined over the slot array
  (``FlatNet.slot`` indexes a flat ``list[int]``, one slot per net).
* ``"interp"`` -- the original tree-walking interpreter, kept as the
  executable reference semantics; the differential suite in
  ``tests/test_rtl_compiled.py`` holds the two bit-identical.
* ``"bitpar"`` -- the bit-parallel (PPSFP) codegen of
  :mod:`repro.rtl.bitsim`: the netlist is bit-sliced so each *bit* of
  each net holds one lane word whose bit *i* is that bit's value in
  independent simulation lane *i* (``lanes`` per pass, default 64).
  Lane 0 is held bit-identical to the compiled backend by
  ``tests/test_rtl_bitpar.py``; the other lanes carry faulty machines
  or alternative stimulus walks.

The generated kernels are cached on the :class:`FlatDesign`
(:func:`design_kernel`), so simulators of one elaborated design compile
it once per backend; :func:`~repro.rtl.compile.compile_design` and
:func:`~repro.rtl.bitsim.compile_bitpar` themselves stay uncached.

The simulator steps at half-cycle granularity.  With the LA-1 clock pair,
edge ``"K"`` is the rising edge of the K master clock and edge ``"K#"``
the rising edge of its complement; :meth:`RtlSimulator.cycle` performs one
full clock period (K edge then K# edge).
"""

from __future__ import annotations

from typing import Callable, Union

from .bitsim import compile_bitpar
from .compile import compile_design
from .hdl import HdlError, RtlModule
from .netlist import FlatDesign, FlatMonitor, FlatNet, elaborate

__all__ = ["AssertionFailure", "MonitorRecord", "RtlSimulator",
           "design_kernel", "pack_lanes"]


def design_kernel(design: FlatDesign, backend: str,
                  detect_bus_conflicts: bool = True, lanes: int = 64):
    """The compiled kernel ``backend`` runs ``design`` on: a
    :class:`~repro.rtl.compile.CompiledDesign` or a
    :class:`~repro.rtl.bitsim.BitparDesign` (``None`` for ``"interp"``).

    Kernels are pure functions of the netlist, so every simulator of one
    design shares them through ``design.kernels``: codegen and ``exec``
    run once per design and process, and processes forked afterwards
    inherit the kernels.  Two threads may race and both compile; the
    entry is stored only once complete, so neither sees half a kernel.
    """
    if backend == "interp":
        return None
    key = (backend, detect_bus_conflicts, lanes if backend == "bitpar" else 0)
    kernel = design.kernels.get(key)
    if kernel is None:
        if backend == "bitpar":
            kernel = compile_bitpar(design, detect_bus_conflicts, lanes)
        else:
            kernel = compile_design(design, detect_bus_conflicts)
        design.kernels[key] = kernel
    return kernel


def pack_lanes(values) -> list:
    """Per-lane values packed into bit-parallel lane words: word *b* has
    bit *i* set when bit *b* of ``values[i]`` is set (the layout
    :meth:`RtlSimulator.set_input_words` drives).  Lanes that share a
    value are packed together."""
    lanes_of: dict = {}
    for lane, value in enumerate(values):
        lanes_of[value] = lanes_of.get(value, 0) | (1 << lane)
    words = [0] * max(values).bit_length()
    for value, lanes in lanes_of.items():
        b = 0
        while value:
            if value & 1:
                words[b] |= lanes
            value >>= 1
            b += 1
    return words


class AssertionFailure(Exception):
    """Raised when a monitor of severity ``"error"`` fires and
    ``stop_on_failure`` is enabled."""

    def __init__(self, record: "MonitorRecord"):
        super().__init__(f"{record.name}: {record.message} (at edge {record.time})")
        self.record = record


class MonitorRecord:
    """One firing of an assertion monitor."""

    __slots__ = ("name", "message", "severity", "time", "edge")

    def __init__(self, name: str, message: str, severity: str, time: int, edge: str):
        self.name = name
        self.message = message
        self.severity = severity
        self.time = time
        self.edge = edge

    def __repr__(self):
        return (
            f"MonitorRecord({self.name!r}, {self.severity}, "
            f"edge={self.edge}@{self.time})"
        )


class _NetValues:
    """Read-only dict-like view of the settled net values keyed by
    :class:`FlatNet` (``sim.values[net]``, which tracers and tests use):
    :meth:`RtlSimulator.read` of the net, so every backend settles
    pending input changes first, and bitpar answers lane 0."""

    __slots__ = ("_sim",)

    def __init__(self, sim: "RtlSimulator"):
        self._sim = sim

    def __getitem__(self, net: FlatNet) -> int:
        return self._sim.read(net.path)

    def __len__(self) -> int:
        return len(self._sim.design.nets)


class RtlSimulator:
    """Evaluate a flattened RTL design edge by edge.

    Parameters
    ----------
    top:
        The top-level module (an :class:`RtlModule`) or an already
        elaborated :class:`FlatDesign`.
    stop_on_failure:
        When True, a firing monitor of severity ``"error"`` raises
        :class:`AssertionFailure`; otherwise failures are only recorded.
    detect_bus_conflicts:
        When True, two simultaneously enabled tristate drivers on one net
        raise :class:`HdlError` (a real bus would go ``X``).
    backend:
        ``"compiled"`` (default) runs the design through the code
        generator of :mod:`repro.rtl.compile`; ``"interp"`` walks the
        expression trees directly; ``"bitpar"`` runs ``lanes``
        independent simulations per pass over bit-sliced lane words
        (:mod:`repro.rtl.bitsim`).
    lanes:
        Number of parallel simulation lanes for ``backend="bitpar"``
        (ignored otherwise; :attr:`lanes` reads back 0 for the scalar
        backends).  Python ints are unbounded, so any positive count is
        legal; 64 keeps one native machine word per bit slot.
    """

    def __init__(
        self,
        top: Union[RtlModule, FlatDesign],
        stop_on_failure: bool = False,
        detect_bus_conflicts: bool = True,
        backend: str = "compiled",
        lanes: int = 64,
    ):
        if backend not in ("compiled", "interp", "bitpar"):
            raise HdlError(f"unknown simulator backend {backend!r}")
        self.design = top if isinstance(top, FlatDesign) else elaborate(top)
        self.backend = backend
        self.stop_on_failure = stop_on_failure
        self.detect_bus_conflicts = detect_bus_conflicts
        kernel = design_kernel(self.design, backend, detect_bus_conflicts,
                               lanes)
        self._compiled = kernel if backend == "compiled" else None
        self._bitpar = kernel if backend == "bitpar" else None
        self.lanes = lanes if backend == "bitpar" else 0
        self.lane_mask = self._bitpar.lane_mask if self._bitpar else 0
        self._slots: dict[str, int] = {
            path: flat.slot for path, flat in self.design.nets.items()
        }
        # edge and lane-word accounting (cumulative across resets, like
        # the coverage counters below; ``edge_count`` is the current
        # run's, which SEU injection and monitor records time by)
        self._lane_passes = 0
        self._words_evaluated = 0
        self._occupied_lanes = 0
        self._occupancy_passes = 0
        self._edges = 0
        self.edge_count = 0
        self.failures: list[MonitorRecord] = []
        self.firings: list[MonitorRecord] = []
        self._edge_hooks: list[Callable[[str, "RtlSimulator"], None]] = []
        # coverage-probe accounting (cumulative across resets, like the
        # wall-clock of a campaign that reuses one simulator)
        self._cover_probe_calls = 0
        self._cover_collectors: list[object] = []
        self._cover_tracked_nets = 0
        self.values = _NetValues(self)
        self.reset()

    # ------------------------------------------------------------------
    # state management
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Return every register to its init value and re-settle logic."""
        if self._bitpar is not None:
            self._v = list(self._bitpar.init)
            # ctx[0]: tristate conflict lane word; ctx[1:]: activity
            # guard flags, all raised so the first settle computes
            # every guarded net
            self._ctx = [0] + [1] * self._bitpar.num_guards
            self._lane_fire_words: dict[int, int] = {}
        else:
            v = [0] * self.design.num_slots
            for flat in self.design.regs:
                v[flat.slot] = flat.init
            self._v = v
        self.edge_count = 0
        self.failures = []
        self.firings = []
        self._inputs_dirty = False
        self._settle()

    def _settled(self) -> list[int]:
        """The slot array with pending input changes settled: the one
        path every reader and the next edge go through."""
        if self._inputs_dirty:
            self._settle()
            self._inputs_dirty = False
        return self._v

    def _broadcast(self, flat: FlatNet, value: int) -> bool:
        """Drive ``value`` into every lane of a bit-sliced net; True when
        any lane word changed."""
        assert self._bitpar is not None
        slots = self._bitpar.bit_slots[flat.path]
        mask = self._bitpar.lane_mask
        v = self._v
        changed = False
        for b in range(flat.width):
            word = mask if (value >> b) & 1 else 0
            if v[slots[b]] != word:
                v[slots[b]] = word
                changed = True
        if changed:
            self._raise_guards(flat.path)
        return changed

    def _raise_guards(self, path: str) -> None:
        """Flag the activity guards watching ``path`` after an external
        write (input drive, fault force) changed one of its bits."""
        for flag in self._bitpar.state_guards.get(path, ()):
            self._ctx[flag] = 1

    def set_input(self, path: str, value: int) -> None:
        """Drive a free (testbench) input net by hierarchical path.

        On the bitpar backend the scalar value is broadcast into every
        lane (use :meth:`set_input_lanes` for per-lane stimulus).
        """
        flat = self.design.net(path)
        if flat.kind != "input":
            raise HdlError(f"{path} is not a free input ({flat.kind})")
        if value < 0 or value >= (1 << flat.width):
            raise HdlError(f"value {value} does not fit {flat.width}-bit {path}")
        if self._bitpar is not None:
            if self._broadcast(flat, value):
                self._inputs_dirty = True
            return
        if self._v[flat.slot] != value:
            self._v[flat.slot] = value
            self._inputs_dirty = True

    def set_input_lanes(self, path: str, values) -> None:
        """Drive one value per lane into a free input (bitpar only).

        ``values`` must hold exactly :attr:`lanes` ints; value *i* is
        packed into lane *i* of each of the net's bit words.
        """
        if self._bitpar is None:
            raise HdlError("set_input_lanes requires backend='bitpar'")
        if len(values) != self.lanes:
            raise HdlError(
                f"expected {self.lanes} lane values for {path}, "
                f"got {len(values)}"
            )
        width = self.design.net(path).width
        limit = 1 << width
        for value in values:
            if value < 0 or value >= limit:
                raise HdlError(
                    f"value {value} does not fit {width}-bit {path}")
        self.set_input_words(path, pack_lanes(values), self.lane_mask)

    def set_input_words(self, path: str, words, mask: int) -> None:
        """Drive packed lane words into the lanes ``mask`` selects of a
        free input (bitpar only): ``words[b]`` is the lane word of bit
        *b*, so lane *i* of the net takes bit *i* of each word, and every
        lane outside ``mask`` keeps its value.  Missing words read 0;
        words past the net's width must be empty on ``mask``.
        """
        if self._bitpar is None:
            raise HdlError("set_input_words requires backend='bitpar'")
        flat = self.design.net(path)
        if flat.kind != "input":
            raise HdlError(f"{path} is not a free input ({flat.kind})")
        if any(word & mask for word in words[flat.width:]):
            raise HdlError(f"lane words do not fit {flat.width}-bit {path}")
        slots = self._bitpar.bit_slots[flat.path]
        v = self._v
        keep = ~mask
        changed = False
        for b, slot in enumerate(slots):
            word = v[slot] & keep
            if b < len(words):
                word |= words[b] & mask
            if v[slot] != word:
                v[slot] = word
                changed = True
        if changed:
            self._raise_guards(flat.path)
            self._inputs_dirty = True

    def read(self, path: str) -> int:
        """Read any flat net's current settled value by path.

        Pending input changes are settled lazily here, so a read of a
        combinational net immediately after :meth:`set_input` observes
        the updated logic rather than the pre-update values.  On the
        bitpar backend this returns lane 0 (the golden lane).
        """
        v = self._settled()
        if self._bitpar is not None:
            return self._assemble(path, 0)
        return v[self._slots[path]]

    def _assemble(self, path: str, lane: int) -> int:
        slots = self._bitpar.bit_slots[path]
        v = self._v
        value = 0
        for b, slot in enumerate(slots):
            value |= ((v[slot] >> lane) & 1) << b
        return value

    def read_lane(self, path: str, lane: int) -> int:
        """Read one lane's value of a net (bitpar only)."""
        if self._bitpar is None:
            raise HdlError("read_lane requires backend='bitpar'")
        self._settled()
        return self._assemble(path, lane)

    def read_lanes(self, path: str) -> list[int]:
        """Read every lane's value of a net as a list (bitpar only)."""
        if self._bitpar is None:
            raise HdlError("read_lanes requires backend='bitpar'")
        v = self._settled()
        words = [v[slot] for slot in self._bitpar.bit_slots[path]]
        return [
            sum(((word >> lane) & 1) << b for b, word in enumerate(words))
            for lane in range(self.lanes)
        ]

    def lane_word(self, path: str, bit: int = 0) -> int:
        """The raw lane word of one bit of a net (bitpar only): bit *i*
        of the result is ``path[bit]`` in lane *i*."""
        if self._bitpar is None:
            raise HdlError("lane_word requires backend='bitpar'")
        return self._settled()[self._bitpar.bit_slots[path][bit]]

    def add_edge_hook(self, hook: Callable[[str, "RtlSimulator"], None]) -> None:
        """Register ``hook(edge_name, sim)`` called after every edge settles."""
        self._edge_hooks.append(hook)

    def remove_edge_hook(self, hook: Callable[[str, "RtlSimulator"], None]) -> None:
        """Detach a hook registered with :meth:`add_edge_hook` (no-op if
        absent), so transient instrumentation such as fault injectors can
        release a shared simulator."""
        if hook in self._edge_hooks:
            self._edge_hooks.remove(hook)

    def _register_cover_collector(self, collector: object,
                                  tracked_nets: int) -> None:
        """Bookkeeping entry point for :mod:`repro.cover` collectors so
        probe overhead shows up in :meth:`stats`."""
        if collector not in self._cover_collectors:
            self._cover_collectors.append(collector)
            self._cover_tracked_nets += tracked_nets

    def _unregister_cover_collector(self, collector: object,
                                    tracked_nets: int) -> None:
        if collector in self._cover_collectors:
            self._cover_collectors.remove(collector)
            self._cover_tracked_nets -= tracked_nets

    #: the stats() schema shared by both backends -- every key is present
    #: for backend="interp" and backend="compiled" alike, so campaign and
    #: flow reports can be compared across backends without key checks
    STATS_KEYS = (
        "nets", "inputs", "comb", "regs", "state_bits", "monitors",
        "backend", "edges", "firings", "failures",
        "cover_probe_calls", "cover_tracked_nets", "cover_collectors",
        "lanes", "lane_passes", "words_evaluated", "lane_utilization",
    )

    def note_pass_occupancy(self, occupied: int) -> None:
        """Record how many lanes of one campaign-level pass carried live
        work (golden + fault/pattern lanes); feeds ``lane_utilization``.

        The simulator cannot see occupancy itself -- every lane word is
        always evaluated -- so the batching layer reports it per pass.
        """
        budget = self.lanes or 1
        self._occupied_lanes += max(0, min(occupied, budget))
        self._occupancy_passes += 1

    def stats(self) -> dict:
        """Design-size and run accounting for flow/campaign reports.

        The returned dict has exactly the keys of :data:`STATS_KEYS`,
        independent of the backend: design size from
        :meth:`FlatDesign.stats`, run accounting (``edges`` -- cumulative
        across resets; ``firings``, ``failures`` -- since the last
        reset), and the coverage-probe overhead
        counters (``cover_probe_calls`` -- cumulative probe invocations
        across resets; ``cover_tracked_nets`` / ``cover_collectors`` --
        currently attached instrumentation).
        """
        stats = dict(self.design.stats())
        stats.update(
            backend=self.backend,
            edges=self._edges,
            firings=len(self.firings),
            failures=len(self.failures),
            cover_probe_calls=self._cover_probe_calls,
            cover_tracked_nets=self._cover_tracked_nets,
            cover_collectors=len(self._cover_collectors),
            # bit-parallel accounting: zero on the scalar backends so the
            # schema stays comparable across all three
            lanes=self.lanes,
            lane_passes=self._lane_passes,
            words_evaluated=self._words_evaluated,
            lane_utilization=(
                round(
                    self._occupied_lanes
                    / ((self.lanes or 1) * self._occupancy_passes),
                    4,
                )
                if self._occupancy_passes
                else 0.0
            ),
        )
        assert set(stats) == set(self.STATS_KEYS)
        return stats

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _eval_flat(self, flat: FlatNet) -> int:
        v = self._v
        scope = flat.scope
        read = lambda net: v[scope[net].slot]  # noqa: E731
        if flat.tristate is not None:
            driven = None
            for driver in flat.tristate:
                if driver.enable.evaluate(read):
                    if driven is not None and self.detect_bus_conflicts:
                        raise HdlError(
                            f"bus conflict on {flat.path}: multiple tristate "
                            "drivers enabled"
                        )
                    driven = driver.value.evaluate(read)
                    if not self.detect_bus_conflicts:
                        break
            return 0 if driven is None else driven
        assert flat.expr is not None
        return flat.expr.evaluate(read)

    def _settle(self) -> None:
        """Propagate combinational logic (single topological pass)."""
        if self._compiled is not None:
            self._compiled.settle(self._v)
            return
        if self._bitpar is not None:
            self._bitpar.settle(self._v, self._ctx)
            self._lane_passes += 1
            self._words_evaluated += self._bitpar.work["settle"]
            return
        v = self._v
        for flat in self.design.comb_order:
            v[flat.slot] = self._eval_flat(flat)

    def step(self, edge: str) -> None:
        """Apply one rising clock edge of domain ``edge``.

        Sequence: sample next-state of all regs in the domain from the
        currently settled values, commit them simultaneously, re-settle
        combinational logic, then check assertion monitors.
        """
        self._settled()
        if self._bitpar is not None:
            step_fn = self._bitpar.steps.get(edge)
            lane_fired: list[tuple[int, int]] = []
            if step_fn is not None:
                step_fn(self._v, lane_fired, self._ctx)
                self._words_evaluated += self._bitpar.work[edge]
            else:  # edge without regs or monitors: just re-settle
                self._bitpar.settle(self._v, self._ctx)
                self._words_evaluated += self._bitpar.work["settle"]
            self._lane_passes += 1
            self.edge_count += 1
            if lane_fired:
                self._record_lane_firings(lane_fired, edge)
        elif self._compiled is not None:
            step_fn = self._compiled.steps.get(edge)
            fired: list[int] = []
            if step_fn is not None:
                step_fn(self._v, fired)
            else:  # edge without regs or monitors: just re-settle
                self._compiled.settle(self._v)
            self.edge_count += 1
            if fired:
                self._record_firings(fired, edge)
        else:
            v = self._v
            nexts: list[tuple[FlatNet, int]] = []
            for flat in self.design.regs:
                if flat.clock != edge:
                    continue
                scope = flat.scope
                read = lambda net: v[scope[net].slot]  # noqa: E731
                assert flat.next_expr is not None
                nexts.append((flat, flat.next_expr.evaluate(read)))
            for flat, value in nexts:
                v[flat.slot] = value
            self._settle()
            self.edge_count += 1
            self._check_monitors(edge)
        self._edges += 1
        for hook in self._edge_hooks:
            hook(edge, self)

    def cycle(self, n: int = 1) -> None:
        """Run ``n`` full clock periods (a K edge followed by a K# edge)."""
        for __ in range(n):
            self.step("K")
            self.step("K#")

    # ------------------------------------------------------------------
    # monitors
    # ------------------------------------------------------------------
    def _record(self, monitor: FlatMonitor, edge: str) -> None:
        record = MonitorRecord(
            monitor.name,
            monitor.message,
            monitor.severity,
            self.edge_count,
            edge,
        )
        self.firings.append(record)
        if monitor.severity == "error":
            self.failures.append(record)
            if self.stop_on_failure:
                raise AssertionFailure(record)

    def _record_firings(self, fired: list[int], edge: str) -> None:
        """Turn compiled-backend monitor indices into records."""
        monitors = self.design.monitors
        for index in fired:
            self._record(monitors[index], edge)

    def _record_lane_firings(self, fired: list[tuple[int, int]],
                             edge: str) -> None:
        """Bitpar firing handling: lane-0 firings become ordinary
        :class:`MonitorRecord` entries (so firings/failures/ok and
        ``stop_on_failure`` see exactly what the compiled backend sees),
        while the full lane words accumulate per monitor for per-lane
        verdicts."""
        monitors = self.design.monitors
        words = self._lane_fire_words
        for index, word in fired:
            words[index] = words.get(index, 0) | word
            if word & 1:
                self._record(monitors[index], edge)

    @property
    def conflict_lanes(self) -> int:
        """Lane word of tristate bus conflicts seen since reset (bitpar
        only; lane 0 conflicts raise instead, like the scalar backends)."""
        if self._bitpar is None:
            return 0
        self._settled()
        return self._ctx[0]

    def monitor_lane_word(self, index: int) -> int:
        """Accumulated fire word of monitor ``index`` since reset (bitpar
        only): bit *i* set means the monitor fired at least once in lane
        *i*."""
        if self._bitpar is None:
            raise HdlError("monitor_lane_word requires backend='bitpar'")
        return self._lane_fire_words.get(index, 0)

    def lane_failure_names(self, lane: int) -> list[str]:
        """Sorted names of error-severity monitors that fired in ``lane``
        at any point since reset (bitpar only)."""
        if self._bitpar is None:
            raise HdlError("lane_failure_names requires backend='bitpar'")
        mask = 1 << lane
        monitors = self.design.monitors
        return sorted({
            monitors[index].name
            for index, word in self._lane_fire_words.items()
            if word & mask and monitors[index].severity == "error"
        })

    def _check_monitors(self, edge: str) -> None:
        for monitor in self.design.monitors:
            if monitor.clock != edge:
                continue
            if self._v[monitor.fire.slot]:
                self._record(monitor, edge)

    @property
    def ok(self) -> bool:
        """True while no error-severity monitor has fired."""
        return not self.failures
