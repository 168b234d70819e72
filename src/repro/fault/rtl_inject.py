"""Backend-agnostic netlist fault injection for the RTL simulator.

The *same* injector drives the ``"interp"``, ``"compiled"`` and
``"bitpar"`` backends through the simulator's shared slot array.  A
stuck-at is part of the simulated step: the injector installs one
stuck-at table in the simulator (:meth:`RtlSimulator.install_forces
<repro.rtl.simulator.RtlSimulator.install_forces>`), which forces each
faulty bit at every register commit -- before the step's settle, so the
downstream combinational logic and the OVL checkers, which live in the
same netlist, sample the stuck value at the edge -- and on every input
drive, so the host's next drive cannot overwrite a stuck input.  A
single-event upset is a one-off flip: an edge hook toggles the bit after
the edge it is due at and re-settles.  The differential suite in
``tests/test_fault_models.py`` holds the backends bit-identical under
every fault model; ``tests/test_fault_ppsfp.py`` extends the contract to
the lane-parallel passes.

Only ``reg`` and ``input`` nets hold state across a settle pass: a
corrupted combinational net would simply be recomputed by the next
settle.  A stuck-at on a combinational net is therefore *collapsed onto
its register/input support* -- resolved through pure wiring
(:func:`repro.rtl.bitsim.trace_bit`) to the state bit that feeds it,
exactly how gate-level stuck-ats are collapsed onto fan-out stems in
classic fault simulation.  :func:`collapse_faults` applies the same rule
across a whole fault list, deduplicating equivalent stuck-ats before a
campaign shards them (members are reported through ``collapsed_from``
on the representative's verdict).

On the ``"bitpar"`` backend the injector forces *lane words* instead of
scalar values.  With a ``lane_map`` each fault is confined to its own
simulation lane (fault *k* active only in lane ``lane_map[k]``, lane 0
kept golden) -- the PPSFP encoding :mod:`repro.fault.ppsfp` batches
campaigns with.  Without a ``lane_map`` the fault is broadcast into
every lane.  A batch's stuck-ats on one bit merge into one table entry,
whatever their lanes and polarities.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..rtl.bitsim import trace_bit
from ..rtl.hdl import HdlError
from ..rtl.netlist import FlatDesign, FlatNet
from ..rtl.simulator import RtlSimulator
from .models import Fault, RtlBitFlip, RtlStuckAt

__all__ = ["RtlFaultInjector", "CollapsePlan", "collapse_faults",
           "resolve_state_bit"]


def resolve_state_bit(design: FlatDesign, path: str,
                      bit: int) -> Tuple[FlatNet, int]:
    """Resolve ``path[bit]`` to the register/input bit that holds it.

    ``reg``/``input`` targets resolve to themselves; a combinational
    target is traced through pure wiring (Ref/Slice/Concat and
    plain-alias nets) to its state support.  Raises :class:`HdlError`
    when the bit has real logic between it and any state bit (such a
    stuck-at cannot be expressed on state) or when the bit index is out
    of range.
    """
    try:
        flat = design.net(path)
    except KeyError:
        raise HdlError(f"unknown fault target net {path}") from None
    if not (0 <= bit < flat.width):
        raise HdlError(
            f"bit {bit} out of range for {flat.width}-bit {path}"
        )
    if flat.kind in ("reg", "input"):
        return flat, bit
    if flat.kind == "comb" and flat.tristate is None and flat.expr is not None:
        hit = trace_bit(flat.expr, flat.scope, bit)
        if hit is not None:
            return hit
    raise HdlError(
        f"fault target {path} is a {flat.kind!r} net with no pure-wiring "
        "register/input support; only reg/input nets hold state across a "
        "settle pass"
    )


class RtlFaultInjector:
    """Attach one or more RTL faults to a running :class:`RtlSimulator`.

    Usage::

        injector = RtlFaultInjector(sim, [RtlStuckAt("la1_top.bank0...", 0, 1)])
        injector.attach()      # installs the stuck-ats, which act at once
        ... drive traffic ...
        injector.detach()      # releases the simulator (faults stop acting)

    One injector at a time may hold a simulator: attaching installs its
    stuck-at table in place of any other.

    The injector validates every target path and bit index at
    construction time so campaigns fail fast on stale fault lists.
    Combinational targets with pure-wiring state support are collapsed
    onto that support (see :func:`resolve_state_bit`).

    ``lane_map`` (bitpar backend only) confines fault *k* to simulation
    lane ``lane_map[k]`` -- or, when the entry is a *list* of lanes, to
    all of them at once (pattern packing runs the same fault against
    several stimulus variants, one lane per pattern group); lane 0 is
    reserved for the golden machine.  :attr:`triggered_lanes` then
    accumulates, per lane, whether a force or flip actually changed that
    lane's state bit.
    """

    def __init__(self, sim: RtlSimulator, faults: List[Fault],
                 lane_map: Optional[List] = None):
        self.sim = sim
        self.faults = list(faults)
        self._attached = False
        #: True once a force or flip actually changed a state bit (a
        #: stuck-at matching the fault-free value never does -- such a
        #: run is reported *masked* rather than silent); the forces'
        #: share is read back from the simulator at :meth:`detach`
        self.triggered = False
        #: bitpar backend: lane word of lanes where a force or flip
        #: changed a state bit (the per-lane ``triggered``)
        self.triggered_lanes = 0
        bitpar = sim.backend == "bitpar"
        lane_masks: Optional[List[int]] = None
        if lane_map is not None:
            if not bitpar:
                raise HdlError("lane_map requires backend='bitpar'")
            if len(lane_map) != len(self.faults):
                raise HdlError(
                    f"lane_map holds {len(lane_map)} lanes for "
                    f"{len(self.faults)} faults"
                )
            lane_masks = []
            for entry in lane_map:
                lanes = [entry] if isinstance(entry, int) else list(entry)
                mask = 0
                for lane in lanes:
                    if not (1 <= lane < sim.lanes):
                        raise HdlError(
                            f"lane {lane} out of range (lane 0 is golden, "
                            f"{sim.lanes} lanes)"
                        )
                    mask |= 1 << lane
                if not mask:
                    raise HdlError("empty lane list in lane_map")
                lane_masks.append(mask)
        self._bitpar = bitpar
        #: the stuck-at table: slot -> (keep, put) over the backend state
        #: array, a later fault on the same bits and lanes overriding
        self._table: dict = {}
        #: SEUs still to flip: (fault, slot, mask, guard flags)
        self._pending_flips = []
        for index, fault in enumerate(self.faults):
            if not isinstance(fault, (RtlStuckAt, RtlBitFlip)):
                raise HdlError(
                    f"{fault!r} is not an RTL fault (layer={fault.layer})"
                )
            flat, bit = resolve_state_bit(sim.design, fault.path, fault.bit)
            if bitpar:
                # one lane word per net bit: select the fault's lane(s)
                slot = sim._bitpar.bit_slots[flat.path][bit]
                mask = (lane_masks[index] if lane_masks is not None
                        else sim.lane_mask)
            else:
                slot = flat.slot
                mask = 1 << bit
            if isinstance(fault, RtlBitFlip):
                # a flip raises the activity guards watching its net
                flags = (sim._bitpar.state_guards.get(flat.path, ())
                         if bitpar else ())
                self._pending_flips.append((fault, slot, mask, flags))
                continue
            keep, put = self._table.get(slot, (-1, 0))
            self._table[slot] = (keep & ~mask,
                                 (put & ~mask) | (mask if fault.value else 0))

    # ------------------------------------------------------------------
    def lane_triggered(self, lane: int) -> bool:
        """True when the fault confined to ``lane`` changed a state bit."""
        return bool((self.triggered_lanes >> lane) & 1)

    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Start injecting: install the stuck-at table, which acts at
        once, and hook the edges when an SEU is still to flip."""
        if self._attached:
            return
        self._attached = True
        if self._table:
            self.sim.install_forces(self._table)
        if self._pending_flips:
            self.sim.add_edge_hook(self._on_edge)

    def detach(self) -> None:
        """Stop injecting and release the (possibly shared) simulator;
        the bits the stuck-ats changed join :attr:`triggered`."""
        if not self._attached:
            return
        self._attached = False
        if self._table:
            self._note_triggered(self.sim.remove_forces())
        self.sim.remove_edge_hook(self._on_edge)

    # ------------------------------------------------------------------
    def _note_triggered(self, changed: int) -> None:
        if changed:
            self.triggered = True
            if self._bitpar:
                self.triggered_lanes |= changed

    def _on_edge(self, edge: str, sim: RtlSimulator) -> None:
        due = [entry for entry in self._pending_flips
               if sim.edge_count >= entry[0].at_edge]
        if not due:
            return
        for entry in due:
            fault, slot, mask, flags = entry
            sim._v[slot] ^= mask
            self._note_triggered(mask)
            for flag in flags:
                sim._ctx[flag] = 1
            self._pending_flips.remove(entry)
        # the scalar backends settle eagerly -- a post-flip tristate
        # conflict must raise from inside the step, exactly where a
        # real per-fault run would see it; on bitpar every reader and
        # the next step settle on demand
        if self._bitpar:
            sim._inputs_dirty = True
        else:
            sim._settle()


# ----------------------------------------------------------------------
# fault collapsing
# ----------------------------------------------------------------------
class CollapsePlan:
    """Outcome of :func:`collapse_faults`.

    ``run_faults`` is the deduplicated list a campaign actually sweeps
    (original order, representatives only); ``groups`` maps each
    representative's ``fault_id`` to the member :class:`Fault` objects
    it stands for (the members removed from ``run_faults``).
    """

    __slots__ = ("run_faults", "groups")

    def __init__(self, run_faults: List[Fault], groups: dict):
        self.run_faults = run_faults
        self.groups = groups

    @property
    def collapsed(self) -> int:
        """Number of faults removed by collapsing."""
        return sum(len(members) for members in self.groups.values())

    def __repr__(self):
        return (f"CollapsePlan({len(self.run_faults)} to run, "
                f"{self.collapsed} collapsed)")


def collapse_faults(faults: List[Fault], design: FlatDesign) -> CollapsePlan:
    """Dedupe equivalent RTL stuck-ats onto their register/input support.

    Two stuck-ats are equivalent when they resolve -- through pure
    wiring -- to the same state bit with the same forced value; only the
    first (the representative) is executed, and the campaign copies its
    verdict to every member, recording the relation in the verdicts'
    ``collapsed_from`` fields.  Faults that are not stuck-ats, or whose
    target has no pure-wiring state support (they would produce an
    ``error`` verdict of their own), pass through uncollapsed.
    """
    run_faults: List[Fault] = []
    groups: dict = {}
    keyed: dict = {}
    for fault in faults:
        if not isinstance(fault, RtlStuckAt):
            run_faults.append(fault)
            continue
        try:
            flat, bit = resolve_state_bit(design, fault.path, fault.bit)
        except HdlError:
            run_faults.append(fault)
            continue
        key = (flat.path, bit, fault.value)
        rep = keyed.get(key)
        if rep is None:
            keyed[key] = fault
            run_faults.append(fault)
        else:
            groups.setdefault(rep.fault_id, []).append(fault)
    return CollapsePlan(run_faults, groups)
