"""Combinational equivalence checking across simulator backends.

The repo ships three executable views of every flattened netlist: the
interpreter walks the :class:`~repro.rtl.hdl.Expr` trees directly, the
compiled backend (:mod:`repro.rtl.compile`) code-generates scalar
Python, and the bit-parallel backend (:mod:`repro.rtl.bitsim`)
code-generates lane-word Python.  The existing cross-backend tests only
*sample* agreement on concrete stimulus; this module **proves** it, for
every input and every reachable or unreachable state alike:

1. the netlist's Expr trees are Tseitin-encoded once over free state
   and input literals (:class:`~repro.sat.encode.NetlistEncoder` -- the
   interpreter-faithful reference);
2. each codegen backend's *emitted source* is symbolically executed
   over the **same** literals (:class:`~repro.sat.symexec`), so any
   lowering bug surfaces as a differing literal vector;
3. cone by cone, a miter (OR of per-bit XORs) between reference and
   backend is solved under an assumption.  UNSAT proves the cone
   equivalent -- most miters never reach the solver because structural
   hashing folds them to constant false -- and a SAT answer decodes
   into a concrete state/input assignment that exhibits the mismatch.

Settle logic is compared per combinational net; next-state logic is
compared per register per clock edge (the generated ``step_<edge>``
functions, including their hold-group and watched-commit peepholes).
All UNSAT answers share one solver whose clause log is certified in a
single RUP pass when ``check_proofs`` is set.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from ..rtl.compile import Forces, compile_design, mangle_edge
from ..rtl.bitsim import compile_bitpar
from ..rtl.netlist import FlatDesign
from .cnf import Tseitin
from .drat import check_proof
from .encode import Frame, NetlistEncoder
from .solver import Solver
from .symexec import Bv, SymbolicExecutor

__all__ = ["CecMismatch", "CecReport", "check_equivalence",
           "check_la1_equivalence"]


class CecMismatch:
    """One disproved cone: a concrete assignment separating a backend
    from the reference encoding."""

    __slots__ = ("path", "bit", "backend", "kind", "edge", "state",
                 "inputs")

    def __init__(self, path: str, bit: int, backend: str, kind: str,
                 edge: Optional[str], state: Dict[str, int],
                 inputs: Dict[str, int]):
        self.path = path
        self.bit = bit
        self.backend = backend
        self.kind = kind            # "settle" | "step"
        self.edge = edge            # clock edge for kind == "step"
        self.state = state          # register path -> value
        self.inputs = inputs        # input path -> value

    def __repr__(self):
        where = f"{self.kind}@{self.edge}" if self.edge else self.kind
        return (f"CecMismatch({self.backend} {where} {self.path}"
                f"[{self.bit}])")


class CecReport:
    """Outcome of one three-way equivalence check."""

    __slots__ = ("backends", "cones", "bits", "structural", "proved",
                 "mismatches", "proof_lemmas", "elapsed", "stats")

    def __init__(self, backends, cones, bits, structural, proved,
                 mismatches, proof_lemmas, elapsed, stats):
        self.backends = backends          # backends checked vs reference
        self.cones = cones                # miter groups examined
        self.bits = bits                  # individual bits compared
        self.structural = structural      # cones equal by hashing alone
        self.proved = proved              # cones needing a SAT proof
        self.mismatches = mismatches      # list of CecMismatch
        self.proof_lemmas = proof_lemmas  # RUP-checked lemmas (or None)
        self.elapsed = elapsed
        self.stats = stats                # solver counters

    @property
    def equivalent(self) -> bool:
        return not self.mismatches

    def __repr__(self):
        verdict = "EQUIVALENT" if self.equivalent else (
            f"{len(self.mismatches)} MISMATCHES")
        return (f"CecReport({verdict}, {self.cones} cones, "
                f"{self.structural} structural, {self.proved} proved, "
                f"{self.elapsed:.2f}s)")


def _step_names(design: FlatDesign) -> Dict[str, str]:
    """Edge -> generated step-function name (same collision rule as the
    emitters, which both inherit it from :mod:`repro.rtl.compile`)."""
    edges = sorted(set(design.clocks)
                   | {monitor.clock for monitor in design.monitors})
    names: Dict[str, str] = {}
    for edge in edges:
        name = f"step_{mangle_edge(edge)}"
        while name in names.values():
            name += "_"
        names[edge] = name
    return names


class _BackendView:
    """Uniform access to one symbolically executed backend."""

    def __init__(self, name: str, executor: SymbolicExecutor,
                 settle_args: List, reg_reader, net_reader):
        self.name = name
        self.executor = executor
        self.settle_args = settle_args    # prototype arrays, post-settle
        self.reg_reader = reg_reader      # (arrays, FlatNet) -> lits
        self.net_reader = net_reader      # (arrays, FlatNet) -> lits

    def net_lits(self, flat) -> List[int]:
        return self.net_reader(self.settle_args, flat)

    def step(self, step_name: str):
        """Run one edge, with no stuck-at installed, on a copy of the
        settled arrays; returns the arrays after commit + resettle."""
        arrays = [list(a) if isinstance(a, list) else a
                  for a in self.settle_args]
        fired: List = []
        self.executor.call(step_name,
                           [arrays[0], fired] + arrays[1:] + [Forces()])
        return arrays

    def reg_lits(self, arrays, flat) -> List[int]:
        return self.reg_reader(arrays, flat)


def _compiled_view(design: FlatDesign, t: Tseitin,
                   state, inputs, hook=None) -> _BackendView:
    compiled = compile_design(design, detect_bus_conflicts=True)
    ex = SymbolicExecutor(t, compiled.source)
    v: List = [None] * design.num_slots
    for reg in design.regs:
        v[reg.slot] = Bv(state[reg.path], t.FALSE)
    for inp in design.inputs:
        v[inp.slot] = Bv(inputs[inp.path], t.FALSE)
    ex.call("settle", [v], hooks={0: hook} if hook else None)

    def read(arrays, flat):
        bv = arrays[0][flat.slot]
        return [bv.bit(i) for i in range(flat.width)]

    return _BackendView("compiled", ex, [v], read, read)


def _bitpar_view(design: FlatDesign, t: Tseitin,
                 state, inputs, hook_factory=None) -> _BackendView:
    # one lane: every slot word is a single bit, so the lane mask M is
    # the constant-true literal and each slot holds a 1-wide vector
    bp = compile_bitpar(design, detect_bus_conflicts=True, lanes=1)
    hook = hook_factory(bp.bit_slots) if hook_factory else None
    ex = SymbolicExecutor(t, bp.source,
                          global_values={"M": Bv([t.TRUE], t.FALSE)})
    v: List = [None] * bp.num_bit_slots
    for reg in design.regs:
        for b, slot in enumerate(bp.bit_slots[reg.path]):
            v[slot] = Bv([state[reg.path][b]], t.FALSE)
    for inp in design.inputs:
        for b, slot in enumerate(bp.bit_slots[inp.path]):
            v[slot] = Bv([inputs[inp.path][b]], t.FALSE)
    # ctx[0] is the conflict word; every activity guard starts dirty,
    # exactly like the concrete backend at reset
    ctx: List = [Bv([t.FALSE], t.FALSE)]
    ctx += [Bv([t.TRUE], t.FALSE) for _ in range(bp.num_guards)]
    ex.call("settle", [v, ctx], hooks={0: hook} if hook else None)

    def read(arrays, flat):
        slots = bp.bit_slots[flat.path]
        return [arrays[0][slot].bit(0) for slot in slots]

    view = _BackendView("bitpar", ex, [v, ctx], read, read)
    view.bit_slots = bp.bit_slots
    return view


def check_equivalence(
    design: FlatDesign,
    backends: Sequence[str] = ("compiled", "bitpar"),
    check_proofs: bool = False,
    max_mismatches: int = 10,
) -> CecReport:
    """Prove every codegen backend equivalent to the Expr-tree netlist.

    Compares, against the reference Tseitin encoding over shared free
    state/input literals: every combinational net after ``settle``
    (monitor fire nets included) and every register's committed next
    state after each clock edge's ``step``.  Stops collecting concrete
    counterexamples after ``max_mismatches`` (the check itself still
    covers every cone).
    """
    start = time.perf_counter()
    solver = Solver(proof_log=True)
    t = Tseitin(solver)
    enc = NetlistEncoder(design, t)
    state = enc.free_state()
    inputs = enc.free_inputs()
    frame = enc.frame(state, inputs, 0 if enc.multi_clock else None)

    cones = bits = structural = proved = 0
    mismatches: List[CecMismatch] = []

    def decode(paths_to_lits) -> Dict[str, int]:
        out = {}
        for path, lits in paths_to_lits.items():
            value = 0
            for i, lit in enumerate(lits):
                if solver.model_value(lit):
                    value |= 1 << i
            out[path] = value
        return out

    slowest: List[tuple] = []

    def compare(ref_lits, got_lits, backend, path, kind, edge):
        nonlocal cones, bits, structural, proved
        cones += 1
        bits += len(ref_lits)
        xors = [t.xor(a, b) for a, b in zip(ref_lits, got_lits)]
        if all(x == t.FALSE for x in xors):
            structural += 1
            return
        # one solve per bit, locking each proved equality before the
        # next: a wide register array then costs many trivial local
        # refutations instead of one monolithic miter the solver has to
        # untangle all at once
        t0 = time.perf_counter()
        clean = True
        for i, x in enumerate(xors):
            if x == t.FALSE:
                continue
            # decision-ordering hint: without it VSIDS wanders over
            # thousands of unrelated design variables before touching
            # the (usually tiny) local miter cone
            solver.focus(t.support(x))
            if solver.solve([x]):
                clean = False
                if len(mismatches) < max_mismatches:
                    mismatches.append(CecMismatch(
                        path, i, backend, kind, edge,
                        decode(state), decode(inputs),
                    ))
                break
            solver.commit_final_conflict()
        dt = time.perf_counter() - t0
        if dt > 0.1:
            slowest.append((round(dt, 2), f"{backend}:{path}"))
            slowest.sort(reverse=True)
            del slowest[5:]
        if clean:
            proved += 1

    # Cut-point merging: each backend slot is compared the moment its
    # settle assignment produces it, then *replaced* by the reference
    # literals, so every miter spans one cone instead of the whole
    # transitive fan-in (without this, reconvergent cones -- the parity
    # trees especially -- force the solver to re-prove their entire
    # input logic from scratch).  Extra value bits above the net width
    # are compared against constant zero: a codegen bug that leaks high
    # garbage must not be masked by the substitution.
    def _cut(backend, flat, bit_lo, width, value: Bv):
        ref = [frame.bits[flat][bit_lo + i] for i in range(width)]
        got = [value.bit(i) for i in range(width)]
        extras = list(value.bits[width:])
        if value.tail != t.FALSE:
            extras.append(value.tail)
        compare(ref + [t.FALSE] * len(extras), got + extras,
                backend, flat.path, "settle", None)
        return ref

    comp_map = {flat.slot: flat for flat in design.comb_order}
    sub_cache: Dict[tuple, Bv] = {}

    def compiled_hook(index, value):
        flat = comp_map.get(index)
        if flat is None or not isinstance(value, Bv):
            return value
        key = ("c", index)
        bv = sub_cache.get(key)
        if bv is None:
            bv = Bv(_cut("compiled", flat, 0, flat.width, value), t.FALSE)
            sub_cache[key] = bv
        return bv

    def bitpar_hook_factory(bit_slots):
        owned = {
            slot
            for net in list(design.regs) + list(design.inputs)
            for slot in bit_slots[net.path]
        }
        slot_map: Dict[int, tuple] = {}
        for flat in design.comb_order:
            for b, slot in enumerate(bit_slots[flat.path]):
                if slot not in owned:
                    slot_map.setdefault(slot, (flat, b))

        def hook(index, value):
            entry = slot_map.get(index)
            if entry is None or not isinstance(value, Bv):
                return value
            key = ("b", index)
            bv = sub_cache.get(key)
            if bv is None:
                flat, b = entry
                bv = Bv(_cut("bitpar", flat, b, 1, value), t.FALSE)
                sub_cache[key] = bv
            return bv

        return hook

    views: List[_BackendView] = []
    for name in backends:
        if name == "compiled":
            views.append(_compiled_view(design, t, state, inputs,
                                        hook=compiled_hook))
        elif name == "bitpar":
            views.append(_bitpar_view(design, t, state, inputs,
                                      hook_factory=bitpar_hook_factory))
        else:
            raise ValueError(f"unknown backend {name!r}")

    # fallback sweep: anything the assignment hooks did not substitute
    # (branch-guarded stores, aliased routing slots) is compared here;
    # substituted slots fold structurally and are skipped, not recounted
    for flat in design.comb_order:
        ref = [frame.bits[flat][i] for i in range(flat.width)]
        for view in views:
            got = view.net_lits(flat)
            if got == ref:
                continue
            compare(ref, got, view.name, flat.path, "settle", None)

    # step: committed register state per clock edge, including the
    # bitpar hold-group / watched-commit peepholes
    step_names = _step_names(design)
    for index, edge in enumerate(design.clocks):
        edge_frame = Frame(frame.bits, frame.state, frame.inputs,
                           index if enc.multi_clock else None)
        ref_next = enc.next_state(edge_frame)
        regs = [reg for reg in design.regs if reg.clock == edge]
        if not regs:
            continue
        for view in views:
            arrays = view.step(step_names[edge])
            for reg in regs:
                compare(ref_next[reg.path], view.reg_lits(arrays, reg),
                        view.name, reg.path, "step", edge)

    proof_lemmas = None
    if check_proofs and solver.proof:
        proof_lemmas = check_proof(solver.clauses, solver.proof)
    stats = {
        "vars": solver.num_vars,
        "clauses": len(solver.clauses),
        "conflicts": solver.stats["conflicts"],
        "decisions": solver.stats["decisions"],
        "propagations": solver.stats["propagations"],
        "slowest": slowest,
    }
    return CecReport(
        tuple(view.name for view in views), cones, bits, structural,
        proved, mismatches, proof_lemmas,
        time.perf_counter() - start, stats,
    )


def check_la1_equivalence(
    banks: int,
    config=None,
    datapath: bool = True,
    check_proofs: bool = False,
) -> CecReport:
    """CEC over a shipped LA-1 top model at the given bank count."""
    from ..core.rtl_model import la1_netlist
    from ..core.rulebase import MC_SCALE_CONFIG

    design = la1_netlist(config or MC_SCALE_CONFIG(banks), datapath)
    return check_equivalence(design, check_proofs=check_proofs)
