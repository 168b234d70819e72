"""Bounded model checking and k-induction over the CNF encoding.

The SAT answer to the paper's Table 2 negative result: where BDD
reachability explodes at 4 banks, this module *unrolls* the design --
frame ``t+1``'s register literals simply are the Tseitin encoding of
frame ``t``'s next-state functions -- and asks a CDCL solver one
question per depth.  The PSL checker automaton is embedded per frame
by the ``CheckerAutomaton.encode_step`` that builds the BDD checker's
satellite machine: binary-encoded state, initial state 0, a
combinational fail literal per frame (so a counterexample's depth is the
failing frame, matching ``SymbolicCheckResult.counterexample_depth``).

* :meth:`SatModelChecker.bmc` refutes: any SAT answer is decoded into
  per-frame input vectors and **replayed** on the real simulator
  (:class:`~repro.rtl.simulator.RtlSimulator` + ``CheckerAutomaton.run``)
  before being reported -- the engine cross-checks itself against the
  execution semantics.
* :meth:`SatModelChecker.prove` proves: interleaved BMC (base case) and
  strengthened k-induction (step case), incremental in k on persistent
  solvers.  The step case starts from a free state constrained by sound
  invariants only: automaton state limited to graph-reachable codes,
  constprop's stuck registers pinned to their init values, and
  simple-path (pairwise-distinct full-state) constraints, which are
  sound here because the encoded state vector is transition-closed --
  the whole netlist, or a cone-of-influence reduction, never a
  projection.
* every UNSAT answer can be certified: ``check_proofs=True`` replays
  the solver's clause log through :func:`repro.sat.drat.check_proof`.

Both stop only on budgets they count -- BMC at ``max_depth``, k-induction
at ``max_k`` -- and read no clock, so a verdict is the same on any host;
a wall-clock limit stays outside the engine, in the property sweep
(:func:`repro.mc.sweep.sweep_rtl_properties`).

Dual-clock (DDR) designs need no phase variable: the phase of frame
``t`` is statically ``(t + start_phase) % 2``, so each frame clocks one
domain and passes the other through (init runs start at phase 0, K
first, like ``SymbolicModel``; induction windows try both parities).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..mc.checker import SymbolicCheckResult
from ..psl.ast import Property, PslError
from ..psl.automata import compiled_checker
from ..rtl.netlist import FlatDesign
from .cnf import Tseitin
from .drat import check_proof
from .encode import NetlistEncoder
from .solver import Solver

__all__ = [
    "BmcResult",
    "KInductionResult",
    "SatModelChecker",
    "check_read_mode_sat",
]


class BmcResult:
    """Outcome of a bounded search for a property violation.

    ``failed_at`` is the 0-based failing frame when a counterexample was
    found (``holds`` is then False); otherwise ``holds`` is None -- BMC
    alone proves nothing -- and ``clean_depth`` is the last depth
    exhaustively checked.  ``counterexample`` is a list of per-frame
    ``{input_path: value}`` dicts and ``replayed`` records whether the
    real simulator reproduced the violation at the same frame.
    """

    def __init__(self, holds, failed_at, clean_depth, counterexample,
                 replayed, stats):
        self.holds: Optional[bool] = holds
        self.failed_at: Optional[int] = failed_at
        self.clean_depth: int = clean_depth
        self.counterexample: Optional[List[Dict[str, int]]] = counterexample
        self.replayed: Optional[bool] = replayed
        self.stats: dict = stats

    def __repr__(self):
        if self.failed_at is not None:
            return (
                f"BmcResult(FAILS at {self.failed_at}, "
                f"replayed={self.replayed})"
            )
        return f"BmcResult(clean to depth {self.clean_depth})"


class KInductionResult:
    """Outcome of :meth:`SatModelChecker.prove`.

    ``proved`` with ``k`` on success; a base-case counterexample
    surfaces as ``cex`` (a :class:`BmcResult`); neither means the engine
    ran out of ``max_k`` (``truncated``).
    """

    def __init__(self, proved, k, cex, stats, truncated=False):
        self.proved: bool = proved
        self.k: Optional[int] = k
        self.cex: Optional[BmcResult] = cex
        self.stats: dict = stats
        self.truncated = truncated

    @property
    def holds(self) -> Optional[bool]:
        if self.proved:
            return True
        if self.cex is not None:
            return False
        return None

    def __repr__(self):
        if self.proved:
            return f"KInductionResult(PROVED at k={self.k})"
        if self.cex is not None:
            return f"KInductionResult(FAILS: {self.cex!r})"
        return "KInductionResult(UNDECIDED)"


class _Unrolling:
    """One solver + encoder pair with its frame chain and automaton."""

    def __init__(self, mc: "SatModelChecker", free_start: bool,
                 start_phase: Optional[int]):
        self.solver = Solver(proof_log=mc.proof_log)
        self.t = Tseitin(self.solver)
        self.enc = NetlistEncoder(mc.enc_design, self.t)
        self.start_phase = start_phase
        self.fails: List[int] = []
        self.input_frames: List[Dict[str, List[int]]] = []
        self.state_frames: List[Dict[str, List[int]]] = []
        self.aut_frames: List[List[int]] = []
        t = self.t
        width = mc.checker.code_width
        if free_start:
            state = self.enc.free_state()
            aut = [t.new_var() for _ in range(width)]
            # sound strengthening: only graph-reachable automaton codes
            for code in range(1 << width):
                if code not in mc.aut_reachable:
                    self.solver.add_clause([
                        -bit if (code >> i) & 1 else bit
                        for i, bit in enumerate(aut)
                    ])
            # constprop invariant: stuck registers never leave init
            for path, value in mc.invariant_values.items():
                for i, bit in enumerate(state[path]):
                    lit = bit if (value >> i) & 1 else -bit
                    self.solver.add_clause([lit])
        else:
            state = self.enc.init_state()
            aut = [t.FALSE] * width
        self.state = state
        self.aut = aut
        self.mc = mc

    @property
    def depth(self) -> int:
        return len(self.fails)

    def phase(self, index: int) -> Optional[int]:
        if not self.enc.multi_clock:
            return None
        return (self.start_phase + index) % 2

    def extend(self, unique_states: bool = False) -> int:
        """Encode one more frame; returns its fail literal."""
        mc = self.mc
        index = self.depth
        if unique_states:
            self._add_uniqueness(index)
        inputs = self.enc.free_inputs()
        frame = self.enc.frame(self.state, inputs, self.phase(index))
        atom_lits = [
            frame.bits[self.enc.design.net(path)][bit]
            for path, bit in mc.atom_locs
        ]
        fail, self.aut = mc.checker.encode_step(self.t, self.aut, atom_lits)
        self.input_frames.append(inputs)
        self.state_frames.append(self.state)
        self.aut_frames.append(list(self.aut))
        self.fails.append(fail)
        self.state = self.enc.next_state(frame)
        return fail

    def _cone_state_bits(self, state: Dict[str, List[int]],
                         aut: Sequence[int]) -> List[int]:
        bits: List[int] = []
        for reg in self.mc.unique_regs:
            bits.extend(state[reg.path])
        bits.extend(aut)
        return bits

    def _add_uniqueness(self, index: int) -> None:
        """Pairwise-distinct constraint against every earlier frame of
        the same phase parity (simple-path strengthening over the
        transition-closed cone state, see ``SatModelChecker``)."""
        if index == 0:
            return
        # the frame being added is not yet in state_frames; compare the
        # *entering* state of frame `index` (self.state / self.aut)
        bits_new = self._cone_state_bits(self.state, self.aut)
        t = self.t
        for earlier in range(index):
            if self.phase(earlier) != self.phase(index):
                continue
            bits_old = self._cone_state_bits(
                self.state_frames[earlier], self.aut_frames[earlier],
            )
            diff = t.or_all([
                t.xor(a, b) for a, b in zip(bits_old, bits_new)
            ])
            self.solver.add_clause([diff])

    def decode_inputs(self, upto: int) -> List[Dict[str, int]]:
        """Input values per frame 0..upto from the solver model."""
        out: List[Dict[str, int]] = []
        solver = self.solver
        for frame in self.input_frames[: upto + 1]:
            values = {}
            for path, lits in frame.items():
                value = 0
                for i, lit in enumerate(lits):
                    if solver.model_value(lit):
                        value |= 1 << i
                values[path] = value
            out.append(values)
        return out


class SatModelChecker:
    """SAT-based safety checking of one PSL property on a flat design.

    ``labels`` maps every atom to a ``("net.path", bit)`` pair, like the
    BDD checker.  ``coi=True`` (default) encodes only the cone of
    influence of the labelled nets; counterexample replay always runs on
    the full design (stepping only the encoded clock schedule, which the
    cone cannot distinguish from the full one).
    """

    def __init__(
        self,
        design: FlatDesign,
        prop: Property,
        labels: Dict[str, Tuple[str, int]],
        name: str = "property",
        coi: bool = True,
        invariants: bool = True,
        unique_states: bool = True,
        proof_log: bool = True,
    ):
        if not prop.is_safety():
            raise PslError(f"{prop!r} is not a safety property")
        self.design = design
        self.prop = prop
        self.name = name
        self.proof_log = proof_log
        self.unique_states = unique_states
        self.checker = compiled_checker(prop)
        for atom in self.checker.atoms:
            if atom not in labels:
                raise PslError(f"no label mapping for atom {atom!r}")
        self.atom_locs = [labels[a] for a in self.checker.atoms]
        from ..lint.coi import cone_of_influence, reduce_design

        roots = sorted({path for path, __ in self.atom_locs})
        if coi:
            self.enc_design = reduce_design(design, roots)
        else:
            self.enc_design = design
        # Simple-path constraints are sound only over a transition-closed
        # state vector.  The label cone is transition-closed *inside* the
        # full encoding too (cone regs read only cone nets, the property
        # reads only cone nets), so uniqueness always binds on cone
        # registers + automaton bits -- on the full-netlist encoding,
        # full-state uniqueness would be vacuously weak: spurious paths
        # could differ only in registers the property never observes.
        cone = cone_of_influence(design, roots)
        self.unique_regs = [
            reg for reg in self.enc_design.regs if reg.path in cone
        ]
        self.aut_reachable = self.checker.reachable()
        self.invariant_values: Dict[str, int] = {}
        if invariants:
            self.invariant_values = self._stuck_registers()

    # ------------------------------------------------------------------
    # preprocessing
    # ------------------------------------------------------------------
    def _stuck_registers(self) -> Dict[str, int]:
        """Registers constprop proves never leave init (an inductive
        invariant, so sound to assume at an induction window's start)."""
        from ..lint.analyses import ConstPropPass
        from ..lint.manager import LintContext

        ctx = LintContext(design=self.enc_design)
        ConstPropPass().run(ctx)
        stuck = ctx.results.get("constprop.stuck_regs", set())
        return {
            reg.path: reg.init
            for reg in self.enc_design.regs
            if reg.path in stuck
        }

    # ------------------------------------------------------------------
    # counterexample replay
    # ------------------------------------------------------------------
    def replay(
        self, input_frames: List[Dict[str, int]],
    ) -> Tuple[str, Optional[int]]:
        """Run a decoded counterexample on the real simulator.

        Drives the *full* design with the decoded inputs (nets outside
        the encoded cone read 0), samples the labelled nets each frame
        and feeds the valuations to ``CheckerAutomaton.run``.  Returns
        its verdict (``("fails", frame)`` on success).
        """
        from ..rtl.simulator import RtlSimulator

        sim = RtlSimulator(
            self.design, stop_on_failure=False, detect_bus_conflicts=False,
        )
        clocks = self.enc_design.clocks
        multi = len(clocks) > 1
        trace: List[dict] = []
        for index, values in enumerate(input_frames):
            for path, value in values.items():
                sim.set_input(path, value)
            valuation = {
                atom: bool((sim.read(path) >> bit) & 1)
                for atom, (path, bit) in zip(
                    self.checker.atoms, self.atom_locs
                )
            }
            trace.append(valuation)
            sim.step(clocks[index % 2] if multi else clocks[0])
        return self.checker.run(trace)

    # ------------------------------------------------------------------
    # BMC
    # ------------------------------------------------------------------
    def bmc(self, max_depth: int, check_proofs: bool = False) -> BmcResult:
        """Search for a violation up to ``max_depth`` frames (inclusive),
        incrementally on one solver.  Counterexamples are replayed on the
        simulator before being reported."""
        start = time.perf_counter()
        run = _Unrolling(self, free_start=False, start_phase=0)
        clean = -1
        for depth in range(max_depth + 1):
            fail = run.extend()
            if fail == run.t.FALSE:
                clean = depth
                continue
            if run.solver.solve([fail]):
                inputs = run.decode_inputs(depth)
                verdict, frame = self.replay(inputs)
                replay_ok = verdict == "fails" and frame == depth
                return BmcResult(
                    False, depth, clean, inputs, replay_ok,
                    self._stats(run, start),
                )
            clean = depth
        stats = self._stats(run, start)
        if check_proofs and self.proof_log:
            stats["proof_lemmas"] = check_proof(
                run.solver.clauses, run.solver.proof,
            )
        return BmcResult(None, None, clean, None, None, stats)

    # ------------------------------------------------------------------
    # k-induction
    # ------------------------------------------------------------------
    def prove(self, max_k: int = 40,
              check_proofs: bool = False) -> KInductionResult:
        """Interleaved BMC base case and k-induction step case.

        Returns ``proved`` with the inductive depth ``k``, a replayed
        base-case counterexample, or undecided when no ``k`` up to
        ``max_k`` decides; ``stats["budget"]`` then names ``"max_k"``.
        """
        start = time.perf_counter()
        base = _Unrolling(self, free_start=False, start_phase=0)
        phases = [0, 1] if base.enc.multi_clock else [None]
        steps = [
            _Unrolling(self, free_start=True, start_phase=p or 0)
            for p in phases
        ]

        for k in range(1, max_k + 1):
            # base: no counterexample of depth k-1 from init
            while base.depth < k:
                depth = base.depth
                fail = base.extend()
                if fail == base.t.FALSE:
                    continue
                if base.solver.solve([fail]):
                    inputs = base.decode_inputs(depth)
                    verdict, frame = self.replay(inputs)
                    cex = BmcResult(
                        False, depth, depth - 1, inputs,
                        verdict == "fails" and frame == depth,
                        self._stats(base, start),
                    )
                    return KInductionResult(
                        False, None, cex, self._stats(base, start, steps),
                    )
            # step: k clean frames from a constrained free state force
            # frame k clean too, at either starting parity
            inductive = True
            for run in steps:
                while run.depth < k + 1:
                    run.extend(unique_states=self.unique_states)
                fail_k = run.fails[k]
                if fail_k == run.t.FALSE:
                    continue
                assumptions = [-f for f in run.fails[:k]] + [fail_k]
                assumptions = [
                    a for a in assumptions if a != run.t.TRUE
                ]
                if run.solver.solve(assumptions):
                    inductive = False
                    break
            if inductive:
                stats = self._stats(base, start, steps)
                if check_proofs and self.proof_log:
                    lemmas = 0
                    for run in [base] + steps:
                        if run.solver.proof:
                            lemmas += check_proof(
                                run.solver.clauses, run.solver.proof,
                            )
                    stats["proof_lemmas"] = lemmas
                return KInductionResult(True, k, None, stats)
        stats = self._stats(base, start, steps)
        stats["budget"] = "max_k"
        return KInductionResult(False, None, None, stats, truncated=True)

    # ------------------------------------------------------------------
    def _stats(self, run: _Unrolling, start: float,
               steps: Sequence[_Unrolling] = ()) -> dict:
        runs = [run] + list(steps)
        stats = {
            "engine": "sat",
            "cpu_time": time.perf_counter() - start,
            "vars": sum(r.solver.num_vars for r in runs),
            "clauses": sum(len(r.solver.clauses) for r in runs),
            "conflicts": sum(r.solver.stats["conflicts"] for r in runs),
            "decisions": sum(r.solver.stats["decisions"] for r in runs),
            "propagations": sum(
                r.solver.stats["propagations"] for r in runs
            ),
            "learned": sum(r.solver.stats["learned"] for r in runs),
            "restarts": sum(r.solver.stats["restarts"] for r in runs),
            "frames": sum(r.depth for r in runs),
            "encoded_regs": len(self.enc_design.regs),
            "encoded_nets": len(self.enc_design.nets),
        }
        return stats


# ----------------------------------------------------------------------
# drop-in analogue of check_read_mode_rtl
# ----------------------------------------------------------------------
def check_read_mode_sat(
    banks: int,
    prop: Optional[Property] = None,
    config=None,
    property_name: Optional[str] = None,
    datapath: bool = True,
    coi: bool = True,
    max_k: int = 40,
    max_depth: int = 60,
    check_proofs: bool = False,
    method: str = "prove",
) -> SymbolicCheckResult:
    """SAT-engine counterpart of
    :func:`repro.core.rulebase.check_read_mode_rtl`.

    Same inputs, same :class:`SymbolicCheckResult` shape -- so property
    sweeps, flow reports and benches consume either engine unchanged.
    ``holds=True`` means *proved by k-induction* (``bdd_stats["k"]``
    holds the inductive depth); ``holds=False`` carries a replayed
    counterexample depth; ``holds=None`` with ``truncated=True`` means
    ``max_k`` ran out, and ``bdd_stats["budget"]`` names it.  SAT
    statistics travel in ``bdd_stats`` (``engine="sat"``);
    ``peak_nodes`` reports the clause count as the size proxy.

    With no explicit ``prop``, the Read-Mode *conjuncts* (bank-0
    latency, beat order, no-spurious-data) are swept
    (:func:`repro.mc.sweep_rtl_properties`) and folded into one result
    named ``read_mode[{banks}banks]`` -- same verdict as checking the
    conjunction in a single run, but each conjunct's checker automaton
    stays small where the product automaton of the conjunction inflates
    every unrolled frame.

    ``method="bmc"`` skips induction and only refutes/bounds.
    """
    from ..core.properties import read_mode_suite
    from ..mc.sweep import check_la1_property, sweep_rtl_properties

    name = property_name or f"read_mode[{banks}banks]"
    options = dict(coi=coi, max_k=max_k, max_depth=max_depth,
                   check_proofs=check_proofs, method=method)
    if prop is not None:
        return check_la1_property(banks, prop, name, "sat", datapath,
                                  config, **options)
    return sweep_rtl_properties(
        banks, read_mode_suite(1), datapath, engine="sat", config=config,
        **options).combined(name)
