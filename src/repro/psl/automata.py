"""Checker construction: PSL properties to deterministic monitor automata.

The paper encodes each PSL property as two state variables ``P_status``
and ``P_value``: *pending* (a temporal property mid-verification), *holds*
or *fails*.  The same three-valued semantics is implemented here through
**formula progression**: the checker state is a set of outstanding
obligations; each cycle's valuation discharges, fails or rewrites them.

Two consumers share this machinery:

* :class:`repro.psl.monitor.PslMonitor` progresses obligations directly
  at simulation time (the ABV path);
* :func:`build_checker` *determinises* progression into an explicit
  :class:`CheckerAutomaton` over the property's atoms.  The symbolic
  engines embed it as binary-coded state through one
  :meth:`CheckerAutomaton.encode_step`: into BDD state variables in
  :mod:`repro.mc`, into CNF frames in :mod:`repro.sat` and the semantic
  lint passes.  The step is emitted from :attr:`CheckerAutomaton.step_dag`,
  the fail and next-code functions as one reduced ordered decision
  DAG (state-code bits on top, then the atoms), so a frame costs one
  if-then-else gate per DAG node rather than one AND per (state,
  valuation).  A :class:`PropertyBank` steps several of them as one
  memoised product: the exploration-based model checker
  (:mod:`repro.asm.checker`) composes it with the ASM's FSM, and the
  SystemC assertion monitors (:mod:`repro.abv`) sample through it.

Obligation sets are finite for the supported fragment (bounded ``next`` /
``within!`` windows, SERE trackers over fixed NFAs), so the automaton
construction always terminates.
"""

from __future__ import annotations

import functools
from itertools import product
from typing import Optional, Union

from .ast import (
    Abort,
    Always,
    Before,
    EventuallyBang,
    Never,
    NextP,
    PropAnd,
    PropBool,
    PropImplication,
    Property,
    PslError,
    SuffixImpl,
    Until,
    WithinBang,
)
from .sere import Nfa, compile_sere

__all__ = [
    "SereTracker",
    "NeverTracker",
    "AbortWrapper",
    "progress",
    "progress_set",
    "initial_obligations",
    "is_strong",
    "CheckerAutomaton",
    "build_checker",
    "compiled_checker",
    "PropertyBank",
    "FAIL",
]

#: Sentinel returned in place of a next-obligation set when a violation
#: is detected.
FAIL = "FAIL"


class SereTracker:
    """An in-flight SERE match feeding a suffix implication.

    Tracks the NFA state set of the antecedent; when the match completes,
    the consequent property is spawned (overlapping for ``|->``, one cycle
    later for ``|=>``).
    """

    __slots__ = ("nfa", "states", "consequent", "overlap")

    def __init__(self, nfa: Nfa, states: frozenset, consequent: Property,
                 overlap: bool):
        self.nfa = nfa
        self.states = states
        self.consequent = consequent
        self.overlap = overlap

    def __eq__(self, other):
        return (
            isinstance(other, SereTracker)
            and other.nfa == self.nfa
            and other.states == self.states
            and other.consequent == self.consequent
            and other.overlap == self.overlap
        )

    def __hash__(self):
        return hash(("SereTracker", self.nfa, self.states, self.consequent,
                     self.overlap))

    def __repr__(self):
        return f"track{sorted(self.states)} |{'->' if self.overlap else '=>'} ..."


class NeverTracker:
    """The self-renewing tracker behind ``never r``: a match starting at
    any cycle is a violation."""

    __slots__ = ("nfa", "states")

    def __init__(self, nfa: Nfa, states: frozenset):
        self.nfa = nfa
        self.states = states

    def __eq__(self, other):
        return (
            isinstance(other, NeverTracker)
            and other.nfa == self.nfa
            and other.states == self.states
        )

    def __hash__(self):
        return hash(("NeverTracker", self.nfa, self.states))

    def __repr__(self):
        return f"never-track{sorted(self.states)}"


class AbortWrapper:
    """Wraps any obligation so that ``cond`` cancels it (PSL ``abort``)."""

    __slots__ = ("ob", "cond")

    def __init__(self, ob, cond):
        self.ob = ob
        self.cond = cond

    def __eq__(self, other):
        return (
            isinstance(other, AbortWrapper)
            and other.ob == self.ob
            and other.cond == self.cond
        )

    def __hash__(self):
        return hash(("AbortWrapper", self.ob, self.cond))

    def __repr__(self):
        return f"({self.ob!r} abort {self.cond!r})"


Obligation = Union[Property, SereTracker, NeverTracker, AbortWrapper]

_nfa_of = functools.lru_cache(maxsize=256)(compile_sere)


def progress(ob: Obligation, valuation: dict):
    """Progress one obligation through one cycle.

    Returns :data:`FAIL` on violation, otherwise the (possibly empty) set
    of obligations carried into the next cycle.
    """
    if isinstance(ob, PropBool):
        return set() if ob.expr.evaluate(valuation) else FAIL

    if isinstance(ob, Always):
        inner = progress(ob.p, valuation)
        if inner is FAIL:
            return FAIL
        inner.add(ob)
        return inner

    if isinstance(ob, NextP):
        if ob.n > 1:
            return {NextP(ob.p, ob.n - 1)}
        return {ob.p}

    if isinstance(ob, PropImplication):
        if ob.guard.evaluate(valuation):
            return progress(ob.p, valuation)
        return set()

    if isinstance(ob, PropAnd):
        result: set = set()
        for part in ob.parts:
            inner = progress(part, valuation)
            if inner is FAIL:
                return FAIL
            result |= inner
        return result

    if isinstance(ob, Until):
        if ob.rhs.evaluate(valuation):
            return set()
        if ob.lhs.evaluate(valuation):
            return {ob}
        return FAIL

    if isinstance(ob, Before):
        lhs = ob.lhs.evaluate(valuation)
        rhs = ob.rhs.evaluate(valuation)
        if lhs and not rhs:
            return set()
        if rhs:
            return FAIL
        return {ob}

    if isinstance(ob, WithinBang):
        if ob.expr.evaluate(valuation):
            return set()
        if ob.n == 0:
            return FAIL
        return {WithinBang(ob.expr, ob.n - 1)}

    if isinstance(ob, EventuallyBang):
        if ob.expr.evaluate(valuation):
            return set()
        return {ob}

    if isinstance(ob, SuffixImpl):
        nfa = _nfa_of(ob.sere)
        tracker = SereTracker(nfa, nfa.initial, ob.p, ob.overlap)
        if nfa.accepts_empty:
            # the antecedent matched the empty word before this cycle;
            # the consequent starts at the current cycle
            extra = progress(ob.p, valuation)
            if extra is FAIL:
                return FAIL
            rest = progress(tracker, valuation)
            if rest is FAIL:
                return FAIL
            return extra | rest
        return progress(tracker, valuation)

    if isinstance(ob, SereTracker):
        new_states = ob.nfa.step(ob.states, valuation)
        result: set = set()
        if ob.nfa.accepts_now(new_states):
            if ob.overlap:
                # |->: the consequent's first cycle is the match's last
                spawned = progress(ob.consequent, valuation)
                if spawned is FAIL:
                    return FAIL
                result |= spawned
            else:
                result.add(ob.consequent)
        if new_states:
            result.add(SereTracker(ob.nfa, new_states, ob.consequent,
                                   ob.overlap))
        return result

    if isinstance(ob, Never):
        nfa = _nfa_of(ob.sere)
        if nfa.accepts_empty:
            return FAIL
        return progress(NeverTracker(nfa, frozenset()), valuation)

    if isinstance(ob, NeverTracker):
        new_states = ob.nfa.step(ob.states | ob.nfa.initial, valuation)
        if ob.nfa.accepts_now(new_states):
            return FAIL
        return {NeverTracker(ob.nfa, new_states)}

    if isinstance(ob, Abort):
        return progress(AbortWrapper(ob.p, ob.cond), valuation)

    if isinstance(ob, AbortWrapper):
        if ob.cond.evaluate(valuation):
            return set()
        inner = progress(ob.ob, valuation)
        if inner is FAIL:
            return FAIL
        return {AbortWrapper(o, ob.cond) for o in inner}

    raise PslError(f"cannot progress obligation {ob!r}")


def progress_set(obligations: frozenset, valuation: dict):
    """Progress a whole obligation set; :data:`FAIL` aborts immediately."""
    result: set = set()
    for ob in obligations:
        inner = progress(ob, valuation)
        if inner is FAIL:
            return FAIL
        result |= inner
    return frozenset(result)


def initial_obligations(prop: Property) -> frozenset:
    """The obligation set before the first cycle."""
    return frozenset({prop})


def is_strong(ob: Obligation) -> bool:
    """True when leaving ``ob`` pending at end of trace is a failure."""
    if isinstance(ob, (EventuallyBang, WithinBang)):
        return True
    if isinstance(ob, Until):
        return ob.strong
    if isinstance(ob, Before):
        return ob.strong
    if isinstance(ob, AbortWrapper):
        return is_strong(ob.ob)
    if isinstance(ob, NextP):
        return is_strong(ob.p)
    return False


def _keys(count: int) -> list:
    """Every valuation key over ``count`` atoms, all-False first."""
    return list(product((False, True), repeat=count))


class CheckerAutomaton:
    """A deterministic safety checker over a property's atoms.

    ``states[i]`` is the obligation set of state ``i``; state 0 is
    initial.  ``transition(i, key)`` maps a state and a valuation key (a
    tuple of booleans in :attr:`atoms` order) to the next state, or to
    :attr:`FAIL_STATE` when the valuation reveals a violation.  A state
    with an empty obligation set means the property already holds on
    every extension (the accepting sink).
    """

    FAIL_STATE = -1

    def __init__(self, prop: Property, atoms: list[str],
                 states: list[frozenset], table: dict):
        self.prop = prop
        self.atoms = atoms
        self.states = states
        self._table = table

    @property
    def num_states(self) -> int:
        """Number of non-failure states."""
        return len(self.states)

    @property
    def code_width(self) -> int:
        """Bits of the binary state code the symbolic engines embed."""
        return max(1, (self.num_states - 1).bit_length())

    def transition(self, state: int, key: tuple) -> int:
        """Next state index (or :attr:`FAIL_STATE`)."""
        if state == self.FAIL_STATE:
            return self.FAIL_STATE
        return self._table[(state, key)]

    def reachable(self) -> set:
        """The states reachable from state 0, with :attr:`FAIL_STATE`
        included when some trace fails."""
        keys = _keys(len(self.atoms))
        seen = {0}
        stack = [0]
        while stack:
            src = stack.pop()
            for key in keys:
                dst = self._table[(src, key)]
                if dst not in seen:
                    seen.add(dst)
                    if dst != self.FAIL_STATE:
                        stack.append(dst)
        return seen

    @functools.cached_property
    def step_dag(self) -> tuple:
        """The step function as one reduced ordered decision DAG,
        ``(nodes, roots)``, built on first use.

        The DAG's inputs are the :attr:`code_width` state-code bits (LSB
        first, on top) followed by the atoms of :attr:`atoms`; a lower
        input index sits nearer the roots.  Node ids 0 and 1 are FALSE
        and TRUE, node ``k >= 2`` is ``nodes[k - 2] = (input, low,
        high)``: ``high`` if the input is set, else ``low``.  ``roots``
        are the fail function, then each bit of the next code.  Every
        code has its row, reachable or not: a code past the last state
        never fails and steps to code 0.
        """
        width = self.code_width
        keys = _keys(len(self.atoms))
        nodes: list = []
        unique: dict = {}

        def mk(index: int, low: int, high: int) -> int:
            if low == high:
                return low
            key = (index, low, high)
            node = unique.get(key)
            if node is None:
                node = unique[key] = len(nodes) + 2
                nodes.append(key)
            return node

        def outputs(dst: int) -> tuple:
            if dst == self.FAIL_STATE:
                return (1,) + (0,) * width
            return (0,) + tuple(dst >> i & 1 for i in range(width))

        def row(code: int) -> list:
            """One root per output over the atoms, the code fixed."""
            if code >= self.num_states:
                return [0] * (width + 1)
            # leaves in key order: the last atom varies fastest, so each
            # pass pairs its two cofactors and moves one input up
            leaves = [outputs(self._table[(code, key)]) for key in keys]
            roots = []
            for out in range(width + 1):
                level = [leaf[out] for leaf in leaves]
                for index in reversed(range(width, width + len(self.atoms))):
                    level = [mk(index, level[i], level[i + 1])
                             for i in range(0, len(level), 2)]
                roots.append(level[0])
            return roots

        def code_roots(bit: int, low_bits: int) -> list:
            """The roots once code bits below ``bit`` read ``low_bits``."""
            if bit == width:
                return row(low_bits)
            low = code_roots(bit + 1, low_bits)
            high = code_roots(bit + 1, low_bits | 1 << bit)
            return [mk(bit, lo, hi) for lo, hi in zip(low, high)]

        roots = code_roots(0, 0)
        return tuple(nodes), tuple(roots)

    def encode_step(self, g, state_bits, atom_bits) -> tuple:
        """One cycle of the checker as gates of the builder ``g`` (a
        :class:`~repro.bdd.BddManager` or :class:`~repro.sat.cnf.Tseitin`,
        see :mod:`repro.rtl.bitblast`).

        ``state_bits`` is the binary code of the current state
        (:attr:`code_width` bits, LSB first) and ``atom_bits`` holds one
        bit per atom of :attr:`atoms`.  Returns ``(fail, next_bits)``:
        the condition under which this cycle's valuation reveals a
        violation, and the code of the successor state.  The
        :attr:`step_dag` is emitted top-down, one ``g.ite`` per node
        reached; a constant input takes its one branch, so a constant
        state code encodes only its own row of the table and constant
        inputs fold to constants.
        """
        nodes, roots = self.step_dag
        inputs = [*state_bits, *atom_bits]
        memo = {0: g.FALSE, 1: g.TRUE}

        def emit(node: int):
            out = memo.get(node)
            if out is None:
                index, low, high = nodes[node - 2]
                sel = inputs[index]
                if sel == g.TRUE:
                    out = emit(high)
                elif sel == g.FALSE:
                    out = emit(low)
                else:
                    out = g.ite(sel, emit(high), emit(low))
                memo[node] = out
            return out

        fail, *next_bits = [emit(root) for root in roots]
        return fail, next_bits

    def is_accepting_sink(self, state: int) -> bool:
        """True when the property can no longer fail from ``state``."""
        return state != self.FAIL_STATE and not self.states[state]

    def has_strong_pending(self, state: int) -> bool:
        """True when end-of-trace in ``state`` is a (strong) failure."""
        if state == self.FAIL_STATE:
            return False
        return any(is_strong(ob) for ob in self.states[state])

    def run(self, trace: list[dict]) -> tuple[str, Optional[int]]:
        """Run over a finite trace.

        Returns ``("fails", i)`` with the 0-based failing cycle,
        ``("holds", None)`` when the property holds on every extension or
        ends with no strong obligation pending, or ``("pending", None)``
        when strong obligations remain.
        """
        state = 0
        for i, valuation in enumerate(trace):
            key = tuple(bool(valuation[a]) for a in self.atoms)
            state = self.transition(state, key)
            if state == self.FAIL_STATE:
                return "fails", i
        if self.has_strong_pending(state):
            return "pending", None
        return "holds", None

    def __repr__(self):
        return (
            f"CheckerAutomaton(states={self.num_states}, "
            f"atoms={self.atoms})"
        )


def build_checker(prop: Property, max_states: int = 100000) -> CheckerAutomaton:
    """Determinise formula progression into a :class:`CheckerAutomaton`.

    The construction enumerates all ``2^k`` valuations of the property's
    ``k`` atoms per state, so it is intended for the handful-of-signals
    properties typical of interface protocols (LA-1's largest property
    uses six atoms).
    """
    atoms = sorted(prop.atoms())
    if len(atoms) > 16:
        raise PslError(
            f"property reads {len(atoms)} atoms; checker construction "
            "enumerates 2^k valuations and is capped at 16"
        )
    init = initial_obligations(prop)
    states: list[frozenset] = [init]
    index: dict[frozenset, int] = {init: 0}
    table: dict = {}
    frontier = [init]
    keys = _keys(len(atoms))
    while frontier:
        current = frontier.pop()
        src = index[current]
        for key in keys:
            valuation = dict(zip(atoms, key))
            nxt = progress_set(current, valuation)
            if nxt is FAIL:
                table[(src, key)] = CheckerAutomaton.FAIL_STATE
                continue
            dst = index.get(nxt)
            if dst is None:
                dst = len(states)
                if dst >= max_states:
                    raise PslError(
                        f"checker construction exceeded {max_states} states"
                    )
                states.append(nxt)
                index[nxt] = dst
                frontier.append(nxt)
            table[(src, key)] = dst
    return CheckerAutomaton(prop, atoms, states, table)


# the Figure 2 flow at 1, 2 and 4 banks compiles 39 checkers; a serve
# process may check any bank count, so the memo is bounded
@functools.lru_cache(maxsize=256)
def compiled_checker(prop: Property) -> CheckerAutomaton:
    """:func:`build_checker`, memoised per process: the property banks,
    BDD and SAT checkers and lint passes share one (never written)."""
    return build_checker(prop)


class PropertyBank:
    """The checkers of several properties stepped as one product.

    A *label* is one bool per atom of :attr:`atoms`, the sorted union of
    the properties' atoms; each checker reads its own through an index
    projection.  A product state is one checker state per property, all
    zeros at start.  :meth:`step` is memoised on ``(states, label)``: at
    most one entry per product transition taken, dropped with the bank.
    """

    def __init__(self, props):
        self.checkers = tuple(compiled_checker(p) for p in props)
        self.atoms = tuple(sorted({a for c in self.checkers for a in c.atoms}))
        index = {atom: i for i, atom in enumerate(self.atoms)}
        self._steps = tuple((c.transition, tuple(index[a] for a in c.atoms))
                            for c in self.checkers)
        self.initial = (0,) * len(self.checkers)
        self._memo: dict = {}

    def step(self, states: tuple, label: tuple) -> tuple:
        """The product state after one cycle labelled ``label``."""
        key = (states, label)
        nxt = self._memo.get(key)
        if nxt is None:
            nxt = self._memo[key] = tuple(
                transition(state, tuple([label[i] for i in projection]))
                for (transition, projection), state in zip(self._steps, states)
            )
        return nxt
