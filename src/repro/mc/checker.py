"""The RuleBase-style symbolic model checker.

Given a symbolically encoded RTL design (:class:`SymbolicModel`) and a PSL
safety property, this module

1. takes the property's deterministic checker automaton from the
   per-process memo (:func:`repro.psl.automata.compiled_checker`),
2. embeds the automaton as auxiliary binary-encoded state variables whose
   next-state functions read the design's labelled signals -- exactly how
   RuleBase compiles Sugar/PSL into "satellite" state machines; the
   functions come from :meth:`CheckerAutomaton.encode_step`, which the
   SAT engine runs on every unrolled frame,
3. runs BDD-based forward reachability, flagging the property violated as
   soon as a reachable state drives the automaton into its failure state,
4. reports the metrics of the paper's Table 2 -- CPU time, memory estimate
   and BDD node counts -- and converts
   :class:`~repro.bdd.BddBudgetExceeded` into a *state explosion* verdict.

Labelled signals map PSL atoms to design nets: ``{"atom": ("path", bit)}``
or arbitrary pre-built BDDs.
"""

from __future__ import annotations

import time
from heapq import heapify, heappop, heappush
from typing import Iterable, Optional, Sequence, Union

from ..bdd import BddBudgetExceeded, NEXT_SUFFIX
from ..psl.ast import Property, PslError
from ..psl.automata import CheckerAutomaton, compiled_checker
from .transition import SymbolicModel

__all__ = [
    "SymbolicCheckResult",
    "SymbolicModelChecker",
    "quantification_schedule",
]


class SymbolicCheckResult:
    """Verdict plus Table 2 metrics.

    ``holds`` is True / False / None; None means the run did not decide:
    either it aborted with *state explosion* (BDD node budget exhausted,
    the 4-bank outcome of Table 2, ``exploded=True``) or it stopped
    short of a fixpoint at its wall-clock deadline or its image-step
    limit (``truncated=True``).  ``bdd_stats`` carries the manager's
    node/computed-table counters (:meth:`repro.bdd.BddManager.stats`)
    so degradation triggers are observable in campaign and flow
    reports; an undecided run also names the budget that ran out in
    ``bdd_stats["budget"]``: ``"transient_node_budget"``,
    ``"live_node_budget"``, ``"deadline_s"`` or ``"max_iterations"``.
    """

    def __init__(
        self,
        holds: Optional[bool],
        cpu_time: float,
        peak_nodes: int,
        reached_size: int,
        iterations: int,
        memory_mb: float,
        exploded: bool = False,
        counterexample_depth: Optional[int] = None,
        property_name: str = "property",
        truncated: bool = False,
        bdd_stats: Optional[dict] = None,
    ):
        self.holds = holds
        self.cpu_time = cpu_time
        self.peak_nodes = peak_nodes
        self.reached_size = reached_size
        self.iterations = iterations
        self.memory_mb = memory_mb
        self.exploded = exploded
        self.counterexample_depth = counterexample_depth
        self.property_name = property_name
        self.truncated = truncated
        self.bdd_stats = dict(bdd_stats or {})

    def to_dict(self) -> dict:
        """Pipe-friendly form (used by the parallel property sweep)."""
        return {
            "holds": self.holds,
            "cpu_time": self.cpu_time,
            "peak_nodes": self.peak_nodes,
            "reached_size": self.reached_size,
            "iterations": self.iterations,
            "memory_mb": self.memory_mb,
            "exploded": self.exploded,
            "counterexample_depth": self.counterexample_depth,
            "property_name": self.property_name,
            "truncated": self.truncated,
            "bdd_stats": self.bdd_stats,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SymbolicCheckResult":
        return cls(
            data.get("holds"),
            data.get("cpu_time", 0.0),
            data.get("peak_nodes", 0),
            data.get("reached_size", 0),
            data.get("iterations", 0),
            data.get("memory_mb", 0.0),
            exploded=data.get("exploded", False),
            counterexample_depth=data.get("counterexample_depth"),
            property_name=data.get("property_name", "property"),
            truncated=data.get("truncated", False),
            bdd_stats=data.get("bdd_stats"),
        )

    def __repr__(self):
        if self.exploded:
            verdict = "STATE EXPLOSION"
        elif self.truncated:
            verdict = "TRUNCATED"
        else:
            verdict = {True: "HOLDS", False: "FAILS", None: "UNKNOWN"}[self.holds]
        return (
            f"SymbolicCheckResult({self.property_name}: {verdict}, "
            f"cpu={self.cpu_time:.3f}s, bdds={self.peak_nodes}, "
            f"mem={self.memory_mb:.1f}MB, iters={self.iterations})"
        )


def _budget_exhausted(m, start: float, name: str) -> SymbolicCheckResult:
    """The state-explosion verdict for a node budget hit outside the
    reachability loop (while embedding the automaton or building the
    transition relation)."""
    stats = m.stats()
    stats["budget"] = "transient_node_budget"
    return SymbolicCheckResult(
        None, time.perf_counter() - start, m.peak_nodes, 0, 0,
        m.estimated_memory_bytes() / 1e6, exploded=True,
        property_name=name, bdd_stats=stats,
    )


def quantification_schedule(
    m, partitions: Sequence[int], quantifiable: Iterable[str],
) -> tuple[list[int], list[list[str]], list[str]]:
    """Order transition partitions for early quantification (IWLS95).

    Greedy, after Ranjan et al. (IWLS 1995): repeatedly schedule the
    remaining partition whose support holds the most ``quantifiable``
    (current-state or input) variables that no other remaining
    partition reads -- the variables its relational product can
    quantify out at once.  Ties go to the smaller support, then to the
    earlier partition.

    Returns ``(ordered, release_at, unused_anywhere)``: the partitions in
    schedule order; per scheduled partition, the variables to quantify
    out while conjoining it (each variable at the last scheduled
    partition that reads it); and the variables no partition reads,
    which the image step quantifies out of the frontier up front.
    """
    quantifiable = list(quantifiable)
    wanted = set(quantifiable)
    supports = [m.support(p) & wanted for p in partitions]
    readers: dict[str, set[int]] = {v: set() for v in quantifiable}
    for i, support in enumerate(supports):
        for v in support:
            readers[v].add(i)
    # sole[i]: the variables of partition i no other remaining one reads;
    # it only grows, so stale heap entries are skipped when popped
    sole = [sum(1 for v in s if len(readers[v]) == 1) for s in supports]
    heap = [(-sole[i], len(s), i) for i, s in enumerate(supports)]
    heapify(heap)
    order: list[int] = []
    scheduled = [False] * len(partitions)
    while heap:
        neg_sole, __, i = heappop(heap)
        if scheduled[i] or -neg_sole != sole[i]:
            continue
        scheduled[i] = True
        order.append(i)
        for v in supports[i]:
            left = readers[v]
            left.discard(i)
            if len(left) == 1:
                (j,) = left
                sole[j] += 1
                heappush(heap, (-sole[j], len(supports[j]), j))

    last_use: dict[str, int] = {}
    for position, i in enumerate(order):
        for v in supports[i]:
            last_use[v] = position
    release_at: list[list[str]] = [[] for __ in order]
    unused_anywhere: list[str] = []
    for v in quantifiable:
        if v in last_use:
            release_at[last_use[v]].append(v)
        else:
            unused_anywhere.append(v)
    return [partitions[i] for i in order], release_at, unused_anywhere


class SymbolicModelChecker:
    """Forward-reachability safety checking over a :class:`SymbolicModel`.

    Parameters
    ----------
    model:
        The symbolically encoded design.  Its manager's ``node_budget``
        (if any) caps *transient* allocation within one image step.
    live_node_budget:
        Cap on the *live* BDD size (reached set + transition partitions)
        measured after each garbage collection -- the RuleBase "memory
        exhausted" analogue.  Exceeding it yields a state-explosion
        verdict.
    gc_threshold:
        Allocation level that triggers a copying garbage collection
        between iterations.
    """

    def __init__(self, model: SymbolicModel,
                 live_node_budget: Optional[int] = None,
                 gc_threshold: int = 600000):
        self.model = model
        self.live_node_budget = live_node_budget
        self.gc_threshold = gc_threshold

    # ------------------------------------------------------------------
    def check_property(
        self,
        prop: Property,
        labels: dict[str, Union[tuple, int]],
        name: str = "property",
        max_iterations: int = 10000,
        deadline_s: Optional[float] = None,
    ) -> SymbolicCheckResult:
        """Check a PSL safety property against the design.

        ``labels`` maps every atom of the property to either a
        ``("net.path", bit_index)`` pair or a pre-built BDD over the
        model's variables.  ``deadline_s`` is a wall-clock budget: a run
        that exceeds it returns cleanly with ``truncated=True`` instead
        of spinning.  ``max_iterations`` bounds the image steps the same
        way: a run that reaches it before a fixpoint is inconclusive.
        """
        if not prop.is_safety():
            raise PslError(f"{prop!r} is not a safety property")
        model = self.model
        m = model.manager
        start = time.perf_counter()
        try:
            checker = compiled_checker(prop)
            atom_bdds = self._resolve_labels(checker, labels)
            bad = self._embed_automaton(checker, atom_bdds, name)
            return self._reachability(bad, start, name, max_iterations,
                                      deadline_s)
        except BddBudgetExceeded:
            return _budget_exhausted(m, start, name)

    def check_invariant(
        self, bad: int, name: str = "invariant", max_iterations: int = 10000,
        deadline_s: Optional[float] = None,
    ) -> SymbolicCheckResult:
        """Check that the ``bad`` BDD (over current vars/inputs) is
        unreachable."""
        start = time.perf_counter()
        try:
            return self._reachability(bad, start, name, max_iterations,
                                      deadline_s)
        except BddBudgetExceeded:
            return _budget_exhausted(self.model.manager, start, name)

    # ------------------------------------------------------------------
    def _resolve_labels(self, checker: CheckerAutomaton, labels: dict) -> dict:
        model = self.model
        atom_bdds: dict[str, int] = {}
        for atom in checker.atoms:
            if atom not in labels:
                raise PslError(f"no label mapping for atom {atom!r}")
            spec = labels[atom]
            if isinstance(spec, tuple):
                path, bit = spec
                atom_bdds[atom] = model.net_bit(path, bit)
            else:
                atom_bdds[atom] = spec
        return atom_bdds

    def _embed_automaton(
        self, checker: CheckerAutomaton, atom_bdds: dict, name: str
    ) -> int:
        """Add automaton state bits to the model as satellite state.

        Returns the *combinational* fail condition -- the BDD over current
        automaton state and labelled signals that is true exactly when
        the current cycle's valuation reveals a violation.  Using the
        condition (rather than a registered fail bit) makes the reported
        counterexample depth equal the failing cycle.
        """
        model = self.model
        m = model.manager
        bit_names = model.alloc_aux_vars(checker.code_width)
        fail, next_bits = checker.encode_step(
            m, [m.var(n) for n in bit_names],
            [atom_bdds[atom] for atom in checker.atoms],
        )
        for bname, bit_fn in zip(bit_names, next_bits):
            model.add_state_var(bname, bit_fn, init_value=False)
        return fail

    # ------------------------------------------------------------------
    def _reachability(
        self, bad: int, start: float, name: str, max_iterations: int,
        deadline_s: Optional[float] = None,
    ) -> SymbolicCheckResult:
        model = self.model
        m = model.manager
        deadline = None if deadline_s is None else start + deadline_s
        state_vars = model.state_bits
        input_vars = model.input_bits
        next_names = [v + NEXT_SUFFIX for v in state_vars]
        rename_back = dict(zip(next_names, state_vars))

        # partitioned transition relation: one conjunct per state bit, in
        # the order that lets the image step quantify out current/input
        # variables earliest; copy_roots keeps the order across GCs
        partitions, release_at, unused_anywhere = quantification_schedule(
            m,
            [m.xnor(m.var(var + NEXT_SUFFIX), model.next_functions[var])
             for var in state_vars],
            state_vars + input_vars,
        )

        reached = model.init
        frontier = model.init
        iterations = 0
        peak_live = m.num_nodes
        peak_alloc = m.num_nodes
        # computed-table counters of the managers retired by garbage
        # collection, so the reported totals cover the whole run
        retired = {"cache_hits": 0, "cache_misses": 0, "cache_clears": 0}

        def finish(holds: Optional[bool], reached_size: int,
                   budget: Optional[str] = None, **verdict
                   ) -> SymbolicCheckResult:
            nodes = max(peak_live, peak_alloc)
            stats = m.stats()
            for key, count in retired.items():
                stats[key] += count
            if budget is not None:
                stats["budget"] = budget
            return SymbolicCheckResult(
                holds, time.perf_counter() - start, nodes, reached_size,
                iterations, nodes * 88 / 1e6, property_name=name,
                bdd_stats=stats, **verdict,
            )

        if m.and_(reached, bad) != m.FALSE:
            return finish(False, m.size(reached), counterexample_depth=0)
        try:
            while frontier != m.FALSE:
                if iterations >= max_iterations:
                    # no fixpoint yet: stopping here must not read as a pass
                    return finish(None, m.size(reached), "max_iterations",
                                  truncated=True)
                if deadline is not None and time.perf_counter() > deadline:
                    return finish(None, m.size(reached), "deadline_s",
                                  truncated=True)
                iterations += 1
                # image of the frontier as a chain of relational products:
                # each partition is conjoined and the variables it releases
                # are quantified out in the same pass
                product_bdd = m.exists(unused_anywhere, frontier) \
                    if unused_anywhere else frontier
                for part, released in zip(partitions, release_at):
                    product_bdd = m.and_exists(product_bdd, part, released)
                image = m.rename(product_bdd, rename_back)
                new = m.and_(image, m.not_(reached))
                if new == m.FALSE:
                    break
                if m.and_(new, bad) != m.FALSE:
                    return finish(False, m.size(reached),
                                  counterexample_depth=iterations)
                reached = m.or_(reached, new)
                frontier = new
                peak_alloc = max(peak_alloc, m.num_nodes)
                # copying garbage collection: drop dead nodes, then judge
                # *live* size against the budget (the RuleBase memory wall)
                if m.num_nodes > self.gc_threshold:
                    fresh = m.clone_empty()
                    roots = [reached, frontier, bad] + partitions
                    copied = m.copy_roots(fresh, roots)
                    reached, frontier, bad = copied[0], copied[1], copied[2]
                    partitions = copied[3:]
                    old = m.stats()
                    for key in retired:
                        retired[key] += old[key]
                    m = fresh
                    peak_live = max(peak_live, m.num_nodes)
                    if (
                        self.live_node_budget is not None
                        and m.num_nodes > self.live_node_budget
                    ):
                        return finish(None, 0, "live_node_budget",
                                      exploded=True)
        except BddBudgetExceeded:
            return finish(None, 0, "transient_node_budget", exploded=True)
        peak_alloc = max(peak_alloc, m.num_nodes)
        reached_size = m.size(reached)
        peak_live = max(peak_live, reached_size)
        return finish(True, reached_size)
