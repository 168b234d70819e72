"""A reduced ordered binary decision diagram (ROBDD) engine.

IBM's RuleBase -- the model checker the paper compares against at RTL --
is BDD-based; its published metrics (Table 2) are CPU time, memory and the
*number of BDDs*.  This engine provides the same machinery and the same
accounting:

* a unique table guaranteeing canonicity (equal functions are the same
  node id), so equivalence checks are pointer comparisons;
* ``ite`` plus dedicated two-operand ``and_``/``or_`` applies sharing a
  computed-table cache -- bounded by ``cache_limit`` (clear-on-overflow)
  with hit/miss/clear counters surfaced through :meth:`BddManager.stats`;
* existential/universal quantification, the fused relational product
  :meth:`BddManager.and_exists` (the image-step kernel), variable
  substitution (for next-state renaming in image computation),
  restriction and satisfying-assignment extraction;
* a configurable **node budget**: exceeding it raises
  :class:`BddBudgetExceeded`, which the symbolic model checker reports as
  *state explosion* -- the genuine resource exhaustion behind Table 2's
  4-bank entry.

Nodes are integers: ``0``/``1`` are the terminals; every other node is an
index into the manager's node array storing ``(level, low, high)``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

__all__ = ["BddManager", "BddBudgetExceeded"]


class BddBudgetExceeded(Exception):
    """Raised when the unique table outgrows the configured node budget."""

    def __init__(self, budget: int):
        super().__init__(f"BDD node budget of {budget} nodes exceeded")
        self.budget = budget


class BddManager:
    """Owns the unique table, the computed table and the variable order."""

    FALSE = 0
    TRUE = 1

    #: default computed-table entry cap; crossing it drops the table
    DEFAULT_CACHE_LIMIT = 1_000_000

    def __init__(self, node_budget: Optional[int] = None,
                 cache_limit: Optional[int] = DEFAULT_CACHE_LIMIT):
        # nodes[i] = (level, low, high); entries 0/1 are dummy terminals
        self._level: list[int] = [-1, -1]
        self._low: list[int] = [0, 0]
        self._high: list[int] = [0, 0]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._cache: dict[tuple, int] = {}
        self._vars: list[str] = []
        self._var_index: dict[str, int] = {}
        self.node_budget = node_budget
        self.cache_limit = cache_limit
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_clears = 0

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------
    def add_var(self, name: str) -> int:
        """Declare variable ``name`` at the next (deepest) level; returns
        the BDD node for the variable itself."""
        if name in self._var_index:
            raise ValueError(f"variable {name} already declared")
        level = len(self._vars)
        self._vars.append(name)
        self._var_index[name] = level
        return self._mk(level, self.FALSE, self.TRUE)

    def var(self, name: str) -> int:
        """The BDD of an already declared variable."""
        return self._mk(self._var_index[name], self.FALSE, self.TRUE)

    def var_names(self) -> list[str]:
        """Variables in order (level 0 first)."""
        return list(self._vars)

    def level_of(self, name: str) -> int:
        """Ordering level of a variable."""
        return self._var_index[name]

    @property
    def num_nodes(self) -> int:
        """Total nodes ever allocated (including both terminals)."""
        return len(self._level)

    #: nodes are never freed in place (collection copies the live roots
    #: into a fresh manager), so the peak is the allocation count
    peak_nodes = num_nodes

    # ------------------------------------------------------------------
    # core construction
    # ------------------------------------------------------------------
    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is not None:
            return node
        node = len(self._level)
        if self.node_budget is not None and node > self.node_budget:
            raise BddBudgetExceeded(self.node_budget)
        self._level.append(level)
        self._low.append(low)
        self._high.append(high)
        self._unique[key] = node
        return node

    def _cache_put(self, key: tuple, result: int) -> None:
        """Insert into the computed table, clearing it when it outgrows
        ``cache_limit`` (a plain clear: the table is a pure cache, so
        dropping it costs recomputation, never correctness)."""
        cache = self._cache
        if self.cache_limit is not None and len(cache) >= self.cache_limit:
            cache.clear()
            self.cache_clears += 1
        cache[key] = result

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f ? g : h`` -- the universal BDD operation."""
        if f == self.TRUE:
            return g
        if f == self.FALSE:
            return h
        if g == h:
            return g
        if g == self.TRUE and h == self.FALSE:
            return f
        key = ("ite", f, g, h)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        level = min(
            lv
            for lv in (self._level[f], self._level[g], self._level[h])
            if lv >= 0
        )
        f0, f1 = self._cofactors(f, level)
        g0, g1 = self._cofactors(g, level)
        h0, h1 = self._cofactors(h, level)
        low = self.ite(f0, g0, h0)
        high = self.ite(f1, g1, h1)
        result = self._mk(level, low, high)
        self._cache_put(key, result)
        return result

    def _cofactors(self, node: int, level: int) -> tuple[int, int]:
        if node <= 1 or self._level[node] != level:
            return node, node
        return self._low[node], self._high[node]

    def _split(self, f: int, g: int) -> tuple[int, int, int, int, int]:
        """Top level of two decision nodes and both nodes' cofactors there."""
        lf = self._level[f]
        lg = self._level[g]
        if lf == lg:
            return lf, self._low[f], self._high[f], self._low[g], self._high[g]
        if lf < lg:
            return lf, self._low[f], self._high[f], g, g
        return lg, f, f, self._low[g], self._high[g]

    # ------------------------------------------------------------------
    # boolean operations
    # ------------------------------------------------------------------
    def not_(self, f: int) -> int:
        """Negation."""
        return self.ite(f, self.FALSE, self.TRUE)

    def and_(self, f: int, g: int) -> int:
        """Conjunction: a two-operand apply, cached under the ordered pair
        so ``and_(f, g)`` and ``and_(g, f)`` share one entry."""
        if f > g:
            f, g = g, f
        # terminals sort first: FALSE annihilates, TRUE is the identity
        if f == self.FALSE or f == g:
            return f
        if f == self.TRUE:
            return g
        key = ("and", f, g)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        level, f0, f1, g0, g1 = self._split(f, g)
        result = self._mk(level, self.and_(f0, g0), self.and_(f1, g1))
        self._cache_put(key, result)
        return result

    def or_(self, f: int, g: int) -> int:
        """Disjunction (the dual of :meth:`and_`)."""
        if f > g:
            f, g = g, f
        if f == self.TRUE or f == g:
            return f
        if f == self.FALSE:
            return g
        key = ("or", f, g)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        level, f0, f1, g0, g1 = self._split(f, g)
        result = self._mk(level, self.or_(f0, g0), self.or_(f1, g1))
        self._cache_put(key, result)
        return result

    def xor(self, f: int, g: int) -> int:
        """Exclusive or."""
        return self.ite(f, self.not_(g), g)

    def xnor(self, f: int, g: int) -> int:
        """Equivalence (biconditional)."""
        return self.ite(f, g, self.not_(g))

    def implies(self, f: int, g: int) -> int:
        """Implication ``f -> g``."""
        return self.ite(f, g, self.TRUE)

    def and_all(self, fs: Iterable[int]) -> int:
        """Conjunction of many terms."""
        acc = self.TRUE
        for f in fs:
            acc = self.and_(acc, f)
            if acc == self.FALSE:
                return acc
        return acc

    def or_all(self, fs: Iterable[int]) -> int:
        """Disjunction of many terms."""
        acc = self.FALSE
        for f in fs:
            acc = self.or_(acc, f)
            if acc == self.TRUE:
                return acc
        return acc

    # ------------------------------------------------------------------
    # quantification and substitution
    # ------------------------------------------------------------------
    def exists(self, names: Sequence[str], f: int) -> int:
        """Existential quantification over ``names``."""
        levels = frozenset(self._var_index[n] for n in names)
        return self._quant(f, levels, conj=False)

    def forall(self, names: Sequence[str], f: int) -> int:
        """Universal quantification over ``names``."""
        levels = frozenset(self._var_index[n] for n in names)
        return self._quant(f, levels, conj=True)

    def _quant(self, f: int, levels: frozenset, conj: bool) -> int:
        if f <= 1:
            return f
        key = ("forall" if conj else "exists", f, levels)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        level = self._level[f]
        low = self._quant(self._low[f], levels, conj)
        high = self._quant(self._high[f], levels, conj)
        if level in levels:
            result = self.and_(low, high) if conj else self.or_(low, high)
        else:
            result = self._mk(level, low, high)
        self._cache_put(key, result)
        return result

    def and_exists(self, f: int, g: int, names: Sequence[str]) -> int:
        """Relational product ``exists names . f & g`` in one pass.

        Equal to ``exists(names, and_(f, g))`` but never builds the full
        conjunction: each quantified variable is eliminated as the
        recursion passes its level (Burch, Clarke and Long's AndExists).
        This is the image-step kernel of symbolic reachability.
        """
        if not names:
            return self.and_(f, g)
        levels = frozenset(self._var_index[n] for n in names)
        return self._and_exists(f, g, levels, max(levels))

    def _and_exists(self, f: int, g: int, levels: frozenset,
                    deepest: int) -> int:
        if f > g:
            f, g = g, f
        if f == self.FALSE:
            return f
        if f == self.TRUE or f == g:
            return self._quant(g, levels, conj=False)
        if self._level[f] > deepest and self._level[g] > deepest:
            # nothing left to quantify below here
            return self.and_(f, g)
        key = ("and_exists", f, g, levels)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        level, f0, f1, g0, g1 = self._split(f, g)
        low = self._and_exists(f0, g0, levels, deepest)
        if level not in levels:
            high = self._and_exists(f1, g1, levels, deepest)
            result = self._mk(level, low, high)
        elif low == self.TRUE:
            # the quantified variable's low branch already covers everything
            result = low
        else:
            result = self.or_(low, self._and_exists(f1, g1, levels, deepest))
        self._cache_put(key, result)
        return result

    def rename(self, f: int, mapping: dict[str, str]) -> int:
        """Substitute variables for variables (e.g. next -> current).

        The mapping must be level-monotone (the standard case when current
        and next variables are interleaved); a compose-based fallback
        handles arbitrary mappings.
        """
        pairs = sorted(
            ((self._var_index[a], self._var_index[b]) for a, b in mapping.items())
        )
        monotone = all(
            pairs[i][1] < pairs[i + 1][1] for i in range(len(pairs) - 1)
        )
        if monotone:
            table = dict(pairs)
            return self._rename_fast(f, table, cache_key=tuple(pairs))
        # general case: simultaneous substitution rebuilt bottom-up with
        # ite (sequential compose would be wrong for permutations)
        return self._rename_general(f, dict(mapping), tuple(pairs))

    def _rename_general(self, f: int, mapping: dict[str, str], cache_key) -> int:
        if f <= 1:
            return f
        key = ("renameg", f, cache_key)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        low = self._rename_general(self._low[f], mapping, cache_key)
        high = self._rename_general(self._high[f], mapping, cache_key)
        name = self._vars[self._level[f]]
        target = mapping.get(name, name)
        result = self.ite(self.var(target), high, low)
        self._cache_put(key, result)
        return result

    def _rename_fast(self, f: int, table: dict[int, int], cache_key) -> int:
        if f <= 1:
            return f
        key = ("rename", f, cache_key)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        level = self._level[f]
        low = self._rename_fast(self._low[f], table, cache_key)
        high = self._rename_fast(self._high[f], table, cache_key)
        result = self._mk(table.get(level, level), low, high)
        self._cache_put(key, result)
        return result

    def compose(self, f: int, name: str, g: int) -> int:
        """Substitute function ``g`` for variable ``name`` in ``f``."""
        level = self._var_index[name]
        return self._compose(f, level, g)

    def _compose(self, f: int, level: int, g: int) -> int:
        if f <= 1 or self._level[f] > level:
            return f
        key = ("compose", f, level, g)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        if self._level[f] == level:
            result = self.ite(g, self._high[f], self._low[f])
        else:
            low = self._compose(self._low[f], level, g)
            high = self._compose(self._high[f], level, g)
            var_bdd = self._mk(self._level[f], self.FALSE, self.TRUE)
            result = self.ite(var_bdd, high, low)
        self._cache_put(key, result)
        return result

    def restrict(self, f: int, assignment: dict[str, bool]) -> int:
        """Cofactor ``f`` under a partial variable assignment."""
        result = f
        for name, value in assignment.items():
            level = self._var_index[name]
            result = self._restrict_one(result, level, value)
        return result

    def _restrict_one(self, f: int, level: int, value: bool) -> int:
        if f <= 1 or self._level[f] > level:
            return f
        key = ("restrict", f, level, value)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        if self._level[f] == level:
            result = self._high[f] if value else self._low[f]
        else:
            low = self._restrict_one(self._low[f], level, value)
            high = self._restrict_one(self._high[f], level, value)
            result = self._mk(self._level[f], low, high)
        self._cache_put(key, result)
        return result

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    # The walks below use explicit stacks, not recursive nested functions:
    # a nested function that calls itself sits in a reference cycle with
    # its closure, which would keep this manager's tables alive until the
    # next cyclic collection.
    def _nodes(self, roots: Iterable[int]) -> set[int]:
        """The decision nodes reachable from ``roots``."""
        seen: set[int] = set()
        stack = [r for r in roots if r > 1]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            for child in (self._low[node], self._high[node]):
                if child > 1 and child not in seen:
                    stack.append(child)
        return seen

    def size(self, f: int) -> int:
        """Number of distinct decision nodes in the BDD rooted at ``f``."""
        return len(self._nodes((f,)))

    def size_many(self, roots: Iterable[int]) -> int:
        """Distinct decision nodes across several roots (shared counted once)."""
        return len(self._nodes(roots))

    def evaluate(self, f: int, assignment: dict[str, bool]) -> bool:
        """Evaluate ``f`` under a total assignment of its support."""
        node = f
        while node > 1:
            name = self._vars[self._level[node]]
            node = self._high[node] if assignment[name] else self._low[node]
        return node == self.TRUE

    def any_sat(self, f: int) -> Optional[dict[str, bool]]:
        """One satisfying assignment (partial: only decided variables), or
        None when ``f`` is unsatisfiable."""
        if f == self.FALSE:
            return None
        assignment: dict[str, bool] = {}
        node = f
        while node > 1:
            name = self._vars[self._level[node]]
            if self._low[node] != self.FALSE:
                assignment[name] = False
                node = self._low[node]
            else:
                assignment[name] = True
                node = self._high[node]
        return assignment

    def sat_count(self, f: int, num_vars: Optional[int] = None) -> int:
        """Number of satisfying assignments over ``num_vars`` variables
        (default: all declared variables)."""
        total_vars = num_vars if num_vars is not None else len(self._vars)
        level_of = self._level
        #: node -> count over the variables strictly below its level
        counts: dict[int, int] = {}

        def count_from(node: int, from_level: int) -> int:
            if node == self.FALSE:
                return 0
            if node == self.TRUE:
                return 1 << (total_vars - from_level)
            return counts[node] << (level_of[node] - from_level)

        # deepest level first, so both children are counted before a node
        for node in sorted(self._nodes((f,)), key=level_of.__getitem__,
                           reverse=True):
            below = level_of[node] + 1
            counts[node] = (count_from(self._low[node], below)
                            + count_from(self._high[node], below))
        return count_from(f, 0)

    def support(self, f: int) -> set[str]:
        """The set of variables ``f`` actually depends on."""
        return {self._vars[self._level[n]] for n in self._nodes((f,))}

    def clear_cache(self) -> None:
        """Drop the computed table (useful between unrelated problems)."""
        self._cache.clear()

    def stats(self) -> dict[str, int]:
        """Size and computed-table accounting: node counts plus cache
        hit/miss/clear counters (the RuleBase-style cost telemetry)."""
        return {
            "nodes": self.num_nodes,
            "peak_nodes": self.peak_nodes,
            "vars": len(self._vars),
            "cache_entries": len(self._cache),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_clears": self.cache_clears,
        }

    # ------------------------------------------------------------------
    # garbage collection by copying
    # ------------------------------------------------------------------
    def clone_empty(self) -> "BddManager":
        """A fresh manager with the same variable order and budget."""
        other = BddManager(node_budget=self.node_budget,
                           cache_limit=self.cache_limit)
        for name in self._vars:
            other.add_var(name)
        return other

    def copy_roots(self, other: "BddManager", roots: Sequence[int]) -> list[int]:
        """Copy the BDDs rooted at ``roots`` into ``other`` (which must
        share this manager's variable order); returns the new roots.

        This is the collector: copying the live roots into a fresh
        manager drops every dead node, so long reachability runs measure
        *live* BDD size against the node budget rather than cumulative
        allocation.
        """
        if other.var_names() != self.var_names():
            raise ValueError("copy_roots requires an identical variable order")
        mapping: dict[int, int] = {self.FALSE: other.FALSE,
                                   self.TRUE: other.TRUE}
        for root in roots:
            # post-order, low before high: the recursive copy's node order
            stack = [root]
            while stack:
                node = stack[-1]
                if node in mapping:
                    stack.pop()
                    continue
                low = mapping.get(self._low[node])
                if low is None:
                    stack.append(self._low[node])
                    continue
                high = mapping.get(self._high[node])
                if high is None:
                    stack.append(self._high[node])
                    continue
                mapping[node] = other._mk(self._level[node], low, high)
                stack.pop()
        return [mapping[r] for r in roots]

    def estimated_memory_bytes(self) -> int:
        """A memory estimate: 24 bytes per node plus table overheads,
        mirroring how RuleBase-style tools report megabytes."""
        per_node = 24
        table_overhead = 64
        return self.num_nodes * (per_node + table_overhead)
