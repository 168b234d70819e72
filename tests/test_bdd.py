"""Unit and property-based tests for the ROBDD engine."""

import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import (
    BddBudgetExceeded,
    BddManager,
    interleaved_order,
    naive_order,
)


def fresh(names="abcd"):
    m = BddManager()
    vars_ = {n: m.add_var(n) for n in names}
    return m, vars_


class TestBasics:
    def test_terminals(self):
        m = BddManager()
        assert m.FALSE == 0 and m.TRUE == 1
        assert m.not_(m.TRUE) == m.FALSE

    def test_var_redeclaration(self):
        m = BddManager()
        m.add_var("a")
        with pytest.raises(ValueError):
            m.add_var("a")

    def test_canonicity(self):
        m, v = fresh()
        f1 = m.or_(m.and_(v["a"], v["b"]), m.and_(v["b"], v["a"]))
        f2 = m.and_(v["b"], v["a"])
        assert f1 == f2  # same node id

    def test_tautology_collapses(self):
        m, v = fresh()
        assert m.or_(v["a"], m.not_(v["a"])) == m.TRUE
        assert m.and_(v["a"], m.not_(v["a"])) == m.FALSE
        assert m.xnor(v["a"], v["a"]) == m.TRUE

    def test_implies(self):
        m, v = fresh()
        f = m.implies(v["a"], v["b"])
        assert m.evaluate(f, {"a": False, "b": False})
        assert not m.evaluate(f, {"a": True, "b": False})

    def test_and_or_all(self):
        m, v = fresh()
        f = m.and_all([v["a"], v["b"], v["c"]])
        assert m.sat_count(f) == 2  # d free
        g = m.or_all([])
        assert g == m.FALSE
        assert m.and_all([]) == m.TRUE


class TestQuantification:
    def test_exists(self):
        m, v = fresh()
        f = m.and_(v["a"], v["b"])
        assert m.exists(["a"], f) == v["b"]
        assert m.exists(["a", "b"], f) == m.TRUE

    def test_forall(self):
        m, v = fresh()
        f = m.or_(v["a"], v["b"])
        assert m.forall(["a"], f) == v["b"]
        assert m.forall(["a", "b"], f) == m.FALSE

    def test_exists_of_false(self):
        m, v = fresh()
        assert m.exists(["a"], m.FALSE) == m.FALSE


class TestSubstitution:
    def test_compose(self):
        m, v = fresh()
        f = m.and_(v["a"], v["b"])
        g = m.compose(f, "a", v["c"])  # c & b
        assert m.evaluate(g, {"a": False, "b": True, "c": True, "d": False})
        assert not m.evaluate(g, {"a": True, "b": True, "c": False, "d": False})

    def test_rename_monotone(self):
        m, v = fresh()
        f = m.and_(v["a"], v["c"])
        g = m.rename(f, {"a": "b", "c": "d"})
        assert g == m.and_(v["b"], v["d"])

    def test_rename_non_monotone_falls_back(self):
        m, v = fresh()
        f = m.and_(v["a"], m.not_(v["d"]))
        g = m.rename(f, {"a": "d", "d": "a"})
        assert m.evaluate(g, {"a": False, "b": False, "c": False, "d": True})

    def test_restrict(self):
        m, v = fresh()
        f = m.ite(v["a"], v["b"], v["c"])
        assert m.restrict(f, {"a": True}) == v["b"]
        assert m.restrict(f, {"a": False}) == v["c"]


class TestCounting:
    def test_sat_count_basics(self):
        m, v = fresh("ab")
        assert m.sat_count(m.TRUE) == 4
        assert m.sat_count(m.FALSE) == 0
        assert m.sat_count(v["a"]) == 2
        assert m.sat_count(m.and_(v["a"], v["b"])) == 1
        assert m.sat_count(m.xor(v["a"], v["b"])) == 2

    def test_any_sat(self):
        m, v = fresh("ab")
        assert m.any_sat(m.FALSE) is None
        assignment = m.any_sat(m.and_(v["a"], m.not_(v["b"])))
        assert assignment == {"a": True, "b": False}

    def test_support(self):
        m, v = fresh()
        f = m.and_(v["a"], m.or_(v["c"], v["d"]))
        assert m.support(f) == {"a", "c", "d"}
        assert m.support(m.TRUE) == set()

    def test_size(self):
        m, v = fresh("ab")
        assert m.size(m.TRUE) == 0
        assert m.size(v["a"]) == 1
        xor = m.xor(v["a"], v["b"])
        assert m.size(xor) == 3
        # the bare a-node differs from xor's root; no sharing here
        assert m.size_many([v["a"], xor]) == 4
        # but counting the same root twice does not double-count
        assert m.size_many([xor, xor]) == 3


class TestBudgetAndGc:
    def test_budget_raises(self):
        m = BddManager(node_budget=8)
        vars_ = [m.add_var(f"v{i}") for i in range(4)]
        with pytest.raises(BddBudgetExceeded):
            f = m.TRUE
            for i, v in enumerate(vars_):
                f = m.xor(f, v)

    def test_peak_nodes_tracked(self):
        m, v = fresh("ab")
        m.xor(v["a"], v["b"])
        assert m.peak_nodes == m.num_nodes

    def test_clone_and_copy_roots(self):
        m, v = fresh()
        f = m.ite(v["a"], m.xor(v["b"], v["c"]), v["d"])
        junk = m.and_(v["a"], v["b"])  # dead after copy
        other = m.clone_empty()
        (f2,) = m.copy_roots(other, [f])
        assert other.num_nodes <= m.num_nodes
        for assignment in (
            {"a": True, "b": True, "c": False, "d": False},
            {"a": False, "b": False, "c": False, "d": True},
        ):
            assert m.evaluate(f, assignment) == other.evaluate(f2, assignment)

    @pytest.mark.parametrize("helper", [
        lambda m, f: m.size(f),
        lambda m, f: m.size_many([f, m.not_(f)]),
        lambda m, f: m.support(f),
        lambda m, f: m.sat_count(f),
        lambda m, f: m.copy_roots(m.clone_empty(), [f]),
    ], ids=["size", "size_many", "support", "sat_count", "copy_roots"])
    def test_walks_leave_no_reference_cycle(self, helper):
        # with the cyclic collector off, only reference counting can free
        # the manager: a helper that leaves a cycle through it keeps its
        # node tables alive until the next full collection
        enabled = gc.isenabled()
        gc.disable()
        try:
            m, v = fresh()
            f = m.ite(v["a"], m.xor(v["b"], v["c"]), v["d"])
            helper(m, f)
            ref = weakref.ref(m)
            del m, v
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_copy_roots_requires_same_order(self):
        m, v = fresh("ab")
        other = BddManager()
        other.add_var("b")
        other.add_var("a")
        with pytest.raises(ValueError):
            m.copy_roots(other, [v["a"]])

    def test_memory_estimate_positive(self):
        m, v = fresh("ab")
        assert m.estimated_memory_bytes() > 0


class TestOrderings:
    def test_interleaved(self):
        order = interleaved_order(["x", "y"], ["i"])
        assert order == ["i", "x", "x'", "y", "y'"]

    def test_naive(self):
        order = naive_order(["x", "y"], ["i"])
        assert order == ["i", "x", "y", "x'", "y'"]


# ----------------------------------------------------------------------
# property-based: BDD semantics equal truth-table semantics
# ----------------------------------------------------------------------
_expr = st.deferred(
    lambda: st.one_of(
        st.sampled_from(["a", "b", "c"]),
        st.booleans(),
        st.tuples(st.just("not"), _expr),
        st.tuples(st.sampled_from(["and", "or", "xor"]), _expr, _expr),
    )
)


def _build(m, vars_, expr):
    if isinstance(expr, bool):
        return m.TRUE if expr else m.FALSE
    if isinstance(expr, str):
        return vars_[expr]
    if expr[0] == "not":
        return m.not_(_build(m, vars_, expr[1]))
    op, lhs, rhs = expr
    f = _build(m, vars_, lhs)
    g = _build(m, vars_, rhs)
    return {"and": m.and_, "or": m.or_, "xor": m.xor}[op](f, g)


def _truth(expr, env):
    if isinstance(expr, bool):
        return expr
    if isinstance(expr, str):
        return env[expr]
    if expr[0] == "not":
        return not _truth(expr[1], env)
    op, lhs, rhs = expr
    a, b = _truth(lhs, env), _truth(rhs, env)
    return {"and": a and b, "or": a or b, "xor": a != b}[op]


@settings(max_examples=200)
@given(_expr)
def test_bdd_matches_truth_table(expr):
    m, vars_ = fresh("abc")
    f = _build(m, vars_, expr)
    count = 0
    for bits in range(8):
        env = {"a": bool(bits & 1), "b": bool(bits & 2), "c": bool(bits & 4)}
        expected = _truth(expr, env)
        assert m.evaluate(f, env) == expected
        count += expected
    assert m.sat_count(f) == count


@settings(max_examples=100)
@given(_expr, st.sampled_from(["a", "b", "c"]))
def test_quantification_matches_cofactors(expr, name):
    m, vars_ = fresh("abc")
    f = _build(m, vars_, expr)
    lo = m.restrict(f, {name: False})
    hi = m.restrict(f, {name: True})
    assert m.exists([name], f) == m.or_(lo, hi)
    assert m.forall([name], f) == m.and_(lo, hi)


class TestComputedTableAccounting:
    def test_hit_and_miss_counters(self):
        m, v = fresh()
        f = m.and_(v["a"], v["b"])
        stats = m.stats()
        assert stats["cache_misses"] > 0
        before_hits = stats["cache_hits"]
        assert m.and_(v["a"], v["b"]) == f  # same computed-table key
        assert m.stats()["cache_hits"] > before_hits

    def test_cache_limit_clears_on_overflow(self):
        m = BddManager(cache_limit=4)
        v = {n: m.add_var(n) for n in "abcdef"}
        f = m.or_all([m.and_(v[x], v[y])
                      for x in "abc" for y in "def"])
        assert f not in (m.FALSE, m.TRUE)
        stats = m.stats()
        assert stats["cache_clears"] >= 1
        # the table is bounded: it can never grow past the cap + 1 insert
        assert stats["cache_entries"] <= 4

    def test_unbounded_cache_never_clears(self):
        m = BddManager(cache_limit=None)
        v = {n: m.add_var(n) for n in "abcdef"}
        m.or_all([m.and_(v[x], v[y]) for x in "abc" for y in "def"])
        stats = m.stats()
        assert stats["cache_clears"] == 0
        assert stats["cache_entries"] > 0

    def test_clone_empty_preserves_cache_limit(self):
        m = BddManager(node_budget=500, cache_limit=7)
        m.add_var("a")
        clone = m.clone_empty()
        assert clone.cache_limit == 7
        assert clone.node_budget == 500
        assert clone.stats()["cache_hits"] == 0


# ----------------------------------------------------------------------
# the two-operand applies and the fused relational product
# ----------------------------------------------------------------------
def _random_bdd(m, names, rng):
    """A random function over ``names``, built from a truth table with
    ``ite`` only (so it does not depend on the applies under test)."""
    density = rng.random()
    table = [rng.random() < density for __ in range(1 << len(names))]

    def build(i, row):
        if i == len(names):
            return m.TRUE if table[row] else m.FALSE
        low = build(i + 1, row)
        high = build(i + 1, row | (1 << i))
        return m.ite(m.var(names[i]), high, low)

    return build(0, 0)


@pytest.mark.parametrize("seed", range(24))
def test_applies_and_relational_product_match_reference(seed):
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(rng.randint(1, 8))]
    m = BddManager()
    for name in names:
        m.add_var(name)
    for __ in range(4):
        f = _random_bdd(m, names, rng)
        g = _random_bdd(m, names, rng)
        quantified = [n for n in names if rng.random() < 0.5]
        assert m.and_(f, g) == m.ite(f, g, m.FALSE)
        assert m.or_(f, g) == m.ite(f, m.TRUE, g)
        assert m.and_exists(f, g, quantified) == m.exists(
            quantified, m.and_(f, g))


class TestTwoOperandApply:
    def test_operand_order_shares_one_cache_entry(self):
        m, v = fresh()
        f = m.xor(v["a"], v["c"])
        g = m.or_(v["b"], v["d"])
        for op in (m.and_, m.or_):
            first = op(f, g)
            misses = m.stats()["cache_misses"]
            assert op(g, f) == first
            assert m.stats()["cache_misses"] == misses


class TestRelationalProduct:
    def test_no_quantified_names_is_conjunction(self):
        m, v = fresh()
        assert m.and_exists(v["a"], v["b"], []) == m.and_(v["a"], v["b"])

    def test_never_builds_the_conjunction(self):
        # quantifying every variable asks only "is f & g satisfiable":
        # the fused product answers without allocating a single node,
        # where and_ followed by exists would build f & g first
        m, v = fresh()
        f = m.xor(v["a"], v["c"])
        g = m.xor(v["b"], v["d"])
        before = m.num_nodes
        assert m.and_exists(f, g, "abcd") == m.TRUE
        assert m.num_nodes == before

    def test_true_low_branch_skips_the_high_branch(self):
        # with a quantified, both cofactors at a=0 are TRUE, so the a=1
        # branch (the conjunction of two xors) is never visited
        m, v = fresh()
        f = m.implies(v["a"], m.xor(v["b"], v["c"]))
        g = m.implies(v["a"], m.xor(v["c"], v["d"]))
        misses = m.stats()["cache_misses"]
        assert m.and_exists(f, g, ["a"]) == m.TRUE
        assert m.stats()["cache_misses"] == misses + 1


@pytest.mark.parametrize(
    "banks,datapath,iterations,reached_size,peak_nodes",
    [
        pytest.param(1, False, 10, 99, 5_184, id="1-99"),
        pytest.param(2, False, 10, 128, 10_970, id="2-128"),
        pytest.param(3, False, 10, 157, 16_675, id="3-157"),
        pytest.param(4, False, 10, 186, 23_453, id="4-186"),
        # Table 2's 1-bank full-datapath point (about 0.5 s)
        pytest.param(1, True, 21, 919, 161_114, id="full-1-919"),
    ],
)
def test_image_step_keeps_table2_control_results(
        banks, datapath, iterations, reached_size, peak_nodes):
    from repro.core.rulebase import check_read_mode_rtl

    result = check_read_mode_rtl(banks, datapath=datapath, coi=False)
    assert result.holds is True
    assert result.counterexample_depth is None
    assert result.iterations == iterations
    assert result.reached_size == reached_size
    assert result.peak_nodes == peak_nodes
