"""One bit-level lowering, two gate builders.

``repro.rtl.bitblast`` lowers netlists for both symbolic engines and
``CheckerAutomaton.encode_step`` embeds checker automata in both.  The
CNF side is checked against the simulators by ``tests/test_sat_encode``;
these tests check the BDD side the same way (every net of every frame,
on randomized netlists and the shipped LA-1 top), and the automaton
encoding on both builders against the automaton's own table and
against the one-gate-per-(state, valuation) construction it replaced.
"""

import random
from collections import deque
from itertools import product

import pytest

from repro.bdd import BddManager
from repro.core.properties import read_mode_property, read_mode_suite
from repro.mc import PHASE_VAR, SymbolicModel
from repro.psl import build_checker, parse_property
from repro.psl.automata import CheckerAutomaton
from repro.rtl import RtlModule, RtlSimulator, elaborate
from repro.sat.cnf import Tseitin
from repro.sat.solver import Solver
from tests.test_psl_automata import PROPERTIES
from tests.test_sat_encode import _random_module


def _bit_names(flat):
    """The BDD variable names of a register's or input's bits."""
    if flat.width == 1:
        return [flat.path]
    return [f"{flat.path}[{i}]" for i in range(flat.width)]


def _bdd_differential(module, frames, seed):
    """Evaluate every net's BDD vector and the next-state functions
    under the concrete state and drawn inputs; every net of every frame
    must equal the interpreter."""
    design = elaborate(module)
    model = SymbolicModel(design)
    m = model.manager
    sim = RtlSimulator(design, backend="interp", detect_bus_conflicts=False)
    rng = random.Random(seed)
    state = {}
    for reg in design.regs:
        for i, name in enumerate(_bit_names(reg)):
            state[name] = bool((reg.init >> i) & 1)
    if model.multi_clock:
        state[PHASE_VAR] = False
    clocks = design.clocks
    for index in range(frames):
        env = dict(state)
        for inp in design.inputs:
            value = rng.getrandbits(inp.width)
            sim.set_input(inp.path, value)
            for i, name in enumerate(_bit_names(inp)):
                env[name] = bool((value >> i) & 1)
        for path in design.nets:
            got = sum(m.evaluate(bit, env) << i
                      for i, bit in enumerate(model.net_bdd(path)))
            want = sim.read(path)
            assert got == want, (
                f"frame {index} net {path}: sim={want} bdd={got}")
        state = {name: m.evaluate(model.next_functions[name], env)
                 for name in model.state_bits}
        sim.step(clocks[index % 2] if len(clocks) > 1 else clocks[0])


@pytest.mark.parametrize("seed", range(12))
def test_random_netlists_bdd_matches_interp(seed):
    rng = random.Random(1000 + seed)
    module = _random_module(rng, width=rng.choice((2, 3, 4, 5)))
    _bdd_differential(module, frames=5, seed=seed)


def test_tristate_priority_bdd_matches_interp():
    """Free enables on one bus: overlapping drivers exercise the
    priority order, none enabled the undriven 0."""
    m = RtlModule("tri")
    bus = m.wire("bus", 4)
    for k in range(3):
        m.tristate(bus, m.input(f"en{k}", 1).ref(), m.input(f"d{k}", 4).ref())
    acc = m.reg("acc", 4, clock="K", init=0)
    m.sync(acc, acc.ref() + bus.ref())
    out = m.output("q", 1)
    m.assign(out, bus.ref().eq(acc.ref()))
    _bdd_differential(m, frames=16, seed=5)


def test_la1_mc_scale_bdd_matches_interp():
    """The shipped MC-scale 1-bank top (DDR, tristates, datapath)."""
    from repro.core.rtl_model import build_la1_top_rtl
    from repro.core.rulebase import MC_SCALE_CONFIG

    module = build_la1_top_rtl(MC_SCALE_CONFIG(1), datapath=True)
    _bdd_differential(module, frames=8, seed=2004)


# ----------------------------------------------------------------------
# checker automata
# ----------------------------------------------------------------------
def _bdd_builder():
    return BddManager()


def _cnf_builder():
    return Tseitin(Solver())


def _const_bits(g, value, width):
    return [g.TRUE if (value >> i) & 1 else g.FALSE for i in range(width)]


@pytest.mark.parametrize("builder", [_bdd_builder, _cnf_builder],
                         ids=["bdd", "cnf"])
@pytest.mark.parametrize("text", PROPERTIES)
def test_encode_step_folds_to_the_transition_table(builder, text):
    checker = build_checker(parse_property(text))
    g = builder()
    width = checker.code_width
    for src in range(checker.num_states):
        for key in product((False, True), repeat=len(checker.atoms)):
            fail, nxt = checker.encode_step(
                g, _const_bits(g, src, width),
                [g.TRUE if v else g.FALSE for v in key])
            dst = checker.transition(src, key)
            if dst == CheckerAutomaton.FAIL_STATE:
                assert fail == g.TRUE, (src, key)
                continue
            assert fail == g.FALSE, (src, key)
            assert nxt == _const_bits(g, dst, width), (src, key)


def _minterm_step(checker, g, state_bits, atom_bits):
    """The reference embedding: one AND per (state, valuation), ORed
    into the fail condition or into every set bit of the next code."""
    keys = list(product((False, True), repeat=len(checker.atoms)))
    key_bits = {
        key: g.and_all([bit if value else g.not_(bit)
                        for bit, value in zip(atom_bits, key)])
        for key in keys
    }
    fail_terms = []
    next_terms = [[] for __ in state_bits]
    for src in range(checker.num_states):
        src_eq = g.and_all([bit if (src >> i) & 1 else g.not_(bit)
                            for i, bit in enumerate(state_bits)])
        for key in keys:
            cond = g.and_(src_eq, key_bits[key])
            dst = checker.transition(src, key)
            if dst == CheckerAutomaton.FAIL_STATE:
                fail_terms.append(cond)
                continue
            for i, terms in enumerate(next_terms):
                if (dst >> i) & 1:
                    terms.append(cond)
    return g.or_all(fail_terms), [g.or_all(terms) for terms in next_terms]


_EMBEDDED = (
    [pytest.param(parse_property(text), id=text) for text in PROPERTIES]
    + [pytest.param(prop, id=name) for name, prop in read_mode_suite(2)]
    # the 65-state, 4-atom conjunction Table 2 checks
    + [pytest.param(read_mode_property(0), id="read_mode[0]")]
)


@pytest.mark.parametrize("prop", _EMBEDDED)
def test_encode_step_is_the_minterm_function(prop):
    """Over free code bits and atoms, every output is the very BDD node
    of the reference construction: every code, reachable or not."""
    checker = build_checker(prop)
    m = BddManager()
    state_bits = [m.add_var(f"code{i}") for i in range(checker.code_width)]
    atom_bits = [m.add_var(atom) for atom in checker.atoms]
    fail, nxt = checker.encode_step(m, state_bits, atom_bits)
    want_fail, want_nxt = _minterm_step(checker, m, state_bits, atom_bits)
    assert fail == want_fail
    assert nxt == want_nxt


def test_read_latency_step_is_a_few_clauses_per_dag_node():
    """16 states over 2 atoms: one if-then-else (at most 4 clauses) per
    node of the reduced step DAG, not one AND per (state, valuation)."""
    name, prop = read_mode_suite(1)[0]
    assert name == "read_latency[0]"
    checker = build_checker(prop)
    nodes, __ = checker.step_dag
    solver = Solver()
    t = Tseitin(solver)
    state_bits = [t.new_var() for __ in range(checker.code_width)]
    atom_bits = [t.new_var() for __ in checker.atoms]
    before = len(solver.clauses)
    checker.encode_step(t, state_bits, atom_bits)
    assert len(solver.clauses) - before <= 4 * len(nodes)


@pytest.mark.parametrize("text", PROPERTIES)
def test_reachable_is_a_breadth_first_walk(text):
    checker = build_checker(parse_property(text))
    keys = list(product((False, True), repeat=len(checker.atoms)))
    seen = {0}
    frontier = deque([0])
    while frontier:
        src = frontier.popleft()
        for key in keys:
            dst = checker.transition(src, key)
            if dst not in seen:
                seen.add(dst)
                frontier.append(dst)
    assert checker.reachable() == seen
