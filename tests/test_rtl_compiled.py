"""Differential equivalence: compiled RTL backend vs the interpreter.

The tree-walking interpreter in :mod:`repro.rtl.simulator` is the
executable reference semantics; the codegen backend in
:mod:`repro.rtl.compile` must be *bit-identical* to it -- same slot-array
contents after every clock edge, same monitor firing sequence (name,
message, severity, time, edge), same errors at the same point.  This
suite drives both backends in lockstep over

* randomly generated expression netlists covering every IR operator,
* the 1/2/4-bank LA-1 tops with the OVL checker set loaded, under both
  fully random (illegal) traffic and legal host-driven traffic,
* bus-conflict and parity-violation scenarios.
"""

import random

import pytest

from repro.core import La1Config, RtlHost, build_la1_top_with_ovl
from repro.ovl import assert_even_parity
from repro.rtl import (
    AssertionFailure,
    BinOp,
    C,
    Concat,
    HdlError,
    Mux,
    Reduce,
    RtlModule,
    RtlSimulator,
    Slice,
    UnOp,
    compile_design,
    elaborate,
)


def _firing_sig(sim):
    return [
        (r.name, r.message, r.severity, r.time, r.edge) for r in sim.firings
    ]


def _pair(design, **kwargs):
    """Interpreter and compiled simulators over one shared FlatDesign."""
    return (
        RtlSimulator(design, backend="interp", **kwargs),
        RtlSimulator(design, backend="compiled", **kwargs),
    )


# ----------------------------------------------------------------------
# random expression netlists -- every operator of the IR
# ----------------------------------------------------------------------
def _coerce(expr, width):
    """Adapt ``expr`` to ``width`` by slicing or zero-extension."""
    if expr.width == width:
        return expr
    if expr.width > width:
        return Slice(expr, 0, width - 1)
    return Concat([expr, C(0, width - expr.width)])


def _rand_expr(rng, leaves, depth):
    if depth <= 0 or rng.random() < 0.25:
        if leaves and rng.random() < 0.75:
            return rng.choice(leaves).ref()
        width = rng.randrange(1, 9)
        return C(rng.getrandbits(width), width)
    op = rng.choice(
        ["and", "or", "xor", "add", "eq", "not", "mux", "slice", "bit",
         "concat", "rxor", "ror", "rand"]
    )
    a = _rand_expr(rng, leaves, depth - 1)
    if op in ("and", "or", "xor", "add", "eq"):
        return BinOp(op, a, _coerce(_rand_expr(rng, leaves, depth - 1), a.width))
    if op == "not":
        return UnOp("not", a)
    if op == "mux":
        sel = _coerce(_rand_expr(rng, leaves, depth - 1), 1)
        b = _coerce(_rand_expr(rng, leaves, depth - 1), a.width)
        return Mux(sel, a, b)
    if op == "slice":
        lo = rng.randrange(a.width)
        return Slice(a, lo, rng.randrange(lo, a.width))
    if op == "bit":
        return a.bit(rng.randrange(a.width))
    if op == "concat":
        joined = Concat([a, _rand_expr(rng, leaves, depth - 1)])
        return joined if joined.width <= 16 else Slice(joined, 0, 15)
    return Reduce({"rxor": "xor", "ror": "or", "rand": "and"}[op], a)


_INPUT_WIDTHS = (1, 3, 4, 8)


def _fuzz_module(seed, n_wires=12, n_regs=4):
    rng = random.Random(seed)
    m = RtlModule(f"fuzz{seed}")
    leaves = [m.input(f"i{k}", w) for k, w in enumerate(_INPUT_WIDTHS)]
    regs = []
    for k in range(n_regs):
        width = rng.randrange(1, 9)
        reg = m.reg(f"r{k}", width, clock=rng.choice(["K", "K#"]),
                    init=rng.getrandbits(width))
        regs.append(reg)
        leaves.append(reg)
    # wires only reference earlier leaves, so the netlist stays acyclic
    for k in range(n_wires):
        expr = _rand_expr(rng, leaves, 3)
        wire = m.wire(f"w{k}", expr.width)
        m.assign(wire, expr)
        leaves.append(wire)
    for reg in regs:
        m.sync(reg, _coerce(_rand_expr(rng, leaves, 3), reg.width))
    out = m.output("q", 8)
    m.assign(out, _coerce(_rand_expr(rng, leaves, 3), 8))
    return m


@pytest.mark.parametrize("seed", range(8))
def test_expression_fuzz_bit_identical(seed):
    design = elaborate(_fuzz_module(seed))
    si, sc = _pair(design)
    assert si._v == sc._v  # identical after reset + initial settle
    rng = random.Random(seed + 1000)
    top = f"fuzz{seed}"
    for step in range(40):
        for k, width in enumerate(_INPUT_WIDTHS):
            value = rng.getrandbits(width)
            si.set_input(f"{top}.i{k}", value)
            sc.set_input(f"{top}.i{k}", value)
        edge = rng.choice(["K", "K#"])
        si.step(edge)
        sc.step(edge)
        assert si._v == sc._v, f"seed {seed} diverged at step {step} ({edge})"


# ----------------------------------------------------------------------
# LA-1 with OVL checkers -- random (illegal) and legal traffic
# ----------------------------------------------------------------------
BANKS = [1, 2, 4]


def _la1_design(banks):
    config = La1Config(banks=banks, beat_bits=16, addr_bits=3)
    return config, elaborate(build_la1_top_with_ovl(config))


@pytest.mark.parametrize("banks", BANKS)
def test_la1_random_traffic_bit_identical(banks):
    """Fully random inputs violate the protocol, so the OVL monitors
    fire -- both backends must record the exact same firing sequence."""
    __, design = _la1_design(banks)
    si, sc = _pair(design, detect_bus_conflicts=False)
    free = [(path, flat.width) for path, flat in design.nets.items()
            if flat.kind == "input"]
    rng = random.Random(2004 + banks)
    for __ in range(60):
        for path, width in free:
            value = rng.getrandbits(width)
            si.set_input(path, value)
            sc.set_input(path, value)
        for edge in ("K", "K#"):
            si.step(edge)
            sc.step(edge)
            assert si._v == sc._v
    assert _firing_sig(si) == _firing_sig(sc)
    if banks >= 2:  # a lone bank satisfies its checkers even under noise
        assert si.firings, "random traffic should trip the checkers"


@pytest.mark.parametrize("banks", BANKS)
def test_la1_legal_traffic_equivalent(banks):
    config = La1Config(banks=banks, beat_bits=16, addr_bits=3)
    results = {}
    for backend in ("interp", "compiled"):
        sim = RtlSimulator(elaborate(build_la1_top_with_ovl(config)),
                           backend=backend)
        host = RtlHost(sim, config)
        rng = random.Random(7)
        for __ in range(25):
            bank, addr = rng.randrange(banks), rng.randrange(8)
            if rng.random() < 0.5:
                host.read(bank, addr)
            else:
                host.write(bank, addr, rng.getrandbits(32))
        host.run_cycles(160)
        assert sim.ok, sim.failures[:3]
        results[backend] = [
            (r.bank, r.addr, r.word, r.beats, r.parities,
             r.issued_at, r.completed_at)
            for r in host.results
        ]
    assert results["interp"], "some reads must complete"
    assert results["interp"] == results["compiled"]


# ----------------------------------------------------------------------
# error paths -- bus conflicts and assertion failures
# ----------------------------------------------------------------------
def test_bus_conflict_identical_error():
    m = RtlModule("bus")
    sel = m.input("sel", 2)
    out = m.output("q", 4)
    m.tristate(out, sel.ref().bit(0), C(5, 4))
    m.tristate(out, sel.ref().bit(1), C(9, 4))
    design = elaborate(m)
    messages = {}
    for backend in ("interp", "compiled"):
        sim = RtlSimulator(design, backend=backend)
        sim.set_input("bus.sel", 0b11)
        with pytest.raises(HdlError) as exc:
            sim.read("bus.q")
        messages[backend] = str(exc.value)
    assert messages["interp"] == messages["compiled"]
    assert "bus conflict on bus.q" in messages["interp"]


def test_la1_bus_conflict_identical():
    """Selecting two banks for the same read makes both drive the shared
    data bus; both backends must fault on the same edge with the same
    message."""
    __, design = _la1_design(2)
    outcomes = {}
    for backend in ("interp", "compiled"):
        sim = RtlSimulator(design, backend=backend)
        sim.set_input("la1_top.r_sel", 0b11)
        sim.set_input("la1_top.addr", 3)
        with pytest.raises(HdlError, match="multiple tristate") as exc:
            for __ in range(20):
                sim.cycle()
        outcomes[backend] = (str(exc.value), sim.edge_count)
    assert outcomes["interp"] == outcomes["compiled"]


def _parity_module():
    m = RtlModule("pm")
    data = m.input("data", 8)
    par = m.input("par", 1)
    valid = m.input("valid", 1)
    assert_even_parity(m, data.ref(), par.ref(), valid.ref(),
                       name="parity", message="parity mismatch")
    return m


def test_parity_error_firings_identical():
    design = elaborate(_parity_module())
    si, sc = _pair(design)
    rng = random.Random(11)
    for __ in range(50):
        stimulus = (rng.getrandbits(8), rng.getrandbits(1), rng.getrandbits(1))
        for sim in (si, sc):
            sim.set_input("pm.data", stimulus[0])
            sim.set_input("pm.par", stimulus[1])
            sim.set_input("pm.valid", stimulus[2])
        si.step("K")
        sc.step("K")
    sig = _firing_sig(si)
    assert sig == _firing_sig(sc)
    assert sig and not si.ok and not sc.ok
    assert all(message == "parity mismatch" for __, message, *___ in sig)


def test_stop_on_failure_identical():
    design = elaborate(_parity_module())
    outcomes = {}
    for backend in ("interp", "compiled"):
        sim = RtlSimulator(design, backend=backend, stop_on_failure=True)
        sim.set_input("pm.data", 0b1)  # odd data claimed even: violation
        sim.set_input("pm.par", 0)
        sim.set_input("pm.valid", 1)
        with pytest.raises(AssertionFailure) as exc:
            for __ in range(4):
                sim.step("K")
        outcomes[backend] = (
            str(exc.value), sim.edge_count, _firing_sig(sim)
        )
    assert outcomes["interp"] == outcomes["compiled"]


# ----------------------------------------------------------------------
# codegen artifact sanity
# ----------------------------------------------------------------------
def test_compiled_design_source_and_folding():
    m = RtlModule("m")
    folded = m.wire("folded", 4)
    m.assign(folded, C(3, 4) + C(5, 4))  # folds to the literal 8
    r = m.reg("r", 4, clock="K#", init=0)
    m.sync(r, r.ref() + folded.ref())
    q = m.output("q", 4)
    m.assign(q, r.ref())
    design = elaborate(m)
    compiled = compile_design(design)
    assert "def settle(v):" in compiled.source
    assert "def step_Ksharp(v, fired, forces):" in compiled.source  # "#" mangled
    slot = design.net("m.folded").slot
    assert f"v[{slot}] = 8" in compiled.source
