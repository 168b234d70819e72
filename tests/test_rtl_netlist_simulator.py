"""Unit tests for elaboration and the interpreted RTL simulator."""

import pytest

from repro.rtl import (
    C,
    HdlError,
    Mux,
    RtlModule,
    RtlSimulator,
    elaborate,
    emit_verilog,
)


def _counter_module(width=4, clock="K"):
    m = RtlModule("cnt")
    en = m.input("en", 1)
    reg = m.reg("value", width, clock=clock, init=0)
    m.sync(reg, Mux(en.ref(), reg.ref() + C(1, width), reg.ref()))
    out = m.output("q", width)
    m.assign(out, reg.ref())
    return m


class TestElaboration:
    def test_flatten_counts(self):
        design = elaborate(_counter_module())
        stats = design.stats()
        assert stats["regs"] == 1
        assert stats["inputs"] == 1
        assert stats["state_bits"] == 4

    def test_instance_cloning(self):
        child = _counter_module()
        top = RtlModule("top")
        q0 = top.wire("q0", 4)
        q1 = top.wire("q1", 4)
        top.instantiate(child, "c0", {"en": C(1), "q": q0})
        top.instantiate(child, "c1", {"en": C(0), "q": q1})
        design = elaborate(top)
        # the same module object instantiated twice yields two reg copies
        assert design.net("top.c0.value") is not design.net("top.c1.value")
        assert design.stats()["regs"] == 2

    def test_undriven_wire_detected(self):
        m = RtlModule("m")
        m.wire("dangling", 1)
        out = m.output("q", 1)
        m.assign(out, C(0))
        with pytest.raises(HdlError, match="never driven"):
            elaborate(m)

    def test_missing_reg_next_detected(self):
        m = RtlModule("m")
        m.reg("r", 1)
        with pytest.raises(HdlError, match="next-state"):
            elaborate(m)

    def test_combinational_cycle_detected(self):
        m = RtlModule("m")
        a = m.wire("a", 1)
        b = m.wire("b", 1)
        m.assign(a, b.ref())
        m.assign(b, a.ref())
        with pytest.raises(HdlError, match="cycle"):
            elaborate(m)

    def test_clock_domains_recorded(self):
        m = RtlModule("m")
        r1 = m.reg("r1", 1, clock="K")
        r2 = m.reg("r2", 1, clock="K#")
        m.sync(r1, ~r1.ref())
        m.sync(r2, ~r2.ref())
        design = elaborate(m)
        assert design.clocks == ["K", "K#"]


class TestSimulator:
    def test_counter_counts(self):
        sim = RtlSimulator(_counter_module())
        sim.set_input("cnt.en", 1)
        sim.cycle(5)
        assert sim.read("cnt.q") == 5

    def test_enable_gates_counting(self):
        sim = RtlSimulator(_counter_module())
        sim.set_input("cnt.en", 1)
        sim.cycle(3)
        sim.set_input("cnt.en", 0)
        sim.cycle(3)
        assert sim.read("cnt.value") == 3

    def test_input_validation(self):
        sim = RtlSimulator(_counter_module())
        with pytest.raises(HdlError):
            sim.set_input("cnt.en", 2)
        with pytest.raises(HdlError):
            sim.set_input("cnt.q", 1)  # not a free input

    def test_reset_restores_init(self):
        sim = RtlSimulator(_counter_module())
        sim.set_input("cnt.en", 1)
        sim.cycle(4)
        sim.reset()
        assert sim.read("cnt.value") == 0
        assert sim.edge_count == 0

    def test_ddr_regs_update_on_own_edge(self):
        m = RtlModule("ddr")
        rk = m.reg("rk", 1, clock="K", init=0)
        rks = m.reg("rks", 1, clock="K#", init=0)
        m.sync(rk, ~rk.ref())
        m.sync(rks, ~rks.ref())
        q = m.output("q", 1)
        m.assign(q, rk.ref() ^ rks.ref())
        sim = RtlSimulator(m)
        sim.step("K")
        assert (sim.read("ddr.rk"), sim.read("ddr.rks")) == (1, 0)
        sim.step("K#")
        assert (sim.read("ddr.rk"), sim.read("ddr.rks")) == (1, 1)

    def test_simultaneous_commit(self):
        # swap two registers through each other: requires pre-edge values
        m = RtlModule("swap")
        a = m.reg("a", 4, init=1)
        b = m.reg("b", 4, init=2)
        m.sync(a, b.ref())
        m.sync(b, a.ref())
        q = m.output("q", 4)
        m.assign(q, a.ref())
        sim = RtlSimulator(m)
        sim.step("K")
        assert sim.read("swap.a") == 2
        assert sim.read("swap.b") == 1

    def test_tristate_priority_and_conflict(self):
        m = RtlModule("bus")
        sel = m.input("sel", 2)
        out = m.output("q", 4)
        m.tristate(out, sel.ref().bit(0), C(5, 4))
        m.tristate(out, sel.ref().bit(1), C(9, 4))
        sim = RtlSimulator(m)
        sim.set_input("bus.sel", 0b01)
        sim.step("K") if sim.design.regs else None
        sim._settle()
        assert sim.read("bus.q") == 5
        sim.set_input("bus.sel", 0b10)
        sim._settle()
        assert sim.read("bus.q") == 9
        sim.set_input("bus.sel", 0b00)
        sim._settle()
        assert sim.read("bus.q") == 0  # undriven reads 0
        sim.set_input("bus.sel", 0b11)
        with pytest.raises(HdlError, match="conflict"):
            sim._settle()

    def test_bus_conflict_detection_can_be_disabled(self):
        m = RtlModule("bus")
        sel = m.input("sel", 2)
        out = m.output("q", 4)
        m.tristate(out, sel.ref().bit(0), C(5, 4))
        m.tristate(out, sel.ref().bit(1), C(9, 4))
        sim = RtlSimulator(m, detect_bus_conflicts=False)
        sim.set_input("bus.sel", 0b11)
        sim._settle()
        assert sim.read("bus.q") in (5, 9)

    def test_edge_hooks(self):
        sim = RtlSimulator(_counter_module())
        edges = []
        sim.add_edge_hook(lambda edge, s: edges.append(edge))
        sim.cycle(1)
        assert edges == ["K", "K#"]


@pytest.mark.parametrize("backend", ["interp", "compiled"])
class TestBackendBehaviors:
    """Behaviors that must hold on both simulator backends."""

    def test_counter_counts(self, backend):
        sim = RtlSimulator(_counter_module(), backend=backend)
        sim.set_input("cnt.en", 1)
        sim.cycle(5)
        assert sim.read("cnt.q") == 5

    def test_read_settles_lazily_after_set_input(self, backend):
        # a comb net read right after set_input must see the new inputs
        # without an intervening step()
        m = RtlModule("m")
        a = m.input("a", 4)
        q = m.output("q", 4)
        m.assign(q, ~a.ref())
        sim = RtlSimulator(m, backend=backend)
        sim.set_input("m.a", 0b1010)
        assert sim.read("m.q") == 0b0101
        sim.set_input("m.a", 0b1111)
        assert sim.read("m.q") == 0b0000

    def test_step_on_edge_without_regs(self, backend):
        sim = RtlSimulator(_counter_module(clock="K"), backend=backend)
        sim.set_input("cnt.en", 1)
        sim.step("K#")  # no regs in this domain: state is unchanged
        assert sim.read("cnt.value") == 0
        assert sim.edge_count == 1

    def test_deep_comb_chain(self, backend):
        # 5000 chained inverters: elaboration (iterative toposort) and
        # both backends must handle it without hitting the Python
        # recursion limit
        m = RtlModule("deep")
        prev = m.input("a", 1)
        for k in range(5000):
            wire = m.wire(f"w{k}", 1)
            m.assign(wire, ~prev.ref())
            prev = wire
        q = m.output("q", 1)
        m.assign(q, prev.ref())
        sim = RtlSimulator(m, backend=backend)
        sim.set_input("deep.a", 1)
        assert sim.read("deep.q") == 1  # 5000 inversions: parity even
        sim.set_input("deep.a", 0)
        assert sim.read("deep.q") == 0


@pytest.mark.parametrize("backend", ["interp", "compiled", "bitpar"])
class TestValuesView:
    """``sim.values[net]`` reads like ``sim.read`` on every backend."""

    def test_view_settles_pending_inputs(self, backend):
        m = RtlModule("m")
        a = m.input("a", 4)
        q = m.output("q", 4)
        m.assign(q, ~a.ref())
        sim = RtlSimulator(m, backend=backend)
        net = sim.design.net("m.q")
        assert sim.values[net] == 0b1111
        sim.set_input("m.a", 0b1010)
        assert sim.values[net] == sim.read("m.q") == 0b0101

    def test_view_is_read_only(self, backend):
        # a write used to reach the register on bitpar only (read back
        # 5 there, 0 on interp and compiled): now every backend refuses
        sim = RtlSimulator(_counter_module(), backend=backend)
        with pytest.raises(TypeError):
            sim.values[sim.design.net("cnt.value")] = 5
        sim.set_input("cnt.en", 1)
        sim.cycle(3)
        assert sim.values[sim.design.net("cnt.q")] == sim.read("cnt.q") == 3


class TestVerilogEmission:
    def test_emits_all_modules_once(self):
        child = _counter_module()
        top = RtlModule("top")
        q0 = top.wire("q0", 4)
        q1 = top.wire("q1", 4)
        top.instantiate(child, "c0", {"en": C(1), "q": q0})
        top.instantiate(child, "c1", {"en": C(0), "q": q1})
        bus = top.output("bus", 4)
        top.assign(bus, q0.ref() ^ q1.ref())
        text = emit_verilog(top)
        assert text.count("module cnt (") == 1
        assert text.count("module top (") == 1
        assert "cnt c0 (" in text
        assert "cnt c1 (" in text

    def test_emits_constructs(self):
        m = RtlModule("m")
        sel = m.input("sel", 1)
        r = m.reg("r", 2, clock="K#", init=1)
        m.sync(r, r.ref() + C(1, 2))
        out = m.output("q", 2)
        m.tristate(out, sel.ref(), r.ref())
        text = emit_verilog(m)
        assert "always @(posedge K_n)" in text
        assert "2'bz" in text
        assert "reg [1:0] r = 2'd1;" in text

    def test_expression_rendering(self):
        from repro.rtl import emit_expr, Concat

        assert emit_expr(C(5, 4)) == "4'd5"
        assert emit_expr(C(1, 1) & C(0, 1)) == "(1'd1 & 1'd0)"
        assert emit_expr(Mux(C(1), C(2, 2), C(3, 2))) == \
            "(1'd1 ? 2'd2 : 2'd3)"
        assert emit_expr(Concat([C(0, 2), C(1, 2)])) == "{2'd1, 2'd0}"
        assert emit_expr(C(7, 3).reduce_xor()) == "(^3'd7)"
        assert emit_expr(C(5, 4).slice(1, 2)) == "4'd5[2:1]"
