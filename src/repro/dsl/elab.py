"""``repro.dsl.elab`` -- lower one DSL design to all three model levels.

:func:`elaborate` turns a :class:`repro.dsl.lang.Design` into an
:class:`ElaboratedDesign` holding

* an :class:`repro.asm.AsmMachine` -- one always-enabled synchronous
  ``step`` rule (domains = every input port) whose effect is the shared
  :func:`repro.dsl.lang.design_step` semantics, plus one ASM rule per
  DSL rule (restricted domains) for rule-level lint and coverage;
* a flat :class:`repro.rtl.hdl.RtlModule` -- rules become priority-mux
  next-state logic (declaration order = priority), channels become
  ready/valid register pairs, DSL monitors/probes/covers become
  assertion monitors and observation wires, and every net carries the
  frontend ``src_loc`` it was declared at;
* a ``repro.sysc`` module tree (built on demand) -- one method process
  per DSL module, clocked by a toggled ``clk`` signal, executing the
  same shared step semantics over committed signal reads.

The cross-level harness :func:`check_dsl_conformance` co-executes the
ASM machine against the RTL and SystemC lowerings through
``repro.asm.conformance`` and requires bit-identical observations.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

from ..asm.machine import AsmMachine
from ..asm.domains import IntRange
from ..asm.conformance import ConformanceResult, check_conformance
from ..rtl import hdl
from ..rtl.hdl import C, Concat, HdlError, Mux, RtlModule
from ..rtl.netlist import FlatDesign, elaborate as netlist_elaborate
from ..rtl.simulator import RtlSimulator
from ..sysc.kernel import Simulator
from ..sysc.module import Module as SyscModule
from .lang import (
    Array,
    ArrayRef,
    DBin,
    DCat,
    DConst,
    Design,
    DslError,
    DMux,
    DNot,
    DReduce,
    DSlice,
    DExpr,
    Sig,
    design_step,
)

__all__ = [
    "ElaboratedDesign",
    "elaborate",
    "netlist_fingerprint",
    "RtlDslImplementation",
    "SyscDslImplementation",
    "check_dsl_conformance",
]


# ---------------------------------------------------------------------------
# RTL expression lowering
# ---------------------------------------------------------------------------

class _LowerCtx:
    """Maps frontend declarations to their RTL nets."""

    def __init__(self):
        self.sigs: Dict[Sig, hdl.Net] = {}
        self.arrays: Dict[Array, List[hdl.Net]] = {}


def _zext(expr: hdl.Expr, width: int) -> hdl.Expr:
    if expr.width == width:
        return expr
    return Concat([expr, C(0, width - expr.width)])


def _lower(expr: DExpr, ctx: _LowerCtx) -> hdl.Expr:
    """Lower a DSL expression to a ``repro.rtl.hdl`` expression."""
    if isinstance(expr, DConst):
        return C(expr.value, expr.width)
    if isinstance(expr, Sig):
        return ctx.sigs[expr].ref()
    if isinstance(expr, ArrayRef):
        entries = ctx.arrays[expr.array]
        index = _lower(expr.index, ctx)
        acc: hdl.Expr = entries[0].ref()
        limit = (1 << index.width) - 1
        for i in range(1, len(entries)):
            if i > limit:
                break
            acc = Mux(index.eq(C(i, index.width)), entries[i].ref(), acc)
        return acc
    if isinstance(expr, DBin):
        a = _lower(expr.a, ctx)
        b = _lower(expr.b, ctx)
        if expr.op == "sub":
            # two's-complement: a - b == a + ~b + 1 over the base op set
            return a + ~b + C(1, expr.width)
        return hdl.BinOp(expr.op, a, b)
    if isinstance(expr, DNot):
        return ~_lower(expr.a, ctx)
    if isinstance(expr, DMux):
        return Mux(_lower(expr.sel, ctx), _lower(expr.if_true, ctx),
                   _lower(expr.if_false, ctx))
    if isinstance(expr, DSlice):
        return _lower(expr.a, ctx).slice(expr.lo, expr.hi)
    if isinstance(expr, DCat):
        return Concat([_lower(p, ctx) for p in expr.parts])
    if isinstance(expr, DReduce):
        lowered = _lower(expr.a, ctx)
        if expr.op == "or":
            return lowered.reduce_or()
        if expr.op == "xor":
            return lowered.reduce_xor()
        return lowered.reduce_and()
    raise DslError(f"cannot lower expression node {type(expr).__name__}")


def _hdl_guard(loc, fn, *args):
    """Run an hdl-building call, converting HdlError into a DslError
    that cites the frontend declaration."""
    try:
        return fn(*args)
    except HdlError as exc:
        raise DslError(f"{exc} (from DSL declaration at {loc})") from exc


# ---------------------------------------------------------------------------
# the elaborated container
# ---------------------------------------------------------------------------

class ElaboratedDesign:
    """One design lowered to every model level.

    ``asm``/``rtl`` are built eagerly; the flattened netlist (``flat``)
    and the SystemC module tree (:meth:`build_sysc`) on demand.
    ``source_map`` maps every flat net path to the frontend
    ``file:line`` that declared it; ``probes`` maps ``mod_probe`` names
    to flat net paths for PSL property labels."""

    def __init__(self, design: Design):
        self.design = design
        self.source_map: Dict[str, str] = {}
        self.probes: Dict[str, str] = {}
        self.covers: Dict[str, Tuple[str, int]] = {}
        self._flat: Optional[FlatDesign] = None
        self.rtl = self._build_rtl()
        self.asm = self._build_asm()
        #: ASM observation projection: every state variable
        self.observables: List[str] = [
            sig.var_name for sig in design.state_sigs()
        ] + [arr.var_name for arr in design.state_arrays()]

    # -- netlist ----------------------------------------------------------
    @property
    def flat(self) -> FlatDesign:
        """The flattened netlist (cached); HdlErrors are re-raised as
        DslErrors pointing at the frontend declaration."""
        if self._flat is None:
            try:
                self._flat = netlist_elaborate(self.rtl)
            except HdlError as exc:
                message = str(exc)
                notes = [f"{path} declared at {loc}"
                         for path, loc in self.source_map.items()
                         if path in message]
                suffix = f" ({'; '.join(notes)})" if notes else ""
                raise DslError(f"{message}{suffix}") from exc
        return self._flat

    def probe_labels(self, *names: str) -> Dict[str, Tuple[str, int]]:
        """PSL atom labels for the named probes (atom name == probe
        name)."""
        labels = {}
        for name in names:
            if name not in self.probes:
                raise DslError(f"unknown probe {name!r}; have "
                               f"{sorted(self.probes)}")
            labels[name] = (self.probes[name], 0)
        return labels

    # -- RTL lowering -----------------------------------------------------
    def _note(self, net: hdl.Net, loc) -> hdl.Net:
        net.src_loc = str(loc)
        self.source_map[f"{self.design.name}.{net.name}"] = str(loc)
        return net

    def _build_rtl(self) -> RtlModule:
        design = self.design
        top = RtlModule(design.name)
        ctx = _LowerCtx()

        # 1. ports and state
        for pname, sig in design.input_ports():
            ctx.sigs[sig] = self._note(
                _hdl_guard(sig.loc, top.input, pname, sig.width), sig.loc)
        for sig in design.state_sigs():
            ctx.sigs[sig] = self._note(
                _hdl_guard(sig.loc, top.reg, sig.rtl_name, sig.width, "K",
                           sig.init), sig.loc)
        for arr in design.state_arrays():
            entries = []
            for i in range(arr.depth):
                entries.append(self._note(
                    _hdl_guard(arr.loc, top.reg, arr.entry_rtl_name(i),
                               arr.width, "K", arr.init[i]), arr.loc))
            ctx.arrays[arr] = entries

        # 2. one fire wire per rule (the effective guard)
        fire_nets: Dict[object, hdl.Net] = {}
        for rule in design.all_rules():
            wire = self._note(
                _hdl_guard(rule.loc, top.wire,
                           f"{rule.module.name}_{rule.name}_fire", 1),
                rule.loc)
            _hdl_guard(rule.loc, top.assign, wire,
                       _lower(rule.fire_expr(), ctx))
            fire_nets[rule] = wire

        # 3. gather writes per target in rule-declaration (priority) order
        sig_writes: Dict[Sig, List[Tuple]] = {}
        arr_writes: Dict[Array, List[Tuple]] = {}
        for rule in design.all_rules():
            fire = fire_nets[rule]
            for upd in rule.updates:
                if isinstance(upd.target, Sig):
                    sig_writes.setdefault(upd.target, []).append(
                        (fire, upd.value, rule, upd.loc))
                else:
                    arr_writes.setdefault(upd.target.array, []).append(
                        (fire, upd.target.index, upd.value, rule, upd.loc))
            for chan, value, loc in rule.sends:
                sig_writes.setdefault(chan.valid_sig, []).append(
                    (fire, DConst(1, 1), rule, loc))
                sig_writes.setdefault(chan.data_sig, []).append(
                    (fire, value, rule, loc))
            for chan, loc in rule.recvs:
                sig_writes.setdefault(chan.valid_sig, []).append(
                    (fire, DConst(0, 1), rule, loc))

        # 4. next-state priority muxes (later declaration wins the fold
        #    start, so the FIRST declared writer has highest priority)
        for sig in design.state_sigs():
            reg = ctx.sigs[sig]
            acc: hdl.Expr = reg.ref()
            for fire, value, rule, loc in reversed(sig_writes.get(sig, [])):
                acc = Mux(fire.ref(), _lower(value, ctx), acc)
            _hdl_guard(sig.loc, top.sync, reg, acc)
        for arr in design.state_arrays():
            writes = arr_writes.get(arr, [])
            for i, entry in enumerate(ctx.arrays[arr]):
                acc = entry.ref()
                for fire, index, value, rule, loc in reversed(writes):
                    idx = _lower(index, ctx)
                    if i >= (1 << idx.width):
                        continue  # this write can never address entry i
                    sel = fire.ref() & idx.eq(C(i, idx.width))
                    acc = Mux(sel, _lower(value, ctx), acc)
                _hdl_guard(arr.loc, top.sync, entry, acc)

        # 5. write-once conflict monitors: two rules driving different
        #    values into one location in the same cycle is a checker
        #    failure at RTL, mirroring the runtime DslError
        self._conflict_monitors(top, ctx, fire_nets, sig_writes, arr_writes)

        # 6. combinational outputs
        for mod in design.modules:
            for sig in mod.outputs:
                if sig not in mod.drives:
                    raise DslError(f"output {sig.var_name} (declared at "
                                   f"{sig.loc}) is never driven")
                expr, dloc = mod.drives[sig]
                net = self._note(
                    _hdl_guard(sig.loc, top.output, sig.rtl_name, sig.width),
                    sig.loc)
                _hdl_guard(dloc, top.assign, net, _lower(expr, ctx))

        # 7. probes, covers, DSL monitors
        for mod in design.modules:
            for p in mod.probes:
                name = f"{mod.name}_{p.name}"
                net = self._note(_hdl_guard(p.loc, top.wire, name, 1), p.loc)
                _hdl_guard(p.loc, top.assign, net, _lower(p.expr, ctx))
                self.probes[name] = f"{design.name}.{name}"
            for p in mod.covers:
                name = f"{mod.name}_cov_{p.name}"
                net = self._note(
                    _hdl_guard(p.loc, top.wire, name, p.expr.width), p.loc)
                _hdl_guard(p.loc, top.assign, net, _lower(p.expr, ctx))
                self.covers[f"{mod.name}_{p.name}"] = (
                    f"{design.name}.{name}", p.expr.width)
            for mon in mod.monitors:
                name = f"{mod.name}_{mon.name}"
                net = self._note(_hdl_guard(mon.loc, top.wire, name, 1),
                                 mon.loc)
                _hdl_guard(mon.loc, top.assign, net, _lower(mon.expr, ctx))
                top.monitors.append((net, mon.message, "error", name, "K"))
            for rule_id, pattern, reason in mod.waivers:
                top.lint_waive(rule_id, f"{mod.name}_{pattern}", reason)
        return top

    def _conflict_monitors(self, top, ctx, fire_nets, sig_writes,
                           arr_writes) -> None:
        design = self.design
        counter = 0
        for sig, writes in sig_writes.items():
            for i in range(len(writes)):
                for j in range(i + 1, len(writes)):
                    fa, va, ra, la = writes[i]
                    fb, vb, rb, lb = writes[j]
                    if ra is rb:
                        continue  # same rule: statically checked already
                    if (isinstance(va, DConst) and isinstance(vb, DConst)
                            and va.value == vb.value):
                        continue  # provably consistent
                    cond = fa.ref() & fb.ref()
                    if not (isinstance(va, DConst) and isinstance(vb, DConst)):
                        cond = cond & _lower(va, ctx).ne(_lower(vb, ctx))
                    name = f"{sig.rtl_name}__conflict{counter}"
                    counter += 1
                    net = self._note(top.wire(name, 1), la)
                    top.assign(net, cond)
                    top.monitors.append((
                        net,
                        f"write-once violation on {sig.var_name}: rules "
                        f"{ra.full_name} (at {la}) and {rb.full_name} "
                        f"(at {lb}) disagree", "error", name, "K"))
        for arr, writes in arr_writes.items():
            for i in range(len(writes)):
                for j in range(i + 1, len(writes)):
                    fa, ia, va, ra, la = writes[i]
                    fb, ib, vb, rb, lb = writes[j]
                    if ra is rb:
                        continue  # dynamic same-rule conflicts are caught
                        # at runtime by the shared interpreter semantics
                    lia = _lower(ia, ctx)
                    lib = _lower(ib, ctx)
                    width = max(lia.width, lib.width)
                    cond = (fa.ref() & fb.ref()
                            & _zext(lia, width).eq(_zext(lib, width))
                            & _lower(va, ctx).ne(_lower(vb, ctx)))
                    name = f"{arr.owner}_{arr.name}__conflict{counter}"
                    counter += 1
                    net = self._note(top.wire(name, 1), la)
                    top.assign(net, cond)
                    top.monitors.append((
                        net,
                        f"write-once violation on {arr.var_name}: rules "
                        f"{ra.full_name} (at {la}) and {rb.full_name} "
                        f"(at {lb}) disagree", "error", name, "K"))

    # -- ASM lowering -----------------------------------------------------
    def rule_machine(self) -> AsmMachine:
        """The lint view of the ASM lowering.

        Input ports become shared state variables set by one ``env``
        rule; every DSL rule reads them from state instead of binding
        private choice variables.  Under this view, two rules are
        co-enabled only when one input valuation enables both -- so
        :class:`repro.lint.asm_rules.AsmRulesPass`'s update-conflict
        check is exactly the write-once-per-cycle discipline, with no
        false positives from contradictory per-rule input choices.  The
        synchronous ``step`` product rule is omitted: against it every
        rule's update set trivially differs."""
        design = self.design
        machine = AsmMachine(design.name)
        sigs = design.state_sigs()
        arrays = design.state_arrays()
        ports = design.input_ports()
        for sig in sigs:
            machine.var(sig.var_name, sig.init)
        for arr in arrays:
            machine.var(arr.var_name, tuple(arr.init))
        for pname, __ in ports:
            machine.var(pname, 0)

        def env_of(state) -> dict:
            env = {}
            for sig in sigs:
                env[sig] = state[sig.var_name]
            for arr in arrays:
                env[arr] = state[arr.var_name]
            for pname, sig in ports:
                env[sig] = state[pname]
            return env

        def updates_of(new_env, state) -> dict:
            updates = {}
            for sig in sigs:
                if new_env[sig] != state[sig.var_name]:
                    updates[sig.var_name] = new_env[sig]
            for arr in arrays:
                if new_env[arr] != state[arr.var_name]:
                    updates[arr.var_name] = new_env[arr]
            return updates

        env_domains = {
            pname: IntRange(pname, 0, (1 << sig.width) - 1)
            for pname, sig in ports
        }

        def env_effect(state, **args):
            return {pname: value for pname, value in args.items()
                    if state[pname] != value}

        if env_domains:
            machine.rule("env", lambda state, **args: True, env_effect,
                         env_domains)

        for rule in design.all_rules():
            machine.rule(rule.full_name,
                         self._state_rule_guard(rule, env_of),
                         self._state_rule_effect(rule, env_of, updates_of),
                         {})
        return machine

    @staticmethod
    def _state_rule_guard(rule, env_of):
        def guard(state, **args):
            return bool(rule.fire_expr().deval(env_of(state)))
        return guard

    @staticmethod
    def _state_rule_effect(rule, env_of, updates_of):
        from .lang import rule_writes

        def effect(state, **args):
            env = env_of(state)
            writes: dict = {}
            rule_writes(rule, env, writes)
            new_env = env_of(state)
            arr_updates: Dict[Array, Dict[int, int]] = {}
            for key, (value, _, _) in writes.items():
                if isinstance(key, Sig):
                    new_env[key] = value
                else:
                    arr, idx = key
                    arr_updates.setdefault(arr, {})[idx] = value
            for arr, entries in arr_updates.items():
                current = list(new_env[arr])
                for idx, value in entries.items():
                    current[idx] = value
                new_env[arr] = tuple(current)
            return updates_of(new_env, state)
        return effect

    def _build_asm(self) -> AsmMachine:
        design = self.design
        machine = AsmMachine(design.name)
        sigs = design.state_sigs()
        arrays = design.state_arrays()
        for sig in sigs:
            machine.var(sig.var_name, sig.init)
        for arr in arrays:
            machine.var(arr.var_name, tuple(arr.init))

        def env_of(state) -> dict:
            env = {}
            for sig in sigs:
                env[sig] = state[sig.var_name]
            for arr in arrays:
                env[arr] = state[arr.var_name]
            return env

        def updates_of(new_env, state) -> dict:
            updates = {}
            for sig in sigs:
                if new_env[sig] != state[sig.var_name]:
                    updates[sig.var_name] = new_env[sig]
            for arr in arrays:
                if new_env[arr] != state[arr.var_name]:
                    updates[arr.var_name] = new_env[arr]
            return updates

        ports = design.input_ports()

        # the synchronous product: every rule considered in one step
        step_domains = {
            pname: IntRange(pname, 0, (1 << sig.width) - 1)
            for pname, sig in ports
        }

        def step_guard(state, **args):
            return True

        def step_effect(state, **args):
            env = env_of(state)
            inputs = {sig: args[pname] for pname, sig in ports}
            new_state, _, _ = design_step(design, env, inputs)
            return updates_of(new_state, state)

        machine.rule("step", step_guard, step_effect, step_domains)

        # one ASM rule per DSL rule: rule-level lint + coverage
        for rule in design.all_rules():
            in_refs = rule.input_refs()
            domains = {
                sig.rtl_name: IntRange(sig.rtl_name, 0,
                                       (1 << sig.width) - 1)
                for sig in in_refs
            }
            machine.rule(rule.full_name,
                         self._rule_guard(rule, env_of, in_refs),
                         self._rule_effect(rule, env_of, updates_of,
                                           in_refs),
                         domains)
        return machine

    @staticmethod
    def _rule_guard(rule, env_of, in_refs):
        def guard(state, **args):
            env = env_of(state)
            for sig in in_refs:
                env[sig] = args[sig.rtl_name]
            return bool(rule.fire_expr().deval(env))
        return guard

    @staticmethod
    def _rule_effect(rule, env_of, updates_of, in_refs):
        from .lang import rule_writes

        def effect(state, **args):
            env = env_of(state)
            for sig in in_refs:
                env[sig] = args[sig.rtl_name]
            writes: dict = {}
            rule_writes(rule, env, writes)
            new_env = env_of(state)
            arr_updates: Dict[Array, Dict[int, int]] = {}
            for key, (value, _, _) in writes.items():
                if isinstance(key, Sig):
                    new_env[key] = value
                else:
                    arr, idx = key
                    arr_updates.setdefault(arr, {})[idx] = value
            for arr, entries in arr_updates.items():
                current = list(new_env[arr])
                for idx, value in entries.items():
                    current[idx] = value
                new_env[arr] = tuple(current)
            return updates_of(new_env, state)
        return effect

    # -- SystemC lowering -------------------------------------------------
    def build_sysc(self) -> Tuple[Simulator, "DslSyscTop"]:
        """Build a fresh SystemC module tree for this design."""
        sim = Simulator()
        top = DslSyscTop(sim, self.design)
        return sim, top


class DslSyscTop(SyscModule):
    """The SystemC lowering: one method process per DSL module, all
    clocked on a shared toggled ``clk`` signal; registers, arrays and
    channel state live in :class:`repro.sysc.signal.Signal` objects so
    reads are committed (pre-edge) values -- the synchronous semantics
    the other two levels share."""

    def __init__(self, sim: Simulator, design: Design):
        super().__init__(sim, design.name)
        self.design = design
        self.clk = self.signal("clk", False)
        self.in_sigs = {
            pname: self.signal(pname, 0)
            for pname, _ in design.input_ports()
        }
        self.state_sigs = {
            sig: self.signal(sig.rtl_name, sig.init)
            for sig in design.state_sigs()
        }
        self.array_sigs = {
            arr: self.signal(f"{arr.owner}_{arr.name}", tuple(arr.init))
            for arr in design.state_arrays()
        }
        #: monitor names that fired at any edge (transactor-side checks)
        self.failures: List[str] = []
        self._ports = design.input_ports()
        for mod in design.modules:
            self._spawn(mod)

    def _spawn(self, mod) -> None:
        def on_clk(mod=mod):
            if not self.clk.read():
                return  # initialization run / falling edge
            env = self._env()
            new_state, _, failures = design_step(
                self.design, env, self._input_env(), modules=[mod])
            self.failures.extend(failures)
            for sig in mod.regs:
                if new_state[sig] != env[sig]:
                    self.state_sigs[sig].write(new_state[sig])
            for arr in mod.arrays:
                if new_state[arr] != env[arr]:
                    self.array_sigs[arr].write(new_state[arr])
            for chan in self.design.channels:
                if chan.sender == mod.name or chan.receiver == mod.name:
                    for sig in (chan.valid_sig, chan.data_sig):
                        if new_state[sig] != env[sig]:
                            self.state_sigs[sig].write(new_state[sig])
        self.method_process(on_clk, sensitive=(self.clk.posedge,),
                            name=f"{mod.name}_step")

    def _env(self) -> dict:
        env = {sig: signal.read() for sig, signal in self.state_sigs.items()}
        for arr, signal in self.array_sigs.items():
            env[arr] = signal.read()
        return env

    def _input_env(self) -> dict:
        return {sig: self.in_sigs[pname].read() for pname, sig in self._ports}

    # -- host-side drive helpers -----------------------------------------
    def drive_inputs(self, values: Dict[str, int]) -> None:
        for pname, value in values.items():
            self.in_sigs[pname].write(int(value))

    def tick(self) -> None:
        """One full clock cycle: commit driven inputs, then a posedge."""
        self.clk.write(False)
        self.sim.run(0)
        self.clk.write(True)
        self.sim.run(0)

    def observe(self) -> dict:
        obs = {sig.var_name: signal.read()
               for sig, signal in self.state_sigs.items()}
        for arr, signal in self.array_sigs.items():
            obs[arr.var_name] = signal.read()
        return obs


# ---------------------------------------------------------------------------
# conformance implementations
# ---------------------------------------------------------------------------

class RtlDslImplementation:
    """Adapts the flattened-RTL simulation of an elaborated design to
    the ``repro.asm.conformance`` Implementation protocol."""

    def __init__(self, elab: ElaboratedDesign, backend: str = "interp"):
        self.elab = elab
        self.sim = RtlSimulator(elab.flat, backend=backend)
        self._prefix = elab.design.name

    def reset(self) -> None:
        self.sim.reset()

    def apply(self, rule_name: str, args: dict) -> None:
        if rule_name != "step":
            raise DslError(f"RTL conformance replays only 'step' actions, "
                           f"got {rule_name!r}")
        for pname, value in args.items():
            self.sim.set_input(f"{self._prefix}.{pname}", int(value))
        self.sim.step("K")

    def observe(self) -> dict:
        obs = {}
        for sig in self.elab.design.state_sigs():
            obs[sig.var_name] = self.sim.read(
                f"{self._prefix}.{sig.rtl_name}")
        for arr in self.elab.design.state_arrays():
            obs[arr.var_name] = tuple(
                self.sim.read(f"{self._prefix}.{arr.entry_rtl_name(i)}")
                for i in range(arr.depth))
        return obs


class SyscDslImplementation:
    """Adapts the SystemC lowering to the conformance protocol; every
    ``reset`` builds a fresh simulator (SystemC kernels do not rewind)."""

    def __init__(self, elab: ElaboratedDesign):
        self.elab = elab
        self.reset()

    def reset(self) -> None:
        self.sim, self.top = self.elab.build_sysc()
        self.sim.initialize()

    def apply(self, rule_name: str, args: dict) -> None:
        if rule_name != "step":
            raise DslError(f"SystemC conformance replays only 'step' "
                           f"actions, got {rule_name!r}")
        values = dict.fromkeys(self.top.in_sigs, 0)
        for pname, value in args.items():
            values[pname] = int(value)
        self.top.drive_inputs(values)
        self.top.tick()

    def observe(self) -> dict:
        return self.top.observe()


def _step_only(action) -> bool:
    return action.rule.name == "step"


def check_dsl_conformance(
    elab: ElaboratedDesign,
    levels: Sequence[str] = ("rtl", "sysc"),
    max_depth: int = 3,
    max_paths: int = 4000,
    backend: str = "interp",
) -> Dict[str, ConformanceResult]:
    """BFS co-execution of the ASM model against the other lowerings.

    Branches over every input-port valuation per step, so keep
    ``max_depth`` small for wide designs.  Returns per-level
    :class:`ConformanceResult`; check ``.conformant`` on each."""
    results: Dict[str, ConformanceResult] = {}
    for level in levels:
        if level == "rtl":
            impl = RtlDslImplementation(elab, backend=backend)
        elif level == "sysc":
            impl = SyscDslImplementation(elab)
        else:
            raise DslError(f"unknown conformance level {level!r}")
        results[level] = check_conformance(
            elab.asm, impl, elab.observables, max_depth=max_depth,
            max_paths=max_paths, action_filter=_step_only)
    return results


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def elaborate(design: Design) -> ElaboratedDesign:
    """Lower ``design`` to the ASM + RTL + SystemC model trio."""
    if not design.modules:
        raise DslError(f"design {design.name} has no modules")
    return ElaboratedDesign(design)


def netlist_fingerprint(elab: ElaboratedDesign) -> str:
    """A stable content fingerprint of the *elaborated netlist* (not
    the Python source): the blake2b digest of the emitted Verilog,
    which canonicalizes net names, priority muxes and monitors."""
    from ..rtl.verilog_emit import emit_verilog

    text = emit_verilog(elab.rtl)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()
