"""The design zoo as a standing cross-level stress test: every entry
elaborates to all three model levels, conforms trace-for-trace, lints
clean (justified waivers only), proves its property set with the SAT
engine, and round-trips through the Verilog emitter by name."""

import re

import pytest

from repro.dsl import check_dsl_conformance, netlist_fingerprint
from repro.dsl.flow import run_dsl_flow
from repro.dsl.zoo import (
    ZOO,
    build_design,
    build_elaborated,
    conformance_budget,
    zoo_names,
    zoo_properties,
    zoo_state_predicates,
)
from repro.rtl import emit_verilog

DESIGNS = zoo_names()


def test_zoo_inventory():
    assert DESIGNS == ["arbiter", "fifo", "noc", "qdr"]
    for name, entry in ZOO.items():
        assert entry.NAME == name
        assert isinstance(entry.PARAMS, dict)
        assert set(entry.CONFORMANCE) == {"max_depth", "max_paths"}


@pytest.mark.parametrize("name", DESIGNS)
def test_elaborates_to_all_three_levels(name):
    elab = build_elaborated(name)
    stats = elab.flat.stats()
    assert stats["regs"] > 0
    assert stats["monitors"] > 0
    assert any(rule.name == "step" for rule in elab.asm.rules)
    sim, top = elab.build_sysc()
    assert top is not None
    assert elab.observables  # every state var is observable


@pytest.mark.parametrize("name", DESIGNS)
def test_conformance_bit_identical(name):
    elab = build_elaborated(name)
    results = check_dsl_conformance(elab, **conformance_budget(name))
    for level, result in results.items():
        assert result.conformant, f"{name}/{level}: {result.divergence}"
        assert result.paths_checked > 100


@pytest.mark.parametrize("name", DESIGNS)
def test_lint_clean_with_justified_waivers_only(name):
    report = run_dsl_flow(name, stages=["lint"]).stage("lint")
    assert report.ok, report.detail
    lint = report.data
    assert lint.counts()["error"] == 0
    for diag in lint.diagnostics:
        if diag.waived:
            assert diag.waived_reason.strip()


@pytest.mark.parametrize("name", DESIGNS)
def test_sat_engine_proves_every_property(name):
    from repro.sat.bmc import SatModelChecker

    elab = build_elaborated(name)
    props = zoo_properties(name, elab)
    assert props  # every zoo entry ships a property set
    for pname, prop, labels in props:
        result = SatModelChecker(elab.flat, prop, labels,
                                 name=pname).prove(max_k=10)
        assert result.holds is True, f"{name}.{pname} k={result.k}"
        assert result.k <= 2  # the zoo invariants are near-inductive


@pytest.mark.parametrize("name", DESIGNS)
def test_covers_and_probes_are_real_nets(name):
    elab = build_elaborated(name)
    assert elab.covers  # every zoo entry declares covergroup points
    for path in elab.probes.values():
        assert path in elab.flat.nets
    for path, width in elab.covers.values():
        assert path in elab.flat.nets
        assert elab.flat.nets[path].width == width


def test_fingerprints_are_distinct_and_stable():
    prints = {name: netlist_fingerprint(build_elaborated(name))
              for name in DESIGNS}
    assert len(set(prints.values())) == len(DESIGNS)
    from repro.dsl import elaborate

    rebuilt = netlist_fingerprint(elaborate(build_design("fifo")))
    assert rebuilt == prints["fifo"]


def test_parameter_overrides_change_the_netlist():
    from repro.dsl import elaborate

    deep = netlist_fingerprint(elaborate(build_design("fifo", depth=8)))
    assert deep != netlist_fingerprint(build_elaborated("fifo"))


# ---------------------------------------------------------------------------
# Verilog round-trip: the emitted text names every elaborated net
# ---------------------------------------------------------------------------

def _module_sections(text):
    sections = {}
    for match in re.finditer(r"^module (\w+) \(", text, re.MULTILINE):
        start = match.start()
        end = text.index("endmodule", start)
        sections[match.group(1)] = text[start:end]
    return sections


@pytest.mark.parametrize("name", DESIGNS)
def test_verilog_roundtrip_names_every_net(name):
    elab = build_elaborated(name)
    top = elab.rtl
    text = emit_verilog(top)
    sections = _module_sections(text)
    assert top.name in sections
    section = sections[top.name]
    missing = [net for net in top.nets
               if not re.search(rf"\b{re.escape(net)}\b", section)]
    assert not missing, f"{name} lost nets in emission: {missing}"


@pytest.mark.parametrize("name", DESIGNS)
def test_verilog_roundtrip_covers_flat_leaves(name):
    elab = build_elaborated(name)
    text = emit_verilog(elab.rtl)
    idents = set(re.findall(r"\w+", text))
    missing = {path for path in elab.flat.nets
               if path.rsplit(".", 1)[-1] not in idents}
    assert not missing


@pytest.mark.parametrize("name", DESIGNS)
def test_verilog_roundtrip_keeps_monitor_count(name):
    elab = build_elaborated(name)
    text = emit_verilog(elab.rtl)
    assert len(elab.flat.monitors) == len(elab.rtl.monitors)
    for net, __, __, label, __ in elab.rtl.monitors:
        assert net.name in text
        assert label in text


# ---------------------------------------------------------------------------
# the zoo as a testgen vehicle: the cached machine and its predicates
# ---------------------------------------------------------------------------

def test_zoo_state_predicates_read_the_asm_state():
    elab = build_elaborated("fifo")
    machine, predicates = elab.asm, zoo_state_predicates(elab)
    assert any(rule.name == "step" for rule in machine.rules)
    assert predicates  # one bin per state variable
    state = dict(machine.state)
    for predicate in predicates.values():
        assert predicate(state) in (True, False)


def test_unknown_design_is_rejected():
    from repro.dsl import DslError

    with pytest.raises(DslError, match="unknown zoo design"):
        build_design("nonesuch")
