"""Assertion coverage (PSL activation extraction, OVL activation ports,
vacuity detection), the ``python -m repro.cover`` CLI modes, and the
fault-campaign coverage_points wiring."""

import random

import pytest

from repro.core import (
    La1Config,
    attach_read_mode_monitors,
    build_la1_system,
    build_la1_top_with_ovl,
)
from repro.cover import (
    OVL_ACTIVATION_PORTS,
    CoverageDB,
    OvlAssertionCoverage,
    PslAssertionCoverage,
    activation_guards,
    collect_la1_coverage,
)
from repro.cover.__main__ import main
from repro.fault import CampaignConfig, FaultCampaign
from repro.psl import Verdict
from repro.psl.ast import (
    Always,
    And,
    Atom,
    Never,
    Not,
    PropBool,
    PropImplication,
    SereBool,
    SuffixImpl,
)
from repro.rtl import RtlSimulator, elaborate

CONFIG = La1Config(banks=2, beat_bits=16, addr_bits=3)


class TestActivationGuards:
    def test_implication_guard(self):
        prop = Always(PropImplication(Atom("req"), PropBool(Atom("ack"))))
        guards, always = activation_guards(prop)
        assert not always
        assert len(guards) == 1
        assert guards[0].evaluate({"req": True, "ack": False})
        assert not guards[0].evaluate({"req": False, "ack": True})

    def test_bare_invariant_is_always_active(self):
        guards, always = activation_guards(Always(PropBool(Atom("ok"))))
        assert always

    def test_suffix_implication_first_letters(self):
        prop = Always(SuffixImpl(SereBool(Atom("start")),
                                 PropBool(Atom("done"))))
        guards, always = activation_guards(prop)
        assert not always
        assert any(g.evaluate({"start": True, "done": False})
                   for g in guards)

    def test_never_uses_sere_letters(self):
        prop = Always(Never(SereBool(Atom("bad"))))
        guards, always = activation_guards(prop)
        assert not always
        assert guards and guards[0].evaluate({"bad": True})

    def test_unsatisfiable_guard_dropped(self):
        contradiction = And(Atom("a"), Not(Atom("a")))
        prop = Always(PropImplication(contradiction, PropBool(Atom("x"))))
        guards, always = activation_guards(prop)
        assert guards == [] and not always


class TestPslAssertionCoverage:
    def _run(self, traffic):
        sim, clocks, device, host = build_la1_system(CONFIG)
        monitors = attach_read_mode_monitors(sim, device, clocks)
        coverage = PslAssertionCoverage(monitors)
        for bank, addr in traffic:
            host.read(bank, addr)
        sim.run(600)
        coverage.detach()
        return coverage.harvest()

    def test_traffic_activates_monitors(self):
        db = self._run([(0, 1), (1, 2), (0, 3)])
        activated = [k for k in db.covered_keys()
                     if k.endswith(".activated")]
        assert activated, db.render()
        assert all(k.startswith("assert.psl.") for k in db.points)
        # passing run: no fires
        assert all(db.hits(k) == 0 for k in db.points
                   if k.endswith(".fired"))

    def test_idle_run_is_vacuous(self):
        db = self._run([])
        vacuous = [k for k in db.points if k.endswith(".vacuous")
                   and db.hits(k)]
        assert vacuous, db.render()
        # vacuous points are goal-0 counters: they never lower coverage
        assert all(db.points[k].goal == 0 for k in vacuous)

    def test_detach_releases_observers(self):
        sim, clocks, device, host = build_la1_system(CONFIG)
        monitors = attach_read_mode_monitors(sim, device, clocks)
        coverage = PslAssertionCoverage(monitors)
        coverage.detach()
        assert all(not m.sample_observers for m in monitors)


class _ObservedCoverage:
    """The per-sample reference for counted coverage: one observer per
    monitor evaluates the monitor's activation guards on every sample."""

    def __init__(self, monitors, namespace="assert.psl"):
        self.namespace = namespace
        self.monitors = list(monitors)
        self.activations = {m.name: 0 for m in self.monitors}
        self._observers = []
        self.attach()

    def attach(self):
        if self._observers:
            return
        for monitor in self.monitors:
            guards, always = activation_guards(monitor.prop)

            def observe(valuation, name=monitor.name, guards=guards,
                        always=always):
                if always or any(g.evaluate(valuation) for g in guards):
                    self.activations[name] += 1

            monitor.sample_observers.append(observe)
            self._observers.append((monitor, observe))

    def detach(self):
        for monitor, observe in self._observers:
            monitor.sample_observers.remove(observe)
        self._observers.clear()

    harvest = PslAssertionCoverage.harvest


def _counted_coverage_run(collector, scenario):
    """Drive random values on ``a``, ``b`` and ``c`` under compiled and
    uncompiled monitors sampled on K#, with ``collector`` attached and
    harvested as ``scenario`` says.  Returns each harvest's points and
    activations, and the monitors."""
    from repro.abv import AssertionMonitor, FailureAction
    from repro.psl import ModelingLayer
    from repro.psl import builder as B
    from repro.sysc import ClockPair, MethodProcess, Signal, Simulator

    sim = Simulator()
    clocks = ClockPair(sim, "K")
    signals = {atom: Signal(sim, atom, False) for atom in "abc"}
    rng = random.Random(2004)

    def drive():
        for signal in signals.values():
            signal.write(rng.random() < 0.5)

    MethodProcess(sim, "drive", drive).make_sensitive(clocks.posedge_k)
    layer = ModelingLayer()
    either = layer.define("either", B.atom("b") | B.atom("c"))
    stop = ((FailureAction.REPORT, FailureAction.STOP)
            if scenario == "stop" else (FailureAction.REPORT,))
    monitors = [
        AssertionMonitor("always (a -> next b)", "implies", signals),
        # not a safety property: uncompiled
        AssertionMonitor("always (b -> eventually! c)", "eventually",
                         signals),
        AssertionMonitor("always (!(a & b & c))", "stopper", signals,
                         actions=stop),
        # modeling layer: uncompiled
        AssertionMonitor(B.always(B.implies(B.atom("a"), either)),
                         "modeling", signals, modeling=layer),
        AssertionMonitor("always (a | !a)", "invariant", signals),
        AssertionMonitor("never {a; c}", "late", signals),
    ]
    for monitor in monitors[:-1]:
        monitor.attach(sim, clocks.posedge_k_bar)
    if scenario == "attached_late":
        sim.run(20)
    coverage = collector(monitors)
    harvests = []

    def harvest():
        db = coverage.harvest()
        harvests.append(({k: (p.hits, p.goal) for k, p in db.points.items()},
                         dict(coverage.activations)))

    if scenario == "late_monitor":
        sim.run(20)
    monitors[-1].attach(sim, clocks.posedge_k_bar)
    sim.run(30)
    if scenario == "detached_mid_run":
        coverage.detach()
    if scenario == "second_harvest":
        harvest()
    sim.run(200 if scenario == "stop" else 30)
    coverage.detach()
    harvest()
    return harvests, monitors


class TestCountedAssertionCoverage:
    """Activations derived from the samplers' value counts equal those of
    a per-sample observer, for compiled and uncompiled monitors."""

    @pytest.mark.parametrize("scenario", [
        "attached_late", "detached_mid_run", "second_harvest",
        "late_monitor", "stop"])
    def test_matches_per_sample_observers(self, scenario):
        counted, monitors = _counted_coverage_run(PslAssertionCoverage,
                                                  scenario)
        observed, __ = _counted_coverage_run(_ObservedCoverage, scenario)
        assert counted == observed
        assert len(counted) == (2 if scenario == "second_harvest" else 1)
        samples = {m.name: m.samples for m in monitors}
        activations = counted[-1][1]
        assert 0 < activations["implies"] < activations["invariant"]
        assert 0 < activations["eventually"] < activations["invariant"]
        assert 0 < activations["modeling"] < activations["invariant"]
        if scenario == "attached_late":
            assert activations["invariant"] == samples["invariant"] - 10
        elif scenario == "detached_mid_run":
            assert activations["invariant"] == 15 < samples["invariant"]
        elif scenario == "late_monitor":
            assert samples["late"] < samples["implies"]
        elif scenario == "stop":
            stopper = monitors[2]
            assert stopper.verdict is Verdict.FAILS
            # the stop ends the sample before the later monitors take it
            assert samples["invariant"] == samples["stopper"] - 1
            assert activations["invariant"] == samples["invariant"]

    def test_guard_on_a_modeling_layer_auxiliary(self):
        # the guard `either` exists only in the extended valuation: the
        # count must match a PslMonitor stepped by hand over the samples
        from repro.abv import AssertionMonitor
        from repro.psl import ModelingLayer, PslMonitor
        from repro.psl import builder as B

        layer = ModelingLayer()
        layer.define("either", B.atom("a") | B.atom("b"))
        prop = B.always(B.implies(B.atom("either"), B.atom("c")))
        values = {}
        monitor = AssertionMonitor(
            prop, "aux",
            {atom: lambda atom=atom: values[atom] for atom in "abc"},
            modeling=layer)
        coverage = PslAssertionCoverage([monitor])
        reference = PslMonitor(prop, "aux", modeling=layer)
        rng = random.Random(2004)
        for __ in range(64):
            a, b = rng.random() < 0.3, rng.random() < 0.3
            values.update(a=a, b=b, c=a or b or rng.random() < 0.5)
            monitor.sample()
            reference.step(dict(values))
        coverage.detach()
        expected = sum(v["either"] for v in reference.trace)
        assert coverage.activations == {"aux": expected}
        assert 0 < expected < len(reference.trace) == monitor.samples == 64
        assert monitor.verdict is reference.verdict is Verdict.PENDING

    def test_registers_no_sample_observer(self):
        sim, clocks, device, host = build_la1_system(CONFIG)
        monitors = attach_read_mode_monitors(sim, device, clocks)
        coverage = PslAssertionCoverage(monitors)
        assert all(not m.sample_observers for m in monitors)
        host.read(0, 1)
        sim.run(100)
        assert sum(coverage.activations.values()) > 0


class TestOvlAssertionCoverage:
    def _sim(self):
        return RtlSimulator(elaborate(build_la1_top_with_ovl(CONFIG)),
                            backend="compiled")

    def test_monitors_have_resolvable_probes(self):
        sim = self._sim()
        coverage = OvlAssertionCoverage(sim)
        assert len(coverage._probes) == len(sim.design.monitors)
        # the LA-1 OVL suite uses guarded checkers: at least one must
        # expose an activation port from the known set
        assert any(slot is not None for __, slot in coverage._probes)
        for monitor, slot in coverage._probes:
            if slot is not None:
                nets = sim.design.nets
                assert any(nets.get(f"{monitor.name}.{port}") is not None
                           and nets[f"{monitor.name}.{port}"].slot == slot
                           for port in OVL_ACTIVATION_PORTS)

    def test_traffic_activates_and_passes(self):
        from repro.core import RtlHost
        from repro.cover.la1 import random_traffic

        sim = self._sim()
        host = RtlHost(sim, CONFIG)
        coverage = OvlAssertionCoverage(sim)
        random_traffic(host, CONFIG, 24, seed=2004)
        host.run_until_idle()
        coverage.detach()
        db = coverage.harvest()
        assert sim.ok
        assert coverage.edges_sampled > 0
        activated = [k for k in db.covered_keys()
                     if k.endswith(".activated")]
        assert activated
        assert all(db.hits(k) == 0 for k in db.points
                   if k.endswith(".fired"))

    def test_idle_sim_reports_vacuous_guarded_checkers(self):
        from repro.core import RtlHost

        sim = self._sim()
        host = RtlHost(sim, CONFIG)
        coverage = OvlAssertionCoverage(sim)
        host.run_cycles(10)  # clock ticks, no commands
        coverage.detach()
        db = coverage.harvest()
        vacuous = [k for k in db.points if k.endswith(".vacuous")
                   and db.hits(k)]
        assert vacuous, db.render()


class TestFourLevelCollection:
    def test_collect_la1_coverage_spans_all_levels(self):
        db = collect_la1_coverage(banks=2, traffic=12, asm_steps=32)
        assert db.levels() == ["asm", "assert", "func", "rtl"]
        assert db.coverage("func") > 0
        assert db.coverage("asm") > 0
        assert db.coverage("assert") > 0
        assert 0 < db.coverage("rtl") < 1


class TestCli:
    def test_smoke_merges_losslessly_and_passes(self, tmp_path, capsys):
        out = tmp_path / "cov.json"
        # shrunken traffic sits below the CI default threshold, so gate
        # on a test-sized one -- the default gate is exercised by CI's
        # full-traffic smoke run
        rc = main(["--smoke", "--traffic", "10", "--asm-steps", "32",
                   "--threshold", "0.10", "--json", str(out)])
        text = capsys.readouterr().out
        assert rc == 0, text
        assert "merge: lossless (2 shards" in text
        assert "PASS" in text
        saved = CoverageDB.load(str(out))
        assert saved.levels() == ["asm", "assert", "func", "rtl"]

    def test_threshold_miss_exits_nonzero(self, capsys):
        rc = main(["--banks", "1", "--traffic", "6", "--asm-steps", "16",
                   "--threshold", "0.99"])
        assert rc == 1
        assert "below threshold" in capsys.readouterr().err

    def test_report_merge_diff_modes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        da = CoverageDB()
        da.hit("rtl.x", 2)
        da.declare("rtl.y")
        da.save(str(a))
        db_ = CoverageDB()
        db_.hit("rtl.x")
        db_.hit("rtl.y")
        db_.save(str(b))

        merged_path = tmp_path / "m.json"
        assert main(["--merge", str(a), str(b), "--threshold", "0",
                     "--json", str(merged_path)]) == 0
        merged = CoverageDB.load(str(merged_path))
        assert merged.hits("rtl.x") == 3

        assert main(["--report", str(b), "--threshold", "0"]) == 0
        assert main(["--report", str(a), "--threshold", "0.9"]) == 1

        # b covers everything a covers and more: diff ok one way only
        assert main(["--diff", str(b), "--baseline", str(a)]) == 0
        assert main(["--diff", str(a), "--baseline", str(b)]) == 1
        capsys.readouterr()

    def test_diff_requires_baseline(self, tmp_path):
        db = CoverageDB()
        path = tmp_path / "x.json"
        db.save(str(path))
        with pytest.raises(SystemExit):
            main(["--diff", str(path)])


class TestFaultCampaignCoveragePoints:
    @pytest.fixture(scope="class")
    def report(self):
        return FaultCampaign(CampaignConfig(
            banks=1, traffic=12, max_faults=5)).run(resume=False)

    def test_detected_faults_record_coverage_points(self, report):
        detected = [v for v in report.verdicts if v.outcome == "detected"]
        assert detected, "shrunken campaign must still detect something"
        for verdict in detected:
            assert verdict.coverage_points, verdict.fault_id
            assert all(isinstance(key, str) and "." in key
                       for key in verdict.coverage_points)

    def test_undetected_faults_have_none(self, report):
        for verdict in report.verdicts:
            if verdict.outcome != "detected":
                assert verdict.coverage_points == [], verdict.fault_id

    def test_coverage_points_roundtrip_checkpoint(self, report):
        from repro.fault.campaign import FaultVerdict

        for verdict in report.verdicts:
            clone = FaultVerdict.from_dict(verdict.to_dict())
            assert clone.coverage_points == verdict.coverage_points

    def test_old_checkpoints_still_load(self):
        from repro.fault.campaign import FaultVerdict

        data = {"fault_id": "f", "layer": "sysc", "kind": "k",
                "outcome": "silent"}
        verdict = FaultVerdict.from_dict(data)
        assert verdict.coverage_points == []
