"""Compiled simulator kernels are built once per elaborated design.

``RtlSimulator`` takes its compiled/bitpar kernel from the cache on the
:class:`FlatDesign`; every LA-1 consumer -- the flow's stages, lint,
model checking, coverage and ``FaultCampaign`` -- shares one
elaboration per shape through the bounded :func:`la1_netlist` memo; and
a parallel campaign compiles before its pool forks, so shard workers
inherit the kernels instead of compiling their own.  None of it may
change a verdict.
"""

import os
import sys

import pytest

import repro.cover.la1 as cover_la1
from repro.core import La1Config, build_la1_top_with_ovl, la1_netlist
from repro.core.flow import FlowConfig, run_flow
from repro.core.spec import la1_config
from repro.fault.campaign import CampaignConfig, FaultCampaign, golden_logs
from repro.fault.models import ProtocolMutation, RtlStuckAt, StimulusMutation
from repro.rtl import RtlSimulator, compile_bitpar, compile_design, elaborate
from repro.rtl import netlist as netlist_mod
from repro.rtl import simulator as simulator_mod

CONFIG = dict(banks=1, traffic=8, rtl_cycles=80)


def _faults():
    top = "la1_top.bank0"
    return [
        RtlStuckAt(f"{top}.read_port.st_out0", 0, 0),
        RtlStuckAt(f"{top}.read_port.st_fetch", 0, 0),
        RtlStuckAt(f"{top}.read_port.word_reg", 3, 1),
        RtlStuckAt(f"{top}.sram.mem", 67, 1),
        StimulusMutation("corrupt_write_data", 0, 1),
        ProtocolMutation("drop_beat1", 0),
    ]


@pytest.fixture
def fresh_memo():
    """Empty netlist and golden memos, so this test's campaigns
    elaborate (and compile) from scratch and run their own golden runs
    whatever ran before."""
    la1_netlist.cache_clear()
    golden_logs.cache_clear()
    yield
    la1_netlist.cache_clear()
    golden_logs.cache_clear()


def _count_elaborations(monkeypatch):
    """Wrap ``elaborate`` under every name a loaded ``repro`` module
    holds it by; returns the list the wrapper appends to per call."""
    calls = []
    original = netlist_mod.elaborate

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def _count_compiles(monkeypatch, log=None):
    """Wrap the simulator's compile entry points; returns the backends
    compiled in this process, in call order.  With ``log``, every call
    -- from a forked worker too -- is also appended to that file with
    the caller's pid."""
    calls = []
    for name, backend in (("compile_design", "compiled"),
                          ("compile_bitpar", "bitpar")):
        original = getattr(simulator_mod, name)

        def wrapper(*args, _original=original, _backend=backend,
                    **kwargs):
            calls.append(_backend)
            if log is not None:
                with open(log, "a") as fh:
                    fh.write(f"{_backend} {os.getpid()}\n")
            return _original(*args, **kwargs)

        monkeypatch.setattr(simulator_mod, name, wrapper)
    return calls


class TestDesignKernel:
    def test_simulators_of_one_design_share_kernels(self, monkeypatch):
        design = elaborate(build_la1_top_with_ovl(
            La1Config(banks=1, beat_bits=8, addr_bits=2)))
        calls = _count_compiles(monkeypatch)
        first = RtlSimulator(design, backend="bitpar", lanes=8)
        second = RtlSimulator(design, backend="bitpar", lanes=8)
        assert first._bitpar is second._bitpar
        # the lane count is part of the key, and so is the backend
        assert RtlSimulator(design, backend="bitpar",
                            lanes=4)._bitpar is not first._bitpar
        compiled = RtlSimulator(design)
        assert RtlSimulator(design)._compiled is compiled._compiled
        assert RtlSimulator(design, detect_bus_conflicts=False)._compiled \
            is not compiled._compiled
        assert calls == ["bitpar", "bitpar", "compiled", "compiled"]
        # interp has no kernel to cache
        assert RtlSimulator(design, backend="interp")._compiled is None

    def test_compile_functions_stay_uncached(self):
        design = elaborate(build_la1_top_with_ovl(
            La1Config(banks=1, beat_bits=8, addr_bits=2)))
        RtlSimulator(design)
        RtlSimulator(design, backend="bitpar", lanes=2)
        assert compile_design(design) is not compile_design(design)
        assert compile_bitpar(design, lanes=2) is not compile_bitpar(
            design, lanes=2)


class TestCampaignReuse:
    def test_campaigns_of_one_shape_compile_bitpar_once(
            self, monkeypatch, fresh_memo):
        calls = _count_compiles(monkeypatch)
        first = FaultCampaign(CampaignConfig(**CONFIG)).run(
            faults=_faults(), lanes=64)
        second = FaultCampaign(CampaignConfig(**CONFIG)).run(
            faults=_faults(), lanes=64)
        assert sorted(calls) == ["bitpar", "compiled"]
        assert first.signature() == second.signature()

    def test_forked_workers_never_compile(self, monkeypatch, fresh_memo,
                                          tmp_path):
        log = tmp_path / "compiles.log"
        _count_compiles(monkeypatch, log=str(log))
        parallel = FaultCampaign(CampaignConfig(**CONFIG)).run(
            faults=_faults(), jobs=2, lanes=64)
        assert parallel.engine_stats["par"]["mode"] == "pool"
        coordinator = str(os.getpid())
        lines = log.read_text().splitlines()
        assert sorted(line.split()[0] for line in lines) == [
            "bitpar", "compiled"]
        assert [line for line in lines
                if line.split()[1] != coordinator] == []
        serial = FaultCampaign(CampaignConfig(**CONFIG)).run(
            faults=_faults(), jobs=1, lanes=1)
        assert parallel.signature() == serial.signature()

    def test_inline_fallback_reports_the_pool_engine_stats(
            self, monkeypatch):
        # each shard sweeps on a campaign of its own, so a shard run in
        # the coordinator counts only its own simulation, and nothing
        # from one run leaks into the next run's forked workers
        def refuse_fork():
            raise OSError("fork refused")

        def run():
            report = FaultCampaign(CampaignConfig(**CONFIG)).run(
                faults=_faults(), jobs=2, lanes=64)
            stats = dict(report.engine_stats)
            return stats.pop("par")["mode"], stats, report.signature()

        pool = run()
        with monkeypatch.context() as patch:
            patch.setattr("repro.par.supervise._mp_context", refuse_fork)
            inline = run()
        again = run()
        assert [pool[0], inline[0], again[0]] == [
            "pool", "pool+inline", "pool"]
        assert pool[1]["ppsfp"]["64"]["lane_passes"] > 0
        assert pool[1] == inline[1] == again[1]
        assert pool[2] == inline[2] == again[2]


class TestDesignMemo:
    def test_one_design_object_per_shape(self, fresh_memo):
        la1 = La1Config(banks=1, beat_bits=8, addr_bits=2)
        ovl = la1_netlist(la1, ovl=True)
        # keyword and positional calls share one entry
        assert la1_netlist(La1Config(
            banks=1, beat_bits=8, addr_bits=2), True, True) is ovl
        assert la1_netlist(la1) is la1_netlist(la1, datapath=True)
        assert la1_netlist(la1) is not ovl
        assert la1_netlist(la1, False) is not la1_netlist(la1)
        assert la1_netlist.cache_info().currsize == 3
        campaign = FaultCampaign(CampaignConfig(**CONFIG))
        assert campaign._design() is FaultCampaign(
            CampaignConfig(**CONFIG))._design()
        assert campaign._design() is la1_netlist(
            CampaignConfig(**CONFIG).la1(), ovl=True)

    def test_bound_holds_a_flow_task(self):
        # one flow task cycles through the control, plain and OVL
        # netlists at 1, 2 and 4 banks; a smaller bound misses on each
        assert la1_netlist.cache_info().maxsize >= 9

    def test_memo_evicts_the_oldest_at_its_bound(self, fresh_memo):
        bound = la1_netlist.cache_info().maxsize
        shapes = [La1Config(banks=1, beat_bits=1, addr_bits=a)
                  for a in range(1, bound + 2)]
        designs = [la1_netlist(shape, False) for shape in shapes[:bound]]
        # a hit makes the first shape the most recently used, so the
        # second is the oldest when one more shape arrives
        assert la1_netlist(shapes[0], False) is designs[0]
        la1_netlist(shapes[bound], False)
        assert la1_netlist.cache_info().currsize == bound
        assert la1_netlist(shapes[0], False) is designs[0]
        # an evicted shape elaborates again, into a new object
        assert la1_netlist(shapes[1], False) is not designs[1]
        assert la1_netlist.cache_info().currsize == bound


class TestSharedNetlist:
    def test_second_flow_elaborates_and_compiles_nothing(
            self, monkeypatch):
        run_flow(FlowConfig(banks=2))
        elaborations = _count_elaborations(monkeypatch)
        compiles = _count_compiles(monkeypatch)
        report = run_flow(FlowConfig(banks=2))
        assert report.ok
        assert elaborations == []
        assert compiles == []

    def test_coverage_reuses_the_campaign_netlist(self, monkeypatch,
                                                  fresh_memo):
        design = FaultCampaign(CampaignConfig(banks=1))._design()
        elaborations = _count_elaborations(monkeypatch)
        seen = []

        class Recording(RtlSimulator):
            def __init__(self, design, *args, **kwargs):
                seen.append(design)
                super().__init__(design, *args, **kwargs)

        monkeypatch.setattr(cover_la1, "RtlSimulator", Recording)
        db = cover_la1.collect_rtl_coverage(banks=1)
        assert elaborations == []
        assert seen == [design]
        assert seen[0] is design is la1_netlist(la1_config(1), ovl=True)
        assert db.counts()[0] > 0
