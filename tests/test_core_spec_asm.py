"""Tests for LA-1 spec helpers and the ASM model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm import AsmModelChecker, Explorer
from repro.core import (
    La1AsmAtoms,
    La1AsmConfig,
    La1Config,
    asm_labeling,
    build_la1_asm,
    device_property_suite,
    even_parity_int,
    merge_byte_lanes,
)
from repro.core.properties import (
    single_reader_property,
    write_commit_property,
)
from repro.psl import PslError
from repro.psl import builder as B


class TestSpecHelpers:
    @given(st.integers(0, 255))
    def test_even_parity(self, value):
        assert even_parity_int(value, 8) == bin(value).count("1") % 2

    def test_parity_masks_to_width(self):
        assert even_parity_int(0x100, 8) == 0  # bit 8 outside the lane

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
           st.integers(0, 15))
    def test_merge_byte_lanes(self, old, new, enables):
        merged = merge_byte_lanes(old, new, enables, 4)
        for lane in range(4):
            mask = 0xFF << (8 * lane)
            source = new if (enables >> lane) & 1 else old
            assert merged & mask == source & mask

    def test_config_derived_values(self):
        config = La1Config(banks=4, beat_bits=16, addr_bits=8)
        assert config.word_bits == 32
        assert config.byte_lanes == 2
        assert config.mem_words == 256

    def test_config_sub_byte_scale(self):
        config = La1Config(banks=1, beat_bits=1, addr_bits=1)
        assert config.word_bits == 2
        assert config.byte_lanes == 1
        assert config.mem_words == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            La1Config(banks=0)
        with pytest.raises(ValueError):
            La1Config(addr_bits=0)


class TestAsmModelBehaviour:
    def _machine(self, banks=1, **kwargs):
        return build_la1_asm(La1AsmConfig(banks=banks, **kwargs))

    def test_read_pipeline_walk(self):
        m = self._machine()
        m.fire_named("EdgeK", rsel=0, raddr=0, wsel=-1)
        assert m.state["rp0"] == ("req", 0)
        m.fire_named("EdgeKSharp", waddr=0, wdata=0)
        m.fire_named("EdgeK", rsel=-1, raddr=0, wsel=-1)
        assert m.state["rp0"][0] == "fetch"
        m.fire_named("EdgeKSharp", waddr=0, wdata=0)
        m.fire_named("EdgeK", rsel=-1, raddr=0, wsel=-1)
        assert m.state["rp0"][0] == "out0"
        m.fire_named("EdgeKSharp", waddr=0, wdata=0)
        assert m.state["rp0"][0] == "out1"
        m.fire_named("EdgeK", rsel=-1, raddr=0, wsel=-1)
        assert m.state["rp0"] == ("idle",)

    def test_write_commits_to_memory(self):
        m = self._machine()
        m.fire_named("EdgeK", rsel=-1, raddr=0, wsel=0)
        assert m.state["wp0"] == ("sel",)
        m.fire_named("EdgeKSharp", waddr=0, wdata=1)
        assert m.state["wp0"] == ("data", 0, 1)
        m.fire_named("EdgeK", rsel=-1, raddr=0, wsel=-1)
        assert m.state["mem0"] == (1,)
        assert m.state["wcommit0"] is True
        m.fire_named("EdgeKSharp", waddr=0, wdata=0)
        assert m.state["wcommit0"] is False

    def test_read_returns_written_value(self):
        m = self._machine()
        # write 1 to address 0
        m.fire_named("EdgeK", rsel=-1, raddr=0, wsel=0)
        m.fire_named("EdgeKSharp", waddr=0, wdata=1)
        m.fire_named("EdgeK", rsel=0, raddr=0, wsel=-1)  # commit + read
        m.fire_named("EdgeKSharp", waddr=0, wdata=0)
        m.fire_named("EdgeK", rsel=-1, raddr=0, wsel=-1)  # fetch
        assert m.state["rp0"] == ("fetch", 0, 1)

    def test_fetch_concurrent_with_commit_sees_old_value(self):
        """ASM update-set semantics: a fetch at the same edge as a commit
        reads the pre-edge array contents."""
        m = self._machine()
        # read request issued first
        m.fire_named("EdgeK", rsel=0, raddr=0, wsel=0)
        m.fire_named("EdgeKSharp", waddr=0, wdata=1)
        # this edge: read fetches AND write commits
        m.fire_named("EdgeK", rsel=-1, raddr=0, wsel=-1)
        assert m.state["mem0"] == (1,)
        assert m.state["rp0"] == ("fetch", 0, 0)  # pre-commit value

    def test_guard_blocks_read_while_busy(self):
        m = self._machine()
        m.fire_named("EdgeK", rsel=0, raddr=0, wsel=-1)
        m.fire_named("EdgeKSharp", waddr=0, wdata=0)
        with pytest.raises(Exception):
            m.fire_named("EdgeK", rsel=0, raddr=0, wsel=-1)

    def test_serialization_guard_across_banks(self):
        m = self._machine(banks=2)
        m.fire_named("EdgeK", rsel=0, raddr=0, wsel=-1)
        m.fire_named("EdgeKSharp", waddr=0, wdata=0)
        with pytest.raises(Exception):
            m.fire_named("EdgeK", rsel=1, raddr=0, wsel=-1)

    def test_concurrent_read_write_same_cycle(self):
        m = self._machine()
        m.fire_named("EdgeK", rsel=0, raddr=0, wsel=0)
        assert m.state["rp0"][0] == "req"
        assert m.state["wp0"] == ("sel",)

    def test_init_rule_when_enabled(self):
        m = build_la1_asm(La1AsmConfig(banks=1, explore_init=True))
        assert m.state["sim_status"] == "INIT"
        m.fire_named("SimManager_Init", pending_read=0, pending_write=-1)
        assert m.state["sim_status"] == "CHECKING"
        assert m.state["rp0"][0] == "req"
        assert m.state["phase"] == 1


class TestAsmModelChecking:
    @pytest.mark.parametrize("banks", [1, 2, 3])
    def test_suite_holds(self, banks):
        machine = build_la1_asm(La1AsmConfig(banks=banks))
        suite = device_property_suite(banks)
        checker = AsmModelChecker(machine, asm_labeling(banks))
        result = checker.check_combined([p for __, p in suite])
        assert result.holds is True

    def test_suite_holds_with_init_exploration(self):
        machine = build_la1_asm(La1AsmConfig(banks=1, explore_init=True))
        suite = device_property_suite(1)
        checker = AsmModelChecker(machine, asm_labeling(1))
        result = checker.check_combined([p for __, p in suite])
        assert result.holds is True

    def test_fsm_grows_with_banks(self):
        sizes = []
        for banks in (1, 2):
            machine = build_la1_asm(La1AsmConfig(banks=banks))
            sizes.append(Explorer(machine).explore().num_nodes)
        assert sizes[1] > sizes[0]

    def test_wrong_latency_property_fails_with_counterexample(self):
        machine = build_la1_asm(La1AsmConfig(banks=1))
        atoms = La1AsmAtoms
        wrong = B.always(
            B.implies(B.atom(atoms.read_req(0)),
                      B.next_(B.atom(atoms.data_valid(0)), 2))
        )
        checker = AsmModelChecker(machine, asm_labeling(1))
        result = checker.check(wrong, "too-fast")
        assert result.holds is False
        assert result.counterexample is not None
        assert result.counterexample[0][0] == "initial"

    def test_single_reader_holds_even_without_serialization(self):
        """Because LA-1 has a single address bus, at most one read select
        fires per K edge -- so even with device-wide serialization turned
        off, two banks can never drive first beats in the same half-cycle.
        The property holds structurally, not just by host discipline."""
        machine = build_la1_asm(
            La1AsmConfig(banks=2, serialize_reads=False))
        checker = AsmModelChecker(machine, asm_labeling(2))
        result = checker.check(single_reader_property(0, 1), "bus")
        assert result.holds is True

    def test_unserialized_exploration_is_larger(self):
        serial = Explorer(build_la1_asm(La1AsmConfig(banks=2))).explore()
        parallel = Explorer(build_la1_asm(
            La1AsmConfig(banks=2, serialize_reads=False,
                         serialize_writes=False))).explore()
        assert parallel.num_nodes > serial.num_nodes

    def test_write_commit_property_isolated(self):
        machine = build_la1_asm(La1AsmConfig(banks=1))
        checker = AsmModelChecker(machine, asm_labeling(1))
        assert checker.check(write_commit_property(0)).holds is True

    def test_domain_size_grows_state_space(self):
        small = Explorer(build_la1_asm(La1AsmConfig(banks=1))).explore()
        large = Explorer(build_la1_asm(
            La1AsmConfig(banks=1, addr_values=(0, 1),
                         data_values=(0, 1, 2)))).explore()
        assert large.num_nodes > small.num_nodes

    def test_suite_size_matches_banks(self):
        assert len(device_property_suite(1)) == 7
        assert len(device_property_suite(2)) == 15  # 14 + 1 pair
        assert len(device_property_suite(4)) == 28 + 6


class TestTable1Pins:
    """The paper's Table 1 as this model reproduces it: the combined
    device suite holds, with the generated FSM's node and transition
    counts fixed per bank count."""

    @pytest.mark.parametrize("banks, nodes, transitions", [
        (1, 64, 94), (2, 368, 584), (3, 1456, 2392), (4, 4832, 8096),
    ])
    def test_combined_suite_counts(self, banks, nodes, transitions):
        machine = build_la1_asm(La1AsmConfig(banks=banks))
        checker = AsmModelChecker(machine, asm_labeling(banks))
        result = checker.check_combined(
            [p for __, p in device_property_suite(banks)])
        assert result.holds is True
        assert (result.num_nodes, result.num_transitions) == \
            (nodes, transitions)
        assert not result.truncated

    def test_wrong_latency_counterexample(self):
        """The too-fast latency property fails on the shortest read: a
        request captured at K, the K# half-cycle, then the next K edge,
        where the bank is fetching instead of driving data."""
        wrong = B.always(
            B.implies(B.atom(La1AsmAtoms.read_req(0)),
                      B.next_(B.atom(La1AsmAtoms.data_valid(0)), 2))
        )
        checker = AsmModelChecker(build_la1_asm(La1AsmConfig(banks=1)),
                                  asm_labeling(1))
        result = checker.check(wrong, "too-fast")
        assert result.holds is False
        assert (result.num_nodes, result.num_transitions) == (15, 15)
        assert [label for label, __ in result.counterexample] == [
            "initial",
            "EdgeK(raddr=0, rsel=0, wsel=-1)",
            "EdgeKSharp(waddr=0, wdata=0)",
            "EdgeK(raddr=0, rsel=-1, wsel=-1)",
        ]
        assert result.counterexample[-1][1]["rp0"][0] == "fetch"

    def test_unlabelled_atom_raises(self):
        checker = AsmModelChecker(build_la1_asm(La1AsmConfig(banks=1)),
                                  asm_labeling(1))
        with pytest.raises(PslError, match="no labeling function"):
            checker.check(B.always(B.atom("no_such_signal")))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(["read", "write", "idle"]), max_size=6))
def test_asm_pipeline_invariants_under_any_traffic(ops):
    """Whatever the host does, pipeline stages stay in their vocabulary
    and memory stays within the data domain."""
    config = La1AsmConfig(banks=1)
    m = build_la1_asm(config)
    for op in ops:
        rsel = 0 if op == "read" and m.state["rp0"] == ("idle",) else -1
        wsel = 0 if op == "write" and m.state["wp0"] == ("idle",) else -1
        m.fire_named("EdgeK", rsel=rsel, raddr=0, wsel=wsel)
        wdata = 1 if any(m.state[f"wp{0}"] == ("sel",) for __ in [0]) else 0
        m.fire_named("EdgeKSharp", waddr=0, wdata=wdata)
        assert m.state["rp0"][0] in ("idle", "req", "fetch", "out0", "out1")
        assert m.state["wp0"][0] in ("idle", "sel", "data")
        assert all(w in config.data_values for w in m.state["mem0"])
