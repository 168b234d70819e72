"""Tests for the ASM->RTL bounded refinement check (the paper's future
work) and PSL cover-directive checking."""


from repro.asm import AsmModelChecker, ExplorationConfig
from repro.core import (
    La1AsmConfig,
    La1RtlImplementation,
    asm_labeling,
    build_la1_asm,
    check_asm_rtl_refinement,
)
from repro.core.asm_model import La1AsmAtoms as A
from repro.psl import builder as B
from repro.psl.ast import SereBool


class TestAsmRtlRefinement:
    def test_one_bank_refines(self):
        result = check_asm_rtl_refinement(La1AsmConfig(banks=1),
                                          max_depth=8, max_paths=2000)
        assert result.conformant, result.divergence

    def test_two_banks_refine(self):
        result = check_asm_rtl_refinement(La1AsmConfig(banks=2),
                                          max_depth=4, max_paths=800)
        assert result.conformant, result.divergence

    def test_wider_data_domain_refines(self):
        result = check_asm_rtl_refinement(
            La1AsmConfig(banks=1, data_values=(0, 1, 2, 3)),
            max_depth=5, max_paths=1200)
        assert result.conformant, result.divergence

    def test_sabotaged_rtl_is_caught(self):
        config = La1AsmConfig(banks=1)
        impl = La1RtlImplementation(config)
        # break the RTL: kill the fetch->out0 advance.  Designs are
        # immutable once a simulator is built from them (simulators
        # share compiled kernels), so sabotage a fresh elaboration
        from repro.core.rtl_model import build_la1_top_rtl
        from repro.rtl import RtlSimulator, elaborate
        from repro.rtl.hdl import Const

        design = elaborate(build_la1_top_rtl(impl.la1_config))
        flat = design.net("la1_top.bank0.read_port.st_out0")
        flat.next_expr = Const(0, 1)
        impl.sim = RtlSimulator(design)
        from repro.asm.conformance import check_conformance
        from repro.core import build_la1_asm, observables_for

        result = check_conformance(
            build_la1_asm(config), impl, observables_for(1),
            max_depth=7, max_paths=2000)
        assert not result.conformant
        assert "rp0" in str(result.divergence.model_obs)


class TestCoverDirectives:
    def _checker(self, banks=1, **kwargs):
        machine = build_la1_asm(La1AsmConfig(banks=banks, **kwargs))
        return AsmModelChecker(machine, asm_labeling(banks))

    def test_concurrent_read_write_is_coverable(self):
        """LA-1's headline feature -- concurrent read and write -- has a
        witness scenario."""
        checker = self._checker()
        result = checker.check_cover(
            SereBool(B.atom(A.read_req(0)) & B.atom(A.write_sel(0))),
            "concurrent-rw")
        assert result.covered is True
        assert result.witness[0][0] == "initial"
        assert "EdgeK" in result.witness[-1][0]

    def test_full_read_pipeline_covered(self):
        checker = self._checker()
        sere = B.seq(
            B.atom(A.read_req(0)),
            ~B.atom(A.read_req(0)),
            B.atom(A.read_fetch(0)),
        )
        result = checker.check_cover(sere, "pipeline")
        assert result.covered is True
        assert len(result.witness) >= 3

    def test_impossible_scenario_unreachable(self):
        checker = self._checker()
        result = checker.check_cover(
            SereBool(B.atom(A.read_req(0)) & B.atom(A.data_valid(0))),
            "impossible")
        assert result.covered is False

    def test_cross_bank_cover(self):
        checker = self._checker(banks=2)
        # bank 1 can stream data while bank 0 accepts a write
        sere = SereBool(B.atom(A.data_valid(1)) & B.atom(A.write_sel(0)))
        result = checker.check_cover(sere, "cross-bank")
        assert result.covered is True

    def test_truncated_cover_is_unknown(self):
        machine = build_la1_asm(La1AsmConfig(banks=1))
        checker = AsmModelChecker(machine, asm_labeling(1),
                                  ExplorationConfig(max_states=2))
        result = checker.check_cover(
            SereBool(B.atom(A.data_valid(0))), "bounded")
        assert result.covered in (None, True)

    def test_match_anywhere_semantics(self):
        """A cover match may start mid-execution, not only at reset."""
        checker = self._checker()
        sere = B.seq(B.atom(A.write_commit(0)), ~B.atom(A.write_commit(0)))
        result = checker.check_cover(sere, "commit-then-quiet")
        assert result.covered is True
