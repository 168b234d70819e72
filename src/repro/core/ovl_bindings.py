"""OVL assertion bindings for the RTL LA-1 model (Table 3, right side).

"We also used the Open Verification Library (OVL) to verify the same
assertions as those integrated in the SystemC model."  Each binding below
instantiates a checker *module* into the design (extra nets + registers
the Verilog-level simulator evaluates every edge), which is exactly the
overhead Table 3 measures: "every call to an OVL will load the
correspondent module as part of the simulated design".

Checker timing uses the raw pipeline stage levels (``bank<b>_mon_*``
wires), because an edge-clocked OVL checker samples *pre-edge* values
where the phase-gated status strobes are always low.  In K-tick terms:

* request -> first beat: ``assert_next`` num_cks=2 on K
  (``mon_req`` high before K(c+1), ``mon_out0`` high after K(c+2));
* array access -> first beat: ``assert_next`` num_cks=1 on K;
* first beat -> second beat: ``assert_next`` num_cks=1 on K#
  (``mon_out0`` high before K#, ``mon_out1`` set by that K#);
* stage exclusivity / single bus driver: ``assert_never``;
* even byte parity of every driven beat: per-lane
  ``assert_even_parity`` on both clock edges.
"""

from __future__ import annotations

from ..ovl import assert_even_parity, assert_never, assert_next
from ..rtl.hdl import RtlModule
from .rtl_model import build_la1_top_rtl
from .spec import La1Config

__all__ = ["build_la1_top_with_ovl", "attach_read_mode_ovl"]


def attach_read_mode_ovl(top: RtlModule, config: La1Config) -> int:
    """Attach the read-mode OVL checker set to an LA-1 top module.

    Returns the number of checker instances added.
    """
    count = 0
    # the read-mode OVL set deliberately leaves the write-side commit
    # stage unobserved (the known assertion-coverage gap the fault
    # campaign measures dynamically): document it as a waived lint
    # finding rather than silencing the rule
    top.lint_waive(
        "unobservable-reg", "bank*.write_port.committed",
        "known write-path coverage gap: the read-mode OVL set does not "
        "sample the commit stage; measured as a silent-fault class by "
        "the fault-injection campaign",
    )
    for b in range(config.banks):
        req = top.net(f"bank{b}_mon_req")
        fetch = top.net(f"bank{b}_mon_fetch")
        out0 = top.net(f"bank{b}_mon_out0")
        out1 = top.net(f"bank{b}_mon_out1")
        assert_next(
            top, req.ref(), out0.ref(), num_cks=2,
            name=f"ovl_read_latency_{b}",
            message=f"bank{b}: first beat missing 2 cycles after request",
            clock="K",
        )
        count += 1
        assert_next(
            top, fetch.ref(), out0.ref(), num_cks=1,
            name=f"ovl_fetch_to_beat_{b}",
            message=f"bank{b}: beat did not follow array access",
            clock="K",
        )
        count += 1
        assert_next(
            top, out0.ref(), out1.ref(), num_cks=1,
            name=f"ovl_second_beat_{b}",
            message=f"bank{b}: second beat missing after first",
            clock="K#",
        )
        count += 1
        assert_never(
            top, req.ref() & out0.ref(),
            name=f"ovl_req_excl_{b}",
            message=f"bank{b}: request while driving data",
            clock="K",
        )
        count += 1
    data_bus = top.net("data_bus")
    par_bus = top.net("par_bus")
    valid = top.net("read_valid")
    lane_bits = max(1, config.beat_bits // max(1, config.byte_lanes))
    for lane in range(config.byte_lanes):
        lo = lane * lane_bits
        for clock in ("K", "K#"):
            assert_even_parity(
                top,
                data_bus.ref().slice(lo, lo + lane_bits - 1),
                par_bus.ref().bit(lane),
                valid.ref(),
                name=f"ovl_parity_l{lane}_{clock.replace('#', 's')}",
                message=f"parity error on data bus lane {lane}",
                clock=clock,
            )
            count += 1
    for b1 in range(config.banks):
        for b2 in range(b1 + 1, config.banks):
            d1 = top.net(f"bank{b1}_drive_en")
            d2 = top.net(f"bank{b2}_drive_en")
            for clock in ("K", "K#"):
                assert_never(
                    top, d1.ref() & d2.ref(),
                    name=f"ovl_bus_{b1}_{b2}_{clock.replace('#', 's')}",
                    message=f"banks {b1}/{b2} drive the read bus together",
                    clock=clock,
                )
                count += 1
    return count


def build_la1_top_with_ovl(config: La1Config,
                           name: str = "la1_top") -> RtlModule:
    """Build the LA-1 RTL top with the full read-mode OVL assertion set."""
    top = build_la1_top_rtl(config, name)
    attach_read_mode_ovl(top, config)
    return top
