"""``python -m repro.dsl`` -- the frontend CLI.

* ``list`` -- the zoo inventory with per-design statistics;
* ``elaborate <design>`` -- lower one design, print level statistics
  and the netlist fingerprint (``--verilog`` dumps the emitted RTL);
* ``verify <design>`` -- the full flow (lint, conformance, model
  checking, coverage, fault-campaign smoke); exit code 1 on any
  failing stage, for CI gates.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..cli import MC_ENGINES
from .zoo import build_elaborated, zoo_names, zoo_properties


def _cmd_list(args) -> int:
    from .zoo import ZOO

    for name in zoo_names():
        entry = ZOO[name]
        elab = build_elaborated(name)
        stats = elab.flat.stats()
        params = ", ".join(f"{k}={v}" for k, v in entry.PARAMS.items())
        print(f"{name:<10} {params:<20} {stats['regs']} regs, "
              f"{stats['nets']} nets, {stats['monitors']} monitors, "
              f"{len(zoo_properties(name, elab))} properties")
    return 0


def _cmd_elaborate(args) -> int:
    from .elab import netlist_fingerprint

    elab = build_elaborated(args.design)
    if args.verilog:
        from ..rtl.verilog_emit import emit_verilog

        print(emit_verilog(elab.rtl))
        return 0
    stats = elab.flat.stats()
    out = {
        "design": args.design,
        "modules": [m.name for m in elab.design.modules],
        "asm_rules": [r.name for r in elab.asm.rules],
        "rtl": stats,
        "probes": sorted(elab.probes),
        "covers": sorted(elab.covers),
        "fingerprint": netlist_fingerprint(elab),
    }
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        print(f"{args.design}: {len(out['modules'])} modules -> "
              f"{len(out['asm_rules'])} ASM rules, {stats['regs']} regs / "
              f"{stats['nets']} nets / {stats['monitors']} monitors")
        print(f"  probes: {', '.join(out['probes'])}")
        print(f"  covers: {', '.join(out['covers'])}")
        print(f"  fingerprint: {out['fingerprint']}")
    return 0


def _cmd_verify(args) -> int:
    from .flow import run_dsl_flow

    report = run_dsl_flow(
        args.design,
        seed=args.seed,
        mc_engine=args.mc_engine,
        stages=args.stages.split(",") if args.stages else None,
    )
    print(report.render())
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.dsl",
        description="design-language frontend: list, elaborate and "
                    "verify zoo designs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="zoo inventory")

    p_elab = sub.add_parser("elaborate", help="lower one design")
    p_elab.add_argument("design", choices=zoo_names())
    p_elab.add_argument("--verilog", action="store_true",
                        help="dump emitted Verilog instead of statistics")
    p_elab.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="full flow on one design")
    p_verify.add_argument("design", choices=zoo_names())
    p_verify.add_argument("--seed", type=int, default=2004)
    p_verify.add_argument("--mc-engine", choices=MC_ENGINES,
                          default="sat")
    p_verify.add_argument("--stages", default=None,
                          help="comma-separated subset, e.g. "
                               "lint,conformance")

    args = parser.parse_args(argv)
    return {"list": _cmd_list, "elaborate": _cmd_elaborate,
            "verify": _cmd_verify}[args.command](args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `elaborate --verilog | head`
        sys.exit(0)
