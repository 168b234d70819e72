"""CLI: ``python -m repro.sat`` -- SAT-engine proofs over the LA-1 RTL.

Subcommands:

``prove``
    Check the read-mode property suite by BMC + k-induction
    (``--method bmc`` only refutes/bounds).  This is the engine that
    completes the 4-bank suite the BDD checker explodes on; exit 1
    unless every property is proved (or, for ``--method bmc``, clean to
    the requested depth).
``cec``
    Prove the compiled and bit-parallel codegen backends equivalent to
    the netlist reference encoding, cone by cone; exit 1 on any
    mismatch.

Examples::

    python -m repro.sat prove --banks 4          # past the BDD wall
    python -m repro.sat prove --banks 2 --method bmc --depth 20
    python -m repro.sat cec --banks 2 --check-proofs
    python -m repro.sat cec --banks 1 --ovl      # OVL-instrumented top
    python -m repro.sat prove --smoke            # CI shape
"""

from __future__ import annotations

import argparse
import json
import sys


def _cmd_prove(args) -> int:
    from ..core.properties import read_mode_suite
    from ..mc import sweep_rtl_properties

    banks = 2 if args.smoke else args.banks
    sweep = sweep_rtl_properties(
        banks,
        read_mode_suite(banks),
        datapath=args.datapath,
        engine="sat",
        coi=not args.no_coi,
        method=args.method,
        max_k=args.max_k,
        max_depth=args.depth,
        check_proofs=args.check_proofs,
        deadline_s=args.deadline,
    )
    ok = True
    rows = []
    for name, result in sweep.results:
        stats = result.bdd_stats
        if args.method == "bmc":
            good = stats.get("clean_depth") == args.depth
            verdict = (
                f"clean to depth {stats.get('clean_depth')}"
                if good else
                f"FAILS at {result.counterexample_depth}"
                if result.holds is False else "TRUNCATED"
            )
        else:
            good = result.holds is True
            verdict = (
                f"proved k={stats.get('k')}" if good else
                f"FAILS at {result.counterexample_depth}"
                if result.holds is False else "UNDECIDED"
            )
        ok = ok and good
        proof = " [proof checked]" if stats.get("proof_checked") else ""
        print(f"  {name:24s} {verdict:20s} "
              f"{result.cpu_time:6.2f}s  {stats.get('clauses', 0)} "
              f"clauses, {stats.get('conflicts', 0)} conflicts{proof}")
        rows.append({"name": name, **result.to_dict()})
    print(f"{len(rows)} properties, banks={banks}, "
          f"method={args.method}: {'OK' if ok else 'FAIL'}")
    if args.json_path:
        with open(args.json_path, "w") as fh:
            json.dump({"ok": ok, "banks": banks,
                       "method": args.method, "properties": rows},
                      fh, indent=2)
    return 0 if ok else 1


def _cmd_cec(args) -> int:
    from .cec import check_equivalence, check_la1_equivalence

    banks = 1 if args.smoke else args.banks
    if args.ovl:
        from ..core.rtl_model import la1_netlist
        from ..core.spec import la1_config

        report = check_equivalence(la1_netlist(la1_config(banks), ovl=True),
                                   check_proofs=args.check_proofs)
    else:
        report = check_la1_equivalence(
            banks, check_proofs=args.check_proofs,
        )
    print(report)
    for mismatch in report.mismatches:
        print(f"  {mismatch!r}")
    if report.proof_lemmas is not None:
        print(f"  {report.proof_lemmas} proof lemmas RUP-checked")
    if args.json_path:
        with open(args.json_path, "w") as fh:
            json.dump({
                "equivalent": report.equivalent,
                "banks": banks,
                "ovl": args.ovl,
                "cones": report.cones,
                "bits": report.bits,
                "structural": report.structural,
                "proved": report.proved,
                "proof_lemmas": report.proof_lemmas,
                "elapsed_s": report.elapsed,
                "stats": {k: v for k, v in report.stats.items()
                          if k != "slowest"},
            }, fh, indent=2)
    return 0 if report.equivalent else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sat",
        description="CDCL SAT proofs over the LA-1 RTL: BMC, "
                    "k-induction and codegen equivalence checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prove = sub.add_parser("prove", help="read-mode suite by "
                                         "BMC + k-induction")
    prove.add_argument("--banks", type=int, default=2)
    prove.add_argument("--method", choices=("prove", "bmc"),
                       default="prove")
    prove.add_argument("--max-k", type=int, default=40,
                       help="induction depth budget (default: 40)")
    prove.add_argument("--depth", type=int, default=60,
                       help="BMC depth budget (default: 60)")
    prove.add_argument("--datapath", action="store_true",
                       help="full datapath model (default: control)")
    prove.add_argument("--no-coi", action="store_true",
                       help="encode the full netlist instead of the "
                            "property's cone of influence")
    prove.add_argument("--check-proofs", action="store_true",
                       help="RUP-certify every UNSAT answer")
    prove.add_argument("--deadline", type=float, default=None,
                       help="wall-clock budget of the whole suite "
                            "(seconds), checked between properties: a "
                            "property running at it finishes, and every "
                            "later one is undecided")
    prove.add_argument("--smoke", action="store_true",
                       help="CI shape: 2 banks, defaults")
    prove.add_argument("--json", dest="json_path", default=None,
                       help="write per-property results here as JSON")
    prove.set_defaults(func=_cmd_prove)

    cec = sub.add_parser("cec", help="codegen backends vs netlist "
                                     "reference, cone by cone")
    cec.add_argument("--banks", type=int, default=2)
    cec.add_argument("--ovl", action="store_true",
                     help="check the OVL-instrumented simulation-scale "
                          "top instead of the MC-scale model")
    cec.add_argument("--check-proofs", action="store_true",
                     help="RUP-certify the solver's clause log")
    cec.add_argument("--smoke", action="store_true",
                     help="CI shape: 1 bank, MC scale")
    cec.add_argument("--json", dest="json_path", default=None,
                     help="write the report here as JSON")
    cec.set_defaults(func=_cmd_cec)

    args = parser.parse_args(argv)
    if getattr(args, "banks", 1) < 1:
        parser.error("--banks must be >= 1")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
