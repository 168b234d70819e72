"""CLI: ``python -m repro.lint`` -- lint the shipped LA-1 models.

Exit code 0 when no unwaived error-severity finding exists, 1 otherwise
(the CI contract), 2 on usage errors.

Examples::

    python -m repro.lint                  # 2-bank stack, text report
    python -m repro.lint --banks 4        # 4-bank stack
    python -m repro.lint --json           # machine-readable report
    python -m repro.lint --sarif out.sarif  # SARIF 2.1.0 for CI viewers
    python -m repro.lint --semantic       # + SAT-proved passes (slower)
    python -m repro.lint --disable cdc-no-sync --no-waived
"""

from __future__ import annotations

import argparse
import sys

from . import LintConfig, lint_la1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Static analysis of the LA-1 RTL/PSL/ASM models.",
    )
    parser.add_argument(
        "--banks", type=int, default=2, metavar="N",
        help="bank count of the linted device (default: 2)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON",
    )
    parser.add_argument(
        "--sarif", metavar="PATH",
        help="also write the report as SARIF 2.1.0 to PATH",
    )
    parser.add_argument(
        "--semantic", action="store_true",
        help="enable the SAT-backed semantic passes (proved const "
             "nets, codegen equivalence; slower)",
    )
    parser.add_argument(
        "--no-waived", action="store_true",
        help="hide waived findings in the text report",
    )
    parser.add_argument(
        "--disable", action="append", default=[], metavar="RULE",
        help="disable a rule id (repeatable)",
    )
    parser.add_argument(
        "--asm-state-cap", type=int, default=512, metavar="N",
        help="bound of the ASM reachable-state sweep (default: 512)",
    )
    args = parser.parse_args(argv)
    if args.banks < 1:
        parser.error("--banks must be >= 1")

    config = LintConfig(
        disabled_rules=frozenset(args.disable),
        asm_state_cap=args.asm_state_cap,
    )
    report = lint_la1(
        banks=args.banks, config=config, semantic=args.semantic,
    )
    if args.sarif:
        from .sarif import write_sarif

        write_sarif(report, args.sarif)
    if args.json:
        print(report.to_json())
    else:
        print(report.render(show_waived=not args.no_waived))
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
