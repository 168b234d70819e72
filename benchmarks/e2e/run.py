"""End-to-end benchmark of the LA-1 methodology toolchain.

Five workloads (``workloads/``, rationale in README.md): the Figure 2
flow, Table 3's four simulators, the 4-bank PPSFP fault campaign, short
campaign jobs through ``repro.serve``, and BDD/SAT model checking.

Usage::

    python3 benchmarks/e2e/run.py --workload NAME [--seed N] [--seconds S]
                                  [--trace 0|1] [--trace-dir DIR]

runs one workload in this process.  It prints every metric by name
with its unit and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the gated
end-to-end metrics untraced, the per-layer metrics with ``--trace 1``
(which also writes ``DIR/NAME.json`` in Chrome trace-event format).

::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--sets K]
                                  [--trace 0|1] [--json PATH]
                                  [--compare BASELINE.json]

runs the named workloads (default: all five), each in its own
subprocess: K untraced sets, then with ``--trace 1`` one traced run of
each.  It writes the ``{name, config, metrics, gates}`` envelope
(default ``BENCH_e2e.json`` here) and, with ``--compare``, prints a
verdict per metric and workload against a baseline envelope.

The exit status is non-zero when a correctness oracle fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"run.py: no repro package under {SRC}; run the benchmark "
             "from a checkout of the repository")
sys.path[:0] = [SRC, os.path.dirname(HERE), HERE]

import harness  # noqa: E402
from bench_schema import write_bench  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import NAMES, OUT  # noqa: E402

DEFAULT_SEED = 2004
#: seconds one run measures; BENCHMARK.json's run_seconds
DEFAULT_SECONDS = 15
DEFAULT_JSON = os.path.join(HERE, "BENCH_e2e.json")
CHILD_TIMEOUT_S = 900

#: the gated end-to-end metrics every workload reports (BENCHMARK.json
#: lists the same): name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "task_p50_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
}
#: workload-specific end-to-end metrics, printed, recorded and compared
#: but not in BENCHMARK.json; a None bound marks information only
SPECIFIC = {
    "failed_ratio": ("ratio", "lower", 0.0),
    "error_verdict_ratio": ("ratio", "lower", 0.0),
    "flow_s": ("s", "lower", 0.10),
    "sc_cycles_per_s": ("1/s", "higher", 0.10),
    "ovl_cycles_per_s": ("1/s", "higher", 0.10),
    "compiled_cycles_per_s": ("1/s", "higher", 0.10),
    "bitpar_lane_cycles_per_s": ("1/s", "higher", 0.10),
    "table3_ratio": ("ratio", "higher", None),
    "campaign_faults_per_s": ("1/s", "higher", 0.10),
    "serve_job_p50_s": ("s", "lower", 0.10),
    "serve_job_p75_s": ("s", "lower", 0.10),
    "serve_hit_p50_s": ("s", "lower", 0.10),
    "bdd_prove_s": ("s", "lower", 0.10),
    "sat_prove_s": ("s", "lower", 0.10),
    "bmc_s": ("s", "lower", 0.10),
}
METRICS = {**END_TO_END, **SPECIFIC}


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def run_one(args) -> int:
    name = args.workload[0]
    trace_dir = None
    if args.trace:
        trace_dir = args.trace_dir
        os.makedirs(trace_dir, exist_ok=True)
    result = harness.run_workload(name, args.seed, args.seconds, trace_dir)
    if args.trace:
        values, table = result["layers"], LAYER_METRICS
    else:
        values, table = result["metrics"], METRICS
    for metric, value in values.items():
        print(f"{name:<9} {metric:<28} {value:>14.6g} {table[metric][0]}")
    if args.trace:
        by_layer = result["self_by_layer"]
        print(f"{name:<9} traced wall {result['traced_wall_s']:.3f} s = "
              + " + ".join(f"{layer} {seconds:.3f}" for layer, seconds
                           in sorted(by_layer.items(), key=lambda i: -i[1]))
              + f" (sum {sum(by_layer.values()):.3f}); trace "
              f"{result['trace']}")
    samples = result.get("samples", {})
    print(f"{name:<9} samples: {result['tasks']} tasks, "
          f"{len(samples.get('setup_s', ()))} set-ups, "
          f"{result['attempted']} operations, {result['failed']} failed")
    for oracle in result["oracles"]:
        flag = "ok  " if oracle["ok"] else "FAIL"
        detail = f" ({oracle['detail']})" if not oracle["ok"] else ""
        print(f"{flag} {name}: {oracle['name']}{detail}")
    for note in result["notes"]:
        print(f"note {name}: {note}")
    print("DETAIL " + json.dumps(result, sort_keys=True))
    gated = LAYER_METRICS if args.trace else END_TO_END
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": values[m], "unit": gated[m][0]}
                    for m in gated},
    }))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# several workloads, one subprocess each
# ----------------------------------------------------------------------
def _child(name: str, args, trace: bool) -> dict:
    command = [sys.executable, os.path.abspath(__file__), "--workload",
               name, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(int(trace))]
    if trace:
        command += ["--trace-dir", args.trace_dir]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    detail = None
    for line in done.stdout.splitlines():
        if line.startswith("DETAIL "):
            detail = json.loads(line[len("DETAIL "):])
        elif not line.startswith("{"):
            print(line, flush=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
    if detail is None:
        return {"workload": name, "correct": False,
                "error": f"exit status {done.returncode}"}
    return detail


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        value = values[0]
        return value, value, value
    return tuple(statistics.quantiles(values, n=4))


def judge(old: list, new: list, better: str, bound: float) -> str:
    """Verdict of one metric on one workload, ``new`` runs against
    ``old`` runs (paired by index): improved only when the change wins
    nine tenths of the pairs and the medians differ by more than the
    old runs' interquartile range; regressed when the median is worse
    by more than ``bound``; unresolved when the old runs spread wider
    than ``bound`` and not every new run beats every old one."""
    sign = 1.0 if better == "lower" else -1.0
    q1, old_median, q3 = quartiles(old)
    new_median = statistics.median(new)
    pairs = list(zip(old, new))
    wins = sum(sign * (a - b) > 0 for a, b in pairs)
    if (pairs and wins >= 0.9 * len(pairs)
            and abs(new_median - old_median) > q3 - q1):
        return "improved"
    scale = abs(old_median) or 1.0
    if sign * (new_median - old_median) / scale > bound:
        return "regressed"
    every_better = all(sign * (a - b) > 0 for a in old for b in new)
    if (q3 - q1) / scale > bound and not every_better:
        return "unresolved"
    return "unchanged"


def compare(path: str, sets: list) -> None:
    with open(path) as fh:
        baseline = json.load(fh)["metrics"]["sets"]
    print(f"\ncomparison against {path} "
          f"({len(baseline)} baseline sets, {len(sets)} new)")
    print(f"{'workload':<9} {'metric':<26} {'baseline [q1, q3]':>30} "
          f"{'new [q1, q3]':>30} {'bound':>6}  verdict")
    for name in sets[0]:
        for metric, (unit, better, bound) in METRICS.items():
            if bound is None:
                continue
            old = _values(baseline, name, metric)
            new = _values(sets, name, metric)
            if not old and not new:
                continue
            cells = []
            for values in (old, new):
                if values:
                    q1, mid, q3 = quartiles(values)
                    cells.append(f"{mid:.4g} [{q1:.4g}, {q3:.4g}] {unit}")
                else:
                    cells.append("missing")
            verdict = (judge(old, new, better, bound) if old and new
                       else "unresolved (missing on one side)")
            print(f"{name:<9} {metric:<26} {cells[0]:>30} {cells[1]:>30} "
                  f"{bound:>6.0%}  {verdict}")


def _values(sets: list, name: str, metric: str) -> list:
    """``metric`` of workload ``name`` in every set that reports it."""
    return [s[name]["metrics"][metric] for s in sets
            if metric in s.get(name, {}).get("metrics", {})]


def _agreement(sets: list) -> dict:
    """Per workload and gated metric: do the sets' values agree within
    the metric's bound (largest over smallest, less one)?"""
    out: dict = {}
    for name in sets[0]:
        for metric, (__, __, bound) in END_TO_END.items():
            values = [s[name].get("metrics", {}).get(metric) for s in sets]
            if None in values:
                continue
            low, high = min(values), max(values)
            spread = (high - low) / low if low else float(high != low)
            out.setdefault(name, {})[metric] = {
                "values": values, "spread": spread, "bound": bound,
                "ok": spread <= bound}
    return out


def _layer_summary(traced: dict, untraced: list) -> dict:
    """A traced run's per-layer metrics and self time by layer, and the
    tracing overhead: its mean task time over the untraced runs'."""
    if "layers" not in traced:
        return {"error": traced.get("error", "the traced run failed")}
    wall = traced["traced_wall_s"]
    by_layer = traced["self_by_layer"]
    means = [r["task_mean_s"] for r in untraced if "task_mean_s" in r]
    return {
        "metrics": traced["layers"],
        "self_s_by_layer": by_layer,
        "traced_wall_s": wall,
        "attributed_s": sum(by_layer.values()),
        "bench_self_share": by_layer.get("bench", 0.0) / wall,
        "tracing_overhead": (traced["task_mean_s"] / statistics.median(means)
                             if means else None),
        "trace": os.path.relpath(traced["trace"], ROOT),
    }


def orchestrate(args) -> int:
    sets = [{name: _child(name, args, False) for name in args.workload}
            for __ in range(args.sets)]
    traced = ({name: _child(name, args, True) for name in args.workload}
              if args.trace else {})
    layers = {name: _layer_summary(result, [s[name] for s in sets])
              for name, result in traced.items()}
    correct = all(r.get("correct") for s in sets for r in s.values()) \
        and all(r.get("correct") for r in traced.values())
    gates = {"correct": correct}
    if len(sets) > 1:
        gates["sets_agree"] = _agreement(sets)
    config = {
        "seed": args.seed,
        "seconds": args.seconds,
        "sets": args.sets,
        "workloads": list(args.workload),
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }
    path = args.json or DEFAULT_JSON
    write_bench(path, "e2e", config, {"sets": sets, "layers": layers}, gates)
    print(f"\nwrote {path}")
    for name in args.workload:
        row = "  ".join(
            f"{metric}=" + "/".join(
                f"{s[name]['metrics'][metric]:.4g}" for s in sets
                if metric in s[name].get("metrics", {}))
            for metric in METRICS
            if any(metric in s[name].get("metrics", {}) for s in sets))
        print(f"{name:<9} {row}")
    for name, layer in layers.items():
        if "error" in layer:
            print(f"{name:<9} traced run failed: {layer['error']}")
            continue
        overhead = layer["tracing_overhead"]
        print(f"{name:<9} traced wall {layer['traced_wall_s']:.3f} s, "
              f"{layer['attributed_s']:.3f} s attributed, "
              f"{layer['bench_self_share']:.1%} to the harness, tracing "
              f"overhead " + (f"{overhead:.3f}x" if overhead else "n/a"))
    if args.compare:
        compare(args.compare, sets)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="end-to-end benchmark of the LA-1 toolchain")
    parser.add_argument("--workload", action="append", choices=NAMES,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="task i of a workload uses seed + i")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="nominal length of each run's timed loop; "
                             "fixes its task count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: record spans and report per-layer "
                             "metrics")
    parser.add_argument("--trace-dir", default=os.path.join(OUT, "traces"),
                        help="where traced runs write Chrome traces")
    parser.add_argument("--sets", type=int, default=1,
                        help="untraced sets of runs (several workloads)")
    parser.add_argument("--json", help="envelope to write (default "
                                       "BENCH_e2e.json next to run.py)")
    parser.add_argument("--compare", metavar="BASELINE",
                        help="envelope to compare the new sets against")
    args = parser.parse_args(argv)
    args.workload = args.workload or list(NAMES)
    if len(args.workload) == 1 and args.sets == 1 and not (
            args.json or args.compare):
        return run_one(args)
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
