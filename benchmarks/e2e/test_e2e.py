"""Tests of the end-to-end benchmark: ``python -m pytest benchmarks/e2e -q``."""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"),
                HERE]

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from bench_schema import check_file  # noqa: E402
from tracing import Span, attribute  # noqa: E402
from workloads import NAMES, percentiles  # noqa: E402


def _span(name, sid, parent, start, end, pid=1, hot=None):
    span = Span(name, sid, parent, pid, 0, 0)
    span.start, span.end = start, end
    span.hot = hot or {}
    return span


def _total(seconds_by_sid: dict) -> dict:
    total: dict = {}
    for seconds in seconds_by_sid.values():
        for name, value in seconds.items():
            total[name] = total.get(name, 0.0) + value
    return total


class TestSelfTime:
    def test_nested_spans_and_hot_calls(self):
        spans = [
            _span("root", "r", None, 0.0, 10.0),
            _span("a", "a", "r", 1.0, 4.0, hot={"step": [1.0, 7]}),
            _span("b", "b", "r", 5.0, 9.0),
            _span("c", "c", "b", 6.0, 7.0),
        ]
        total = _total(attribute(spans, 0.0, 10.0))
        assert total == pytest.approx(
            {"root": 3.0, "a": 2.0, "step": 1.0, "b": 3.0, "c": 1.0})
        assert sum(total.values()) == pytest.approx(10.0)

    def test_concurrent_processes_share_the_wall(self):
        spans = [
            _span("job", "p", None, 0.0, 10.0),
            _span("shard", "w1", "p", 2.0, 6.0, pid=2,
                  hot={"step": [2.0, 3]}),
            _span("shard", "w2", "p", 4.0, 8.0, pid=3),
        ]
        seconds = attribute(spans, 0.0, 10.0)
        assert seconds["p"]["job"] == pytest.approx(4.0)
        # w1 is alone for 2 s and shares 2 s with w2: 3 s of wall for
        # 4 s of its own time, and its hot calls scale the same way
        assert seconds["w1"]["shard"] == pytest.approx(1.5)
        assert seconds["w1"]["step"] == pytest.approx(1.5)
        assert seconds["w2"]["shard"] == pytest.approx(3.0)
        assert sum(_total(seconds).values()) == pytest.approx(10.0)

    def test_clipping_to_the_root_interval(self):
        spans = [_span("root", "r", None, 0.0, 4.0),
                 _span("late", "l", None, 3.0, 6.0, pid=2)]
        total = _total(attribute(spans, 0.0, 4.0))
        assert total["late"] == pytest.approx(0.5)
        assert sum(total.values()) == pytest.approx(4.0)


def test_percentiles_need_ten_samples_beyond():
    assert set(percentiles(list(range(39)))) == {"p50"}
    assert set(percentiles(list(range(40)))) == {"p50", "p75"}
    assert set(percentiles(list(range(100)))) == {"p50", "p75", "p90"}
    assert percentiles([3.0, 1.0, 2.0])["p50"] == 2.0


@pytest.mark.parametrize("old, new, verdict", [
    ([10, 10.2, 9.9, 10.1], [8, 8.1, 7.9, 8.2], "improved"),
    ([10, 10.2, 9.9, 10.1], [12, 12.1, 11.9, 12.2], "regressed"),
    ([10, 10.2, 9.9, 10.1], [10.1, 10, 10.2, 9.9], "unchanged"),
    ([10, 14, 7, 12], [10.5, 9.5, 11, 9], "unresolved"),
])
def test_compare_verdicts(old, new, verdict):
    assert run.judge(old, new, "lower", 0.10) == verdict
    # the same runs of a higher-is-better metric
    assert run.judge([-v for v in old], [-v for v in new], "higher",
                     0.10) == verdict


def test_compare_reports_a_missing_metric(capsys, tmp_path):
    def run_set(metrics):
        return {"serve": {"metrics": metrics}}

    baseline = tmp_path / "old.json"
    baseline.write_text(json.dumps({"metrics": {"sets": [
        run_set({"serve_job_p75_s": 0.3}), run_set({"serve_job_p75_s": 0.3})
    ]}}))
    run.compare(str(baseline), [run_set({}), run_set({})])
    row = next(line for line in capsys.readouterr().out.splitlines()
               if "serve_job_p75_s" in line)
    assert "missing" in row and "unresolved" in row


def test_task_count_is_fixed_by_the_run_length():
    counts = {name: harness.task_count(name, run.DEFAULT_SECONDS)
              for name in NAMES}
    # serve needs 40 fresh jobs for its p75
    assert counts == {"flow": 8, "table3": 7, "campaign": 4, "serve": 42,
                      "prove": 4}
    assert all(harness.task_count(name, 0) == 1 for name in NAMES)


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(NAMES)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == tracing.LAYER_METRICS
    assert spec["run_seconds"] == run.DEFAULT_SECONDS


def test_committed_artifact_has_the_envelope():
    path = os.path.join(HERE, "BENCH_e2e.json")
    assert check_file(path) == []
    with open(path) as fh:
        data = json.load(fh)
    assert len(data["metrics"]["sets"]) >= 2
    assert set(data["metrics"]["layers"]) == set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_one_iteration_of_every_workload(name):
    result = harness.run_workload(name, 2004, seconds=0)
    assert result["tasks"] == 1
    assert result["correct"], result["oracles"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    for metric in run.END_TO_END:
        assert result["metrics"][metric] > 0


def _functions() -> dict:
    """Every function bound in a loaded repro or workload module, and
    every function in the dict of a class they define."""
    seen = {}
    for module in list(sys.modules.values()):
        if not tracing._is_traced_module(module):
            continue
        for key, value in list(vars(module).items()):
            if isinstance(value, type):
                for attr, member in list(vars(value).items()):
                    if callable(member):
                        seen[(module.__name__, key, attr)] = member
            elif callable(value):
                seen[(module.__name__, key)] = value
    return seen


def test_traced_run_restores_every_entry_point(tmp_path):
    for module, __, __ in tracing.TARGETS:
        __import__(module)
    before = _functions()
    result = harness.run_workload("serve", 2004, seconds=0,
                                  trace_dir=str(tmp_path))
    after = _functions()
    changed = [key for key, fn in before.items() if after.get(key) is not fn]
    assert changed == []
    assert not any(hasattr(fn, tracing._ORIGINAL) for fn in after.values())

    with open(result["trace"]) as fh:
        trace = json.load(fh)
    events = trace["traceEvents"]
    assert events and all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    names = {e["name"] for e in events}
    assert {"bench.task", "serve.post", "serve.job_run",
            "par.shard"} <= names
    # client, server and two shard workers
    assert len({e["pid"] for e in events}) >= 4
    assert set(result["layers"]) == set(tracing.LAYER_METRICS)
    assert sum(result["self_by_layer"].values()) == pytest.approx(
        result["traced_wall_s"], rel=0.10)
    # the server's own spans reached the spool
    for metric in ("serve.job_run_s", "serve.stream_lag_s",
                   "serve.store_put_s", "serve.store_get_s",
                   "serve.journal_append_s", "par.shard_s"):
        assert result["layers"][metric] > 0, metric
