"""``tools/bench_pairs.py``'s per-workload summary of alternating pairs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = {
    "end_to_end": [
        {"name": "runs_per_s", "unit": "runs/s", "better": "higher", "bound": 0.25},
        {"name": "transitions_per_run", "unit": "count", "better": "lower", "bound": 0.25},
        {"name": "steps_to_target", "unit": "count", "better": "lower", "bound": 0.2},
    ],
    "per_layer": [
        {"name": "gauss_newton.runs", "unit": "count", "better": "lower"},
        {"name": "plant.fd_jacobian.s", "unit": "s", "better": "lower"},
    ],
}


def run(pair, side, metrics, *, trace=0, exit_code=0, correct=True, workload="cli_sweep"):
    result = {"correct": correct, "metrics": {name: {"value": value} for name, value in metrics.items()}}
    return {"section": "pairs", "pair": pair, "side": side, "workload": workload, "trace": trace,
            "exit_code": exit_code, "result_line": json.dumps(result)}


def pairs(parent, change, **options):
    """Runs of len(parent) pairs, from one metrics dict per run and side."""
    return [r for i, (p, c) in enumerate(zip(parent, change))
            for r in (run(i, "parent", p, **options), run(i, "change", c, **options))]


def untraced(rate, transitions, steps=3.0):
    return {"runs_per_s": rate, "transitions_per_run": transitions, "steps_to_target": steps}


def test_pair_statistics_and_the_counts_that_differ():
    runs = pairs([untraced(115.0, 650.0), untraced(110.0, 650.0), untraced(120.0, 650.0)],
                 [untraced(130.0, 545.0), untraced(132.0, 545.0), untraced(118.0, 545.0)])
    entry = bench_pairs._summarize(runs, SPEC)["cli_sweep"]
    rate = entry["runs_per_s"]
    assert (rate["parent_median"], rate["change_median"]) == (115.0, 130.0)
    assert (rate["change_better_pairs"], rate["change_worse_pairs"], rate["pairs"]) == (2, 1, 3)
    assert rate["relative_worsening_of_median"] == pytest.approx(-15.0 / 115.0)
    assert rate["bound"] == 0.25
    assert entry["transitions_per_run"]["change_better_pairs"] == 3
    # runs/s differs too, but it is no count; equal step counts are not listed.
    assert entry["counts_that_differ"] == ["transitions_per_run"]
    assert entry["missing_metrics"] == []
    assert entry["correct_all"] is True
    assert entry["failed_runs"] == {"parent": 0, "change": 0}


def test_a_metric_missing_or_null_on_either_side_is_listed():
    parent = [untraced(115.0, 650.0), untraced(110.0, 650.0)]
    change = [untraced(130.0, 545.0), {"runs_per_s": 131.0, "transitions_per_run": 545.0}]
    parent[1]["extra"] = 1.0
    change[0]["runs_per_s"] = None
    entry = bench_pairs._summarize(pairs(parent, change), SPEC)["cli_sweep"]
    assert entry["missing_metrics"] == ["runs_per_s", "steps_to_target", "extra"]
    assert "runs_per_s" not in entry and "steps_to_target" not in entry
    assert entry["counts_that_differ"] == ["transitions_per_run"]


def test_a_traced_section_expects_every_per_layer_metric():
    runs = pairs([{"gauss_newton.runs": 60.0}], [{"gauss_newton.runs": 50.0}], trace=1)
    entry = bench_pairs._summarize(runs, SPEC)["cli_sweep"]
    assert entry["missing_metrics"] == ["plant.fd_jacobian.s"]
    assert entry["counts_that_differ"] == ["gauss_newton.runs"]


def test_failed_runs_leave_their_pair_out():
    runs = pairs([untraced(115.0, 650.0)] * 2, [untraced(130.0, 545.0)] * 2)
    runs[3]["exit_code"] = 1
    runs.append(run(2, "parent", untraced(100.0, 650.0), correct=False))
    runs.append(run(2, "change", {}, exit_code=1))
    entry = bench_pairs._summarize(runs, SPEC)["cli_sweep"]
    assert entry["runs_per_s"]["pairs"] == 1
    assert entry["failed_runs"] == {"parent": 0, "change": 2}
    assert entry["correct_all"] is True


def test_no_successful_pair_reports_every_metric_missing():
    runs = [run(0, "parent", untraced(115.0, 650.0)), run(0, "change", {}, exit_code=1)]
    entry = bench_pairs._summarize(runs, SPEC)["cli_sweep"]
    assert entry["missing_metrics"] == ["runs_per_s", "transitions_per_run", "steps_to_target"]
    assert entry["counts_that_differ"] == [] and entry["correct_all"] is False


def test_workloads_are_summarized_apart():
    runs = pairs([untraced(115.0, 650.0)], [untraced(130.0, 545.0)])
    runs += pairs([untraced(2.7, 2e5)], [untraced(2.7, 2e5)], workload="long_history_inexact")
    summary = bench_pairs._summarize(runs, SPEC)
    assert list(summary) == ["cli_sweep", "long_history_inexact"]
    assert summary["long_history_inexact"]["counts_that_differ"] == []
