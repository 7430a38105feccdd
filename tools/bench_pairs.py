"""Run the benchmark alternately from two checkouts and record every run.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed N \
        --pairs K --label L [--trace 0|1]

Each pair runs ``python3 perfbench/run.py --workload W --seed N --seconds S
--trace T`` once from each checkout, the parent first in even pairs and the
change first in odd ones, one run at a time. S is the ``run_seconds`` of
``BENCHMARK.json``, so both sides run as long as the benchmark's own runs.
The record goes to ``BENCH_<L>.json`` in the current directory and is
rewritten after every run, so an interrupted call still leaves the runs made
so far:

- ``runs``: every run with its section, pair, side, workload, seed, trace,
  ``command``, ``exit_code``, ``summary_line`` and ``result_line`` (the last
  two lines of its standard output). A run that exits non-zero, or prints no
  result line, is recorded with the tail of its standard error and is not
  retried.
- one section per seed and trace setting: ``pairs`` for seed 1 and trace 0,
  otherwise ``pairs_seed<N>`` and a ``_traced`` suffix. Its ``summary`` holds,
  per workload and metric, the parent's and the change's medians and
  quartiles (inclusive method), how many pairs the change won and lost (by the
  metric's direction in ``BENCHMARK.json``), the relative worsening of the
  median and the metric's bound, from the pairs where both runs succeeded;
  plus ``correct_all``, the failed runs per side, ``counts_that_differ`` (the
  metrics in unit ``count`` whose parent and change medians differ) and
  ``missing_metrics`` (each metric that a run of the section should report,
  by ``BENCHMARK.json`` the end-to-end ones untraced and the per-layer ones
  traced, or that some run reports, and that a run of either side lacks or
  reports as null).

The record names the code each side ran: ``parent_sha`` and ``change_sha``
(the checkout's git HEAD, null outside a git repository) and ``src_sha256``,
per side a SHA-256 over the sorted paths and bytes of the checkout's ``src/``
tree (``__pycache__`` left out), which holds for uncommitted code too.

A second call with the same label adds its pairs to the file, numbered after
those of the same section and workload. It is refused when either side's
``src/`` digest differs from the file's, so one record never mixes code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_SECONDS = SPEC["run_seconds"]


def _git_sha(path: Path):
    try:
        out = subprocess.run(["git", "-C", str(path), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _src_sha256(checkout: Path) -> str:
    digest = hashlib.sha256()
    src = checkout / "src"
    files = sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        data = path.read_bytes()
        digest.update(f"{path.relative_to(src).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def _run_once(checkout: Path, command: list, timeout: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    try:
        proc = subprocess.run(command, cwd=checkout, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        return {"exit_code": None, "summary_line": None, "result_line": None,
                "stderr_tail": f"timed out after {timeout:.0f} s; {err.stderr or ''}"[-2000:]}
    lines = proc.stdout.strip().splitlines()
    record = {
        "exit_code": proc.returncode,
        "summary_line": lines[-2] if len(lines) >= 2 else None,
        "result_line": lines[-1] if lines else None,
    }
    if proc.returncode != 0 or _parse(record["result_line"]) is None:
        record["stderr_tail"] = proc.stderr[-2000:]
    return record


def _parse(result_line):
    try:
        result = json.loads(result_line)
    except (TypeError, ValueError):
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def _quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def _summarize(runs, spec) -> dict:
    """Per-workload pair statistics of one section's runs, judged by the
    metric declarations of ``spec`` (a parsed ``BENCHMARK.json``)."""
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_pair = {}
        for r in mine:
            by_pair.setdefault(r["pair"], {})[r["side"]] = _parse(r["result_line"]) if r["exit_code"] == 0 else None
        results = [pair for _, pair in sorted(by_pair.items()) if all(pair.get(side) for side in SIDES)]
        reported = [p[side]["metrics"] for p in results for side in SIDES]
        expected = [m["name"] for m in spec["per_layer" if mine[0]["trace"] else "end_to_end"]]
        names = list(dict.fromkeys(expected + [name for metrics in reported for name in metrics]))
        missing = [name for name in names if not reported or any(
            metrics.get(name, {}).get("value") is None for metrics in reported)]
        entry = {}
        counts_that_differ = []
        for name in names:
            if name in missing:
                continue
            metric = declared.get(name, {})
            sign = 1.0 if metric.get("better", "lower") == "lower" else -1.0
            parent = [p["parent"]["metrics"][name]["value"] for p in results]
            change = [p["change"]["metrics"][name]["value"] for p in results]
            p_med, c_med = statistics.median(parent), statistics.median(change)
            entry[name] = {
                "parent_median": p_med,
                "change_median": c_med,
                "parent_quartiles": _quartiles(parent),
                "change_quartiles": _quartiles(change),
                "change_better_pairs": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
                "change_worse_pairs": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                "pairs": len(results),
                "relative_worsening_of_median": sign * (c_med - p_med) / p_med if p_med else None,
                "bound": metric.get("bound"),
            }
            unit = metric.get("unit", results[0]["parent"]["metrics"][name].get("unit"))
            if unit == "count" and p_med != c_med:
                counts_that_differ.append(name)
        entry["correct_all"] = bool(results) and all(
            p[side]["correct"] for p in results for side in SIDES)
        entry["failed_runs"] = {side: sum(1 for r in mine if r["side"] == side and (
            r["exit_code"] != 0 or _parse(r["result_line"]) is None)) for side in SIDES}
        entry["counts_that_differ"] = counts_that_differ
        entry["missing_metrics"] = missing
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    dirs = {"parent": args.parent_dir.resolve(), "change": args.change_dir.resolve()}
    for side, path in dirs.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {path} has no perfbench/run.py")

    digests = {side: _src_sha256(path) for side, path in dirs.items()}
    out_path = Path(f"BENCH_{args.label}.json")
    record = json.loads(out_path.read_text()) if out_path.exists() else {
        "label": args.label,
        "parent_sha": _git_sha(dirs["parent"]),
        "change_sha": _git_sha(dirs["change"]),
        "src_sha256": digests,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()} {platform.system()}, nproc={os.cpu_count()}",
        "runs": [],
    }
    if record.get("src_sha256") != digests:
        parser.error(f"{out_path} records src/ digests {record.get('src_sha256')}, "
                     f"but these checkouts have {digests}")
    section = "pairs" + (f"_seed{args.seed}" if args.seed != 1 else "") + ("_traced" if args.trace else "")
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", f"{RUN_SECONDS:g}", "--trace", str(args.trace)]
    shown = " ".join(["python3"] + command[1:])
    record.setdefault(section, {})["method"] = (
        f"python3 {command[1]} --workload W --seed {args.seed} "
        f"--seconds {RUN_SECONDS:g} --trace {args.trace}, run alternately from the parent and "
        "the change checkout; pair i runs the parent first when i is even")
    start = 1 + max((r["pair"] for r in record["runs"]
                     if r["section"] == section and r["workload"] == args.workload), default=-1)
    timeout = 30 * RUN_SECONDS + 600
    for pair in range(start, start + args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            run = {"section": section, "pair": pair, "side": side, "workload": args.workload,
                   "seed": args.seed, "trace": args.trace, "command": shown}
            run.update(_run_once(dirs[side], command, timeout))
            record["runs"].append(run)
            mine = [r for r in record["runs"] if r["section"] == section]
            record[section]["summary"] = _summarize(mine, SPEC)
            out_path.write_text(json.dumps(record, indent=1) + "\n")
            print(f"pair {pair} {side}: exit {run['exit_code']} {run['summary_line'] or ''}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
