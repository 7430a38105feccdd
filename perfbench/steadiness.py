"""Run each workload with several seeds and print each metric's spread beside its bound.

    python3 perfbench/steadiness.py [--workloads W ...] [--seeds 1-10] [--seconds S] [--trace]

Each run is ``perfbench/run.py`` in a fresh process, one after another. The
spread of a metric is the distance between the first and third quartiles of
its values (``statistics.quantiles(values, n=4)``) as a share of their
median. It must stay within the metric's bound (``setup_s`` excepted, whose
median alone is compared between sets); the aim is a third of it. With
``--trace`` each workload also gets one traced run, and the tracing overhead
is its mean calibrated run time against that of the untraced run of the
same seed. Exits 1 when a spread leaves its bound, a check fails, or the
share of failed operations differs between seeds.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """One benchmark run: its result object and the key=value fields of its summary line."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    summary = dict(re.findall(r"(\w+)=(\S+)", lines[-2])) if len(lines) > 1 else {}
    return json.loads(lines[-1]), summary


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads:
        results = []
        for seed in seeds:
            result, summary = run_once(workload, seed, args.seconds, 0)
            results.append((result, summary))
            print(f"  {workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        shares = {r["failed"] / r["attempted"] for r, _ in results}
        correct = all(r["correct"] for r, _ in results)
        steady &= correct and len(shares) == 1
        print(f"{workload}: {len(seeds)} seeds, correct={correct}, failed shares={sorted(shares)}")
        print(f"  {'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}  within")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r, _ in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            s = spread(values)
            steady &= name == "setup_s" or s <= bound
            if name == "setup_s":
                mark = "(median only)"
            else:
                mark = "third" if s <= bound / 3 else ("bound" if s <= bound else "NO")
            print(f"  {name:22s} {q2:12.6g} {q1:12.6g} {q3:12.6g} {s:8.4f} {bound:6.3f}  {mark}")
        if args.trace:
            traced, summary = run_once(workload, seeds[0], args.seconds, 1)
            base = results[0][1]
            t_traced = float(summary["calibrated_s_per_run"])
            t_plain = float(base["calibrated_s_per_run"])
            untraced_transitions = results[0][0]["metrics"]["transitions_per_run"]["value"]
            print(f"  traced run, seed {seeds[0]}: {t_traced:.6f} s per run against {t_plain:.6f} s "
                  f"untraced, overhead {t_traced / t_plain - 1:+.1%}; plant.transitions "
                  f"{traced['metrics']['plant.transitions']['value']:.6g} against "
                  f"transitions_per_run {untraced_transitions:.6g}")
    print("every spread within its bound" if steady else "NOT STEADY: see the rows marked NO")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
