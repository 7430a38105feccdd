"""Benchmark of the regulate library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout, importing ``regulate`` from
``src/``. One client, closed loop: one regulation run at a time in this
process, with the BLAS pool pinned to one thread. The run repeats whole
rounds of the workload's operations until S seconds have passed, checks
every operation against ``reference``, and prints one JSON object as its last
line. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it installs the span tracer, reports the per-layer metrics
instead and writes the spans to ``.perfbench_out/``.
"""

import os

# Before numpy is imported, here and in every set-up probe this starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path.insert(0, str(CHECKOUT / "src"))

SETUP_PROBES = 9
TMP_DIR = CHECKOUT / ".perfbench_tmp"
OUT_DIR = CHECKOUT / ".perfbench_out"

# Timings are scaled to a reference machine speed. The calibration is a fixed
# replay in the benchmark's own reference code. It is timed at every round's
# start, after every operation and, through the transition counter, once
# every CALIBRATE_EVERY transitions inside the runs (not in the traced run),
# whose timings then leave it out. CALIBRATION_REF_S is what it takes on an unloaded 2-vCPU development
# VM. On a shared host the speed of the same code swings by up to 1.9x for
# seconds at a time, and the scale cancels most of that.
CALIBRATION_REF_S = 1.1e-3
CALIBRATE_EVERY = 10_000
# A timing is scaled by the mean of the calibrations within this many seconds
# of it: one calibration is too short to show the speed of a millisecond run.
CALIBRATION_WINDOW_S = 0.5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set the workload up, print 'ready' and exit (used for setup_s)")
    return parser.parse_args(argv)


class Calibration:
    """Machine speed over time, as factors on the timings taken meanwhile."""

    def __init__(self):
        self._inputs = np.random.default_rng(0).uniform(-1.0, 1.0, size=(300, 2))
        self.times = []  # midpoints of the calibrations, in time order
        self.seconds = []  # what each one took
        self.spent = 0.0  # total time spent calibrating

    def measure(self) -> None:
        start = time.perf_counter()
        reference.replay("bilinear_scalar", [0.5], self._inputs[:, :1], [0.8, 0.3])
        reference.replay("affine_2d", [0.5, 0.1], self._inputs[:100], [0.5, 0.25])
        end = time.perf_counter()
        self.times.append(0.5 * (start + end))
        self.seconds.append(end - start)
        self.spent += end - start

    def factor(self, start: float, end: float) -> float:
        """Scale for a timing taken between start and end: the calibrations
        within CALIBRATION_WINDOW_S of it, or else the last one before and the
        first one after."""
        lo = bisect.bisect_left(self.times, start - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + CALIBRATION_WINDOW_S)
        near = self.seconds[lo:hi] or self.seconds[max(lo - 1, 0):hi + 1]
        return CALIBRATION_REF_S / statistics.fmean(near)


def _setup_seconds(workload: str, seed: int, calibration: Calibration) -> float:
    """Median calibrated time from starting a fresh interpreter to a set-up workload."""
    samples = []
    calibration.measure()
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--setup-probe"]
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            end = time.perf_counter()
            probe.stdout.read()
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {probe.returncode}")
        calibration.measure()
        samples.append((end - start) * calibration.factor(start, end))
    return statistics.median(samples)


def _measure(workload, seconds: float, calibration: Calibration, tracer):
    """Whole rounds until ``seconds`` have passed. Returns the results and the
    timings (operation, seconds without calibration, start, end) of every
    completed operation, and the counts of failed and mismatched ones."""
    results, timings = [], []
    failed = mismatched = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        calibration.measure()
        for i, op in enumerate(workload.ops):
            spent, op_start = calibration.spent, time.perf_counter()
            try:
                result = workload.run(op)
            except reference.CheckFailed as err:
                print(f"check failed: {err}", file=sys.stderr)
                mismatched += 1
            except Exception as err:  # an operation the program failed
                print(f"operation failed: {type(err).__name__}: {err}", file=sys.stderr)
                failed += 1
            else:
                results.append(result)
                own = result.seconds - (calibration.spent - spent)
                timings.append((i, own, op_start, time.perf_counter()))
            calibration.measure()
        if tracer:
            tracer.keep = False  # rounds repeat: the first one shows every span
        now = time.perf_counter()
        # Whole rounds only; stop at the round end nearest to --seconds.
        if now - start + (now - round_start) / 2 > seconds:
            return results, timings, failed, mismatched


def main(argv=None) -> int:
    args = _parse(argv)
    import regulate

    # The program under test is the checkout's source, never an installed copy.
    if not Path(regulate.__file__).resolve().is_relative_to(CHECKOUT / "src"):
        sys.exit(f"regulate not found under {CHECKOUT / 'src'}; run from a source checkout")
    import tracing
    import workloads

    TMP_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        counter = tracing.TransitionCounter()
        workload = workloads.build(args.workload, args.seed, counter, TMP_DIR)
        print("ready", flush=True)
        workload.close()
        return 0

    calibration = Calibration()
    tracer = None
    if args.trace:
        setup_s = None
        counter = tracing.TransitionCounter()
        tracer = tracing.Tracer()
        tracer.install()
    else:
        setup_s = _setup_seconds(args.workload, args.seed, calibration)
        counter = tracing.TransitionCounter(CALIBRATE_EVERY, calibration.measure)
    workload = workloads.build(args.workload, args.seed, counter, TMP_DIR,
                               wrap=tracer.span if tracer else None)
    try:
        workload.warm_up()
        if tracer:
            tracer.reset()
        results, timings, failed, mismatched = _measure(workload, args.seconds, calibration, tracer)
    finally:
        workload.close()
        if tracer:
            tracer.uninstall()
    if not results:
        raise RuntimeError("no operation completed")
    attempted = len(results) + failed + mismatched
    scaled = [[] for _ in workload.ops]
    for i, own, start, end in timings:
        scaled[i].append(own * calibration.factor(start, end))
    # An operation's time is the fastest of its calibrated repetitions: the
    # slower ones measure other tenants of the host as much as the program.
    best = sorted(min(times) for times in scaled if times)
    raw = [own for _, own, _, _ in timings]
    p90 = statistics.quantiles(best, n=10)[-1] if len(best) >= 10 else float("nan")
    print(f"{args.workload}: runs={len(results)} rounds={max(map(len, scaled))} "
          f"ops_per_round={len(workload.ops)} seconds_in_runs={sum(raw):.6f} "
          f"raw_p50_s={statistics.median(raw):.6f} "
          f"calibrated_s_per_run={statistics.fmean(t for times in scaled for t in times):.6f} "
          f"calibrations={len(calibration.seconds)} "
          f"calibration_median_s={statistics.median(calibration.seconds):.6e} "
          f"best_p50_s={statistics.median(best):.6f} best_p90_s={p90:.6f} "
          f"beyond_p90={sum(t > p90 for t in best)} traced={args.trace}")
    if tracer:
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv")
        values = tracer.layer_metrics(
            len(results), sum(r.transitions for r in results),
            sum(r.blocks for r in results), sum(r.retries for r in results),
            sum(r.bytes_written for r in results),
        )
        metrics = {name: {"value": v, "unit": _unit(name)} for name, v in values.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "runs_per_s": {"value": len(best) / sum(best), "unit": "runs/s"},
            "run_s.p50": {"value": statistics.median(best), "unit": "s"},
            "transitions_per_run": {
                "value": statistics.fmean(r.transitions for r in results), "unit": "count"},
            "steps_to_target": {
                "value": statistics.fmean(r.steps_to_target for r in results), "unit": "count"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": mismatched == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
