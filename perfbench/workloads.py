"""The benchmark's workloads: inputs made from the seed, one regulation run per operation.

A workload is a fixed list of operations (a round). The benchmark repeats
whole rounds, so every per-run count is the same however many rounds a run
fits, and it checks every operation with ``reference`` apart from the timing.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import regulate.cli
from regulate import RegulatorSchedule, get_model, run_inexact

import reference
from tracing import TransitionCounter, counted_spec

PLANT_NAMES = ("scalar_linear", "affine_2d", "bilinear_scalar")
# Random tails of each length T per plant in one round. The work of one run
# varies from tail to tail by up to 38% (coefficient of variation), most at
# T=200. Weighting the round toward the longer tails keeps both its mean and
# its median run within the benchmark's bounds across seeds.
TAILS = {200: 1, 400: 3, 800: 3}

# theta_true and x0 of the long-history runs: inside the box, and stable
# enough that an 800-step random tail stays bounded.
LONG_CASES = {
    "scalar_linear": ([0.8], [1.0]),
    "affine_2d": ([0.5, 0.25], [1.0, 0.0]),
    "bilinear_scalar": ([0.8, 0.3], [1.0]),
}
BETA, MU0, KAPPA0, EPS_FIN, TOL_EXACT = 0.5, 1.0, 1.0, 1e-3, 1e-10

# cli_sweep: configs per plant in each mode, the box x0 is drawn from, and
# the smallest singular value the excitation's regressors must have at x0
# (the paper's identifiability assumption). Exact-mode runs take a fifth of
# the time of inexact ones; with fewer of them the median run lies inside
# the inexact cluster rather than in the gap between the two.
SWEEP_RUNS = {"exact": 24, "inexact": 40}
SWEEP_X0_BOX = 1.5
SWEEP_MIN_SIGMA = 0.1
# Runs whose state after the excitation cannot be sent to the target in one
# step within the bounds cost several times more, as synthesis first
# exhausts every start at horizon 1. That is about 11% of affine_2d draws in
# the x0 box and none of the others, so each round holds a fixed number of
# them (an eighth) instead of a random one.
SWEEP_LONG_BLOCKS = {("affine_2d", "exact"): 3, ("affine_2d", "inexact"): 5}

WORKLOADS = ("long_history_inexact", "cli_sweep")


@dataclass
class OpResult:
    seconds: float
    transitions: int
    steps_to_target: int
    blocks: int
    retries: int
    bytes_written: int = 0


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed, *keys])


class LongHistory:
    """Inexact-mode library runs, TAILS[T] per plant and T: the default
    excitation, then a seeded uniform tail of T steps inside half the
    amplitude bound."""

    def __init__(self, seed: int, counter: TransitionCounter, wrap=None):
        self.counter = counter
        self.runner = wrap("regulator.run", run_inexact) if wrap else run_inexact
        get = wrap("benchmarks.get_model", get_model) if wrap else get_model
        self.specs = {name: counted_spec(get(name), counter) for name in PLANT_NAMES}
        self.ops = []
        for p, name in enumerate(PLANT_NAMES):
            spec = self.specs[name]
            theta, x0 = LONG_CASES[name]
            rho = spec.bounds.max_amplitude
            for T, tails in TAILS.items():
                for j in range(tails):
                    tail = _rng(seed, p, T, j).uniform(-rho / 2, rho / 2, size=(T, spec.model.input_dim))
                    excitation = np.vstack([spec.excitation.inputs, tail])
                    self.ops.append(self._case(name, theta, x0, excitation))

    def _case(self, name, theta, x0, excitation) -> reference.Case:
        bounds = self.specs[name].bounds
        return reference.Case(
            name, np.array(theta), np.array(x0), excitation, "inexact", EPS_FIN,
            bounds.max_horizon, bounds.max_amplitude,
        )

    def _regulate(self, case: reference.Case):
        spec = self.specs[case.model]
        bounds = spec.bounds
        return self.runner(
            spec.model, case.theta_true, case.x0, case.excitation,
            RegulatorSchedule(BETA, MU0, KAPPA0, EPS_FIN), bounds_fn=lambda _x: bounds,
        )

    def warm_up(self) -> None:
        """One short run per plant with its default excitation, untimed and unchecked."""
        for name in PLANT_NAMES:
            theta, x0 = LONG_CASES[name]
            self._regulate(self._case(name, theta, x0, self.specs[name].excitation.inputs))

    def run(self, case: reference.Case) -> OpResult:
        before = self.counter.count
        start = time.perf_counter()
        outcome = self._regulate(case)
        seconds = time.perf_counter() - start
        transitions = self.counter.count - before
        reference.check_run(case, reference.logged_from_outcome(outcome))
        return OpResult(
            seconds, transitions,
            reference.steps_to_target(case, outcome.trajectory.states),
            len(outcome.blocks), sum(r.inclusion_retries for r in outcome.blocks),
        )

    def close(self) -> None:
        pass


def _identifiable(name, theta, x0, excitation) -> bool:
    states = reference.replay(name, x0, excitation, theta)
    split = reference.PLANTS[name][4]
    regressors = np.vstack([split(states[t], excitation[t])[1] for t in range(len(excitation))])
    sigma = np.linalg.svd(regressors, compute_uv=False)
    return len(sigma) == len(theta) and sigma[-1] >= SWEEP_MIN_SIGMA


def _deadbeat_after(name, theta, x0, excitation, rho_max):
    """The horizon of the shortest reference block that reaches the target from
    the state after the excitation within rho_max, or None."""
    x_end = reference.replay(name, x0, excitation, theta)[-1]
    block = reference.deadbeat(name, x_end, theta)
    if block is None or float(np.max(np.abs(block))) > rho_max:
        return None
    one_step = reference.one_step(name, x_end, theta)
    return 1 if one_step is not None and float(np.max(np.abs(one_step))) <= rho_max else len(block)


def sweep_configs(seed: int) -> list:
    """The cli_sweep round: SWEEP_RUNS configs per plant and mode, theta_true
    uniform in the box, x0 uniform in a box among states that are identifiable
    and from which a deadbeat block fits the default bounds, with
    SWEEP_LONG_BLOCKS of them needing more than one step."""
    configs = []
    for p, name in enumerate(PLANT_NAMES):
        state_dim, _, box, _, _ = reference.PLANTS[name]
        excitation = np.array(reference.DEFAULT_EXCITATION[name], dtype=float)
        _, rho_max = reference.DEFAULT_BOUNDS[name]
        for m, algorithm in enumerate(("exact", "inexact")):
            rng = _rng(seed, p, m)
            long_blocks = SWEEP_LONG_BLOCKS.get((name, algorithm), 0)
            wanted = {1: SWEEP_RUNS[algorithm] - long_blocks, 2: long_blocks}
            while sum(wanted.values()):
                theta = rng.uniform(box[:, 0], box[:, 1])
                x0 = rng.uniform(-SWEEP_X0_BOX, SWEEP_X0_BOX, size=state_dim)
                if not _identifiable(name, theta, x0, excitation):
                    continue
                horizon = _deadbeat_after(name, theta, x0, excitation, rho_max)
                if horizon is None or not wanted[horizon]:
                    continue
                wanted[horizon] -= 1
                config = {"model": name, "theta_true": theta.tolist(), "x0": x0.tolist(),
                          "algorithm": algorithm, "seed": int(rng.integers(2**31))}
                if algorithm == "exact":
                    config["tol_exact"] = TOL_EXACT
                else:
                    config.update(beta=BETA, mu0=MU0, kappa0=KAPPA0, eps_fin=EPS_FIN)
                configs.append(config)
    return configs


class CliSweep:
    """Each operation is ``regulate.cli.main(["run", ...])`` then ``verify``,
    called in-process, writing into one temporary directory."""

    def __init__(self, seed: int, counter: TransitionCounter, workdir: Path):
        self.counter = counter
        self.tmp = Path(tempfile.mkdtemp(prefix="cli_sweep-", dir=workdir))
        lookup = regulate.cli.get_model
        self._saved_get_model = lookup
        # The CLI looks its plants up here; the counted copy makes the
        # transition count exact for CLI runs too.
        regulate.cli.get_model = lambda name: counted_spec(lookup(name), counter)
        self.ops = []
        for i, config in enumerate(sweep_configs(seed)):
            path = self.tmp / f"config-{i:03d}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            bounds = reference.DEFAULT_BOUNDS[config["model"]]
            case = reference.Case(
                config["model"], np.array(config["theta_true"]), np.array(config["x0"]),
                np.array(reference.DEFAULT_EXCITATION[config["model"]], dtype=float),
                config["algorithm"], config.get("tol_exact", config.get("eps_fin")), *bounds,
            )
            self.ops.append((path, self.tmp / f"out-{i:03d}", case))

    @staticmethod
    def _main(*argv) -> tuple:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = regulate.cli.main(list(argv))
        return code, captured.getvalue()

    def warm_up(self) -> None:
        """The round's first operation once, untimed and unchecked."""
        path, out, _ = self.ops[0]
        self._main("run", "--config", str(path), "--out", str(out))
        self._main("verify", "--config", str(path), "--out", str(out))

    def run(self, op) -> OpResult:
        path, out, case = op
        before = self.counter.count
        start = time.perf_counter()
        run_code, _ = self._main("run", "--config", str(path), "--out", str(out))
        transitions = self.counter.count - before
        verify_code, printed = self._main("verify", "--config", str(path), "--out", str(out))
        seconds = time.perf_counter() - start
        if run_code != 0:
            raise RuntimeError(f"{path.name}: run exited {run_code}")
        if verify_code != 0:
            raise reference.CheckFailed(f"{path.name}: verify exited {verify_code}: {printed.strip()}")
        logged = reference.read_cli_log(case, out)
        reference.check_run(case, logged)
        written = sum(f.stat().st_size for f in out.iterdir())
        return OpResult(
            seconds, transitions, reference.steps_to_target(case, logged.states),
            len(logged.blocks), _retries(out), written,
        )

    def close(self) -> None:
        regulate.cli.get_model = self._saved_get_model
        shutil.rmtree(self.tmp, ignore_errors=True)


def _retries(out: Path) -> int:
    lines = (out / "blocks.csv").read_text(encoding="utf-8").splitlines()[1:]
    return sum(int(line.rsplit(",", 1)[1]) for line in lines)


def build(name: str, seed: int, counter: TransitionCounter, workdir: Path, wrap=None):
    """Set up a workload: plants looked up, inputs made from the seed."""
    if name == "long_history_inexact":
        return LongHistory(seed, counter, wrap)
    if name == "cli_sweep":
        return CliSweep(seed, counter, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
