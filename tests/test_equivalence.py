"""The replay primitives and the block loop against their reference versions.

``simulate`` checks its arguments once per call, the short blocks of
``terminal_map``, ``jacobian_input`` and ``synthesize`` run through the step
loop ``_advance`` without a ``simulate`` call, and ``fd_jacobian`` skips the
centre point a central difference never uses. ``run_exact`` and
``run_inexact`` share one block loop over a run log kept as an
``ObservationHistory``. ``box_gauss_newton``, ``estimate`` and
``inclusion_check`` skip evaluations whose outcome they already hold. All of
them must reproduce the straightforward versions kept here bit for bit: every
state, Jacobian entry, solver result, block record, exception and CSV byte.
"""

import dataclasses
import importlib
import json
import warnings

import numpy as np
import pytest

import regulate.cli
import regulate.plant as plant
from regulate import (
    BlockRecord,
    Infeasible,
    MaxBlocksExceeded,
    MaxInnerRetriesExceeded,
    NotConverged,
    ObservationHistory,
    RegulatorSchedule,
    RunOutcome,
    SolverOptions,
    SynthesisBounds,
    estimate,
    excitation_rank_check,
    get_model,
    inclusion_check,
    run_exact,
    run_inexact,
    schedule_step,
    simulate,
    synthesize,
)
from regulate.estimator import MULTISTART_GRID, EstimateResult, _lex_key, residual_vector
from regulate.gauss_newton import MAX_ITERS, MIN_STEP, POLISH_ITERS, GaussNewtonResult, box_gauss_newton
from regulate.plant import InputSequence, StateSequence, _vector, as_inputs
from regulate.regulator import PROBE_COUNT, SAFETY
from regulate.synthesis import ControlPlan

PLANTS = ("scalar_linear", "affine_2d", "bilinear_scalar")

# theta_true and x0 of the end-to-end runs: stable enough that a 200-step
# random tail stays bounded.
CASES = {
    "scalar_linear": ([0.8], [1.0]),
    "affine_2d": ([0.5, 0.25], [1.0, 0.0]),
    "bilinear_scalar": ([0.8, 0.3], [1.0]),
}


def reference_simulate(model, x0, u_seq, theta):
    """Every transition through ``step``, which checks x, u and theta."""
    x0 = _vector(x0, model.state_dim, "initial state")
    out = np.empty((len(u_seq) + 1, model.state_dim))
    out[0] = x0
    x = x0
    for i in range(len(u_seq)):
        x = plant.step(model, x, u_seq.inputs[i], theta)
        out[i + 1] = x
    return StateSequence(u_seq.start_time, out)


def reference_advance(model, x, inputs, theta, out=None):
    """The block's states from ``reference_simulate``; returns the last one."""
    states = reference_simulate(model, x, InputSequence(0, inputs), theta).states
    if out is not None:
        out[:] = states[1:]
    return states[-1]


def reference_fd_jacobian(func, x, step_size=1e-6, lower=None, upper=None):
    """Central differences, sized from an evaluation at the centre."""
    if step_size <= 0:
        raise ValueError("step_size must be positive")
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(func(x), dtype=float).ravel()
    jac = np.zeros((f0.size, x.size))
    for i in range(x.size):
        h = step_size * max(1.0, abs(x[i]))
        hi_pt = x[i] + h
        lo_pt = x[i] - h
        if upper is not None:
            hi_pt = min(hi_pt, upper[i])
        if lower is not None:
            lo_pt = max(lo_pt, lower[i])
        denom = hi_pt - lo_pt
        if denom == 0.0:
            continue
        xp = x.copy()
        xp[i] = hi_pt
        xm = x.copy()
        xm[i] = lo_pt
        fp = np.asarray(func(xp), dtype=float).ravel()
        fm = np.asarray(func(xm), dtype=float).ravel()
        jac[:, i] = (fp - fm) / denom
    return jac


LOOKUP_MODULES = (
    "regulate.plant",
    "regulate.estimator",
    "regulate.regulator",
    "regulate.synthesis",
    "regulate.cli",
)
REFERENCES = {"simulate": reference_simulate, "_advance": reference_advance, "fd_jacobian": reference_fd_jacobian}


def install_references(monkeypatch) -> set:
    """Put the references in at every name the library looks them up by."""
    patched = set()
    for module_name in LOOKUP_MODULES:
        module = importlib.import_module(module_name)
        for attr, reference in REFERENCES.items():
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, reference)
                patched.add(f"{module_name}.{attr}")
    return patched


def assert_same(new, ref, what):
    if ref is None:
        assert new is None, what
    else:
        assert np.array_equal(np.asarray(new), np.asarray(ref), equal_nan=True), what


def test_references_cover_every_lookup_name(monkeypatch):
    # A new import of any of them elsewhere must join this list, or the
    # end-to-end cases below would run it unreplaced.
    assert install_references(monkeypatch) == {
        "regulate.plant.simulate",
        "regulate.plant._advance",
        "regulate.plant.fd_jacobian",
        "regulate.regulator.simulate",
        "regulate.regulator.fd_jacobian",
        "regulate.synthesis.simulate",
        "regulate.cli.simulate",
    }


def test_simulate_no_longer_goes_through_step(monkeypatch):
    calls = []
    step = plant.step
    monkeypatch.setattr(plant, "step", lambda *args: calls.append(1) or step(*args))
    model = get_model("bilinear_scalar").model
    u_seq = InputSequence(0, np.array([[0.1], [0.2], [0.3]]))
    plant.jacobian_theta(model, [1.0], u_seq, [0.8, 0.3])
    assert calls == []
    with monkeypatch.context() as m:
        install_references(m)
        plant.jacobian_theta(model, [1.0], u_seq, [0.8, 0.3])
    assert len(calls) == 5 * len(u_seq)  # the centre and four stencil points


def _primitive_cases(model, rng):
    """Random states, inputs and parameters, with parameters on the box's
    faces so that the stencils are clipped one-sided."""
    lo, hi = model.param_lower, model.param_upper
    thetas = [rng.uniform(lo, hi) for _ in range(6)]
    thetas += [lo.copy(), hi.copy(), np.where(rng.random(lo.size) < 0.5, lo, hi)]
    cases = []
    for theta in thetas:
        T = int(rng.integers(1, 40))
        horizon = int(rng.integers(1, 4))
        cases.append((
            rng.uniform(-2.0, 2.0, model.state_dim),
            InputSequence(0, rng.uniform(-1.0, 1.0, (T, model.input_dim))),
            InputSequence(T, rng.uniform(-1.0, 1.0, (horizon, model.input_dim))),
            theta,
        ))
    return cases


def _primitives(model, cases):
    out = []
    for x0, hist, block, theta in cases:
        out.append({
            "simulate": plant.simulate(model, x0, hist, theta).states,
            "stacked_map": plant.stacked_map(model, x0, hist, theta),
            "terminal_map": plant.terminal_map(model, x0, hist, block, theta),
            "jacobian_theta": plant.jacobian_theta(model, x0, hist, theta),
            "jacobian_input": plant.jacobian_input(model, x0, block, theta),
        })
    return out


def _models(name):
    """The plant, and for two parameters a copy with the first one pinned."""
    model = get_model(name).model
    models = [model]
    if model.param_dim == 2:
        box = model.param_box.copy()
        box[0, 1] = box[0, 0]
        models.append(dataclasses.replace(model, param_box=box))
    return models


@pytest.mark.parametrize("name", PLANTS)
def test_primitives_match_reference(name, monkeypatch):
    rng = np.random.default_rng([14, PLANTS.index(name)])
    for model in _models(name):
        cases = _primitive_cases(model, rng)
        new = _primitives(model, cases)
        with monkeypatch.context() as m:
            install_references(m)
            ref = _primitives(model, cases)
        for i, (a, b) in enumerate(zip(new, ref)):
            for key in a:
                assert_same(a[key], b[key], f"{name} case {i}: {key}")


def test_overflowing_replay_matches_reference(monkeypatch):
    # The estimator replays unstable guesses; inf and nan must come out alike.
    model = get_model("scalar_linear").model
    hist = InputSequence(0, np.full((1200, 1), 0.5))
    with np.errstate(all="ignore"):
        new = (plant.stacked_map(model, [1.0], hist, [2.0]), plant.jacobian_theta(model, [1.0], hist, [1.9]))
        with monkeypatch.context() as m:
            install_references(m)
            ref = (plant.stacked_map(model, [1.0], hist, [2.0]), plant.jacobian_theta(model, [1.0], hist, [1.9]))
    assert not np.all(np.isfinite(new[0]))
    assert_same(new[0], ref[0], "stacked_map")
    assert_same(new[1], ref[1], "jacobian_theta")


@pytest.mark.parametrize("name", PLANTS)
def test_predicted_error_is_the_full_replay(name):
    # synthesize reuses its replay of the history; terminal_map replays it again.
    spec = get_model(name)
    model = spec.model
    rng = np.random.default_rng([14, 3, PLANTS.index(name)])
    theta_true, x0 = CASES[name]
    for _ in range(5):
        inputs = rng.uniform(-0.3, 0.3, (int(rng.integers(0, 30)), model.input_dim))
        states = plant.simulate(model, x0, InputSequence(0, inputs), theta_true).states
        history = ObservationHistory(x0, InputSequence(0, inputs), StateSequence(1, states[1:]))
        theta = model.clip_params(theta_true + rng.normal(0.0, 0.05, model.param_dim))
        bounds = SynthesisBounds(spec.bounds.max_horizon, 10.0)
        plan = synthesize(model, history, theta, bounds, 1e-9, seed=int(rng.integers(100)))
        full = plant.terminal_map(model, history.x0, history.applied_inputs, plan.block, theta)
        assert plan.predicted_terminal_error == float(np.linalg.norm(full - model.target))


def _config(name, algorithm):
    spec = get_model(name)
    theta_true, x0 = CASES[name]
    config = {"model": name, "theta_true": theta_true, "x0": x0, "algorithm": algorithm, "seed": 5}
    if algorithm == "inexact":
        rho = spec.bounds.max_amplitude
        tail = np.random.default_rng([14, PLANTS.index(name)]).uniform(
            -rho / 2, rho / 2, (200, spec.model.input_dim))
        config["excitation"] = np.vstack([spec.excitation.inputs, tail]).tolist()
        config.update(beta=0.5, mu0=1.0, kappa0=1.0, eps_fin=1e-3)
    return config


def _run_cli(tmp_path, config, tag, monkeypatch):
    """One CLI run; returns the RunOutcome it logged and the log files."""
    outcomes = []
    for attr in ("run_exact", "run_inexact"):
        runner = getattr(regulate.cli, attr)

        def recorded(*args, _runner=runner, **kwargs):
            outcome = _runner(*args, **kwargs)
            outcomes.append(outcome)
            return outcome

        monkeypatch.setattr(regulate.cli, attr, recorded)
    config_path = tmp_path / f"{tag}.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / tag
    assert regulate.cli.main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.jsonl").read_text(encoding="utf-8"))
    del summary["wall_time"]
    logs = {name: (out / name).read_bytes() for name in ("trajectory.csv", "blocks.csv")}
    return outcomes[0], logs, summary


def _outcome_arrays(outcome):
    arrays = {
        "terminated": outcome.terminated,
        "trajectory": outcome.trajectory.states,
        "inputs": outcome.inputs.inputs,
        "final_error": outcome.final_error,
    }
    for rec in outcome.blocks:
        for field in dataclasses.fields(rec):
            value = getattr(rec, field.name)
            if isinstance(value, InputSequence):
                arrays[f"block {rec.index} {field.name}.start_time"] = value.start_time
                value = value.inputs
            arrays[f"block {rec.index} {field.name}"] = value
    return arrays


@pytest.mark.parametrize("algorithm", ["exact", "inexact"])
@pytest.mark.parametrize("name", PLANTS)
def test_end_to_end_matches_reference(name, algorithm, tmp_path, monkeypatch):
    config = _config(name, algorithm)
    with monkeypatch.context() as m:
        outcome, logs, summary = _run_cli(tmp_path, config, "new", m)
    with monkeypatch.context() as m:
        install_references(m)
        ref_outcome, ref_logs, ref_summary = _run_cli(tmp_path, config, "ref", m)
    assert outcome.blocks, "the run must apply at least one block"
    new, ref = _outcome_arrays(outcome), _outcome_arrays(ref_outcome)
    assert new.keys() == ref.keys()
    for key in new:
        assert_same(new[key], ref[key], key)
    assert logs == ref_logs
    assert summary == ref_summary


# The two block loops as they were before they became one, with the run log
# that kept the trajectory as Python lists of rows.


class ReferenceRunLog:
    """Accumulates the true-plant trajectory, applied inputs, and block records."""

    def __init__(self, model, theta_true, x0, excitation):
        self.model = model
        self.theta_true = np.asarray(theta_true, dtype=float)
        seq = simulate(model, x0, excitation, theta_true)
        self.states = [seq.states[i] for i in range(len(seq))]
        self.input_rows = [excitation.inputs[i] for i in range(len(excitation))]
        self.blocks = []

    @property
    def time(self) -> int:
        return len(self.states) - 1

    @property
    def x(self) -> np.ndarray:
        return self.states[-1]

    @property
    def error(self) -> float:
        return float(np.linalg.norm(self.x - self.model.target))

    def history(self) -> ObservationHistory:
        inputs = np.array(self.input_rows).reshape(len(self.input_rows), self.model.input_dim)
        observed = np.array(self.states[1:]).reshape(len(self.states) - 1, self.model.state_dim)
        return ObservationHistory(
            self.states[0], InputSequence(0, inputs), StateSequence(1, observed)
        )

    def apply(self, block):
        seg = simulate(self.model, self.x, block, self.theta_true)
        for i in range(1, len(seg)):
            self.states.append(seg.states[i])
        for i in range(len(block)):
            self.input_rows.append(block.inputs[i])
        return seg.states[-1]

    def outcome(self, terminated: bool) -> RunOutcome:
        states = np.array(self.states).reshape(len(self.states), self.model.state_dim)
        inputs = np.array(self.input_rows).reshape(len(self.input_rows), self.model.input_dim)
        return RunOutcome(
            terminated,
            tuple(self.blocks),
            StateSequence(0, states),
            InputSequence(0, inputs),
            self.error,
        )


def reference_prepare(model, theta_true, x0, u_exc):
    excitation = as_inputs(u_exc, model.input_dim, start_time=0)
    report = excitation_rank_check(model, excitation, [(np.asarray(x0, float), np.asarray(theta_true, float))])
    if not report.passed:
        warnings.warn(
            "excitation fails the identifiability rank check at the initial state; "
            "parameter estimates may be ambiguous",
            stacklevel=3,
        )
    return ReferenceRunLog(model, theta_true, x0, excitation)


def reference_abort(err_cls, message, log):
    err = err_cls(message, log.outcome(False))
    return err


def reference_run_exact(
    model, theta_true, x0, u_exc, *, bounds_fn, tol_exact=1e-10,
    solver=SolverOptions(), max_blocks=50,
):
    if tol_exact <= 0:
        raise ValueError("tol_exact must be positive")
    log = reference_prepare(model, theta_true, x0, u_exc)
    seed_rng = np.random.default_rng(solver.seed)
    theta_guess = 0.5 * (model.param_lower + model.param_upper)
    k = 1
    while True:
        if log.error <= tol_exact:
            return log.outcome(True)
        if len(log.blocks) >= max_blocks:
            raise reference_abort(MaxBlocksExceeded, f"{max_blocks} blocks without termination", log)
        history = log.history()
        try:
            est = estimate(model, history, theta_guess, tol_exact)
            plan = synthesize(
                model, history, est.theta, bounds_fn(log.x), tol_exact,
                int(seed_rng.integers(2**63)),
            )
        except (NotConverged, Infeasible) as err:
            err.block_index = k
            err.partial_outcome = log.outcome(False)
            raise
        start_time = log.time
        x_end = log.apply(plan.block)
        log.blocks.append(
            BlockRecord(
                k, start_time, est.theta, None, None, plan.horizon, plan.block,
                x_end, est.residual, 0,
            )
        )
        theta_guess = est.theta
        k += 1


def reference_run_inexact(
    model, theta_true, x0, u_exc, schedule0, *, bounds_fn,
    solver=SolverOptions(), max_blocks=50, max_inner_retries=60,
):
    log = reference_prepare(model, theta_true, x0, u_exc)
    seed_rng = np.random.default_rng(solver.seed)
    beta = schedule0.beta
    eps_fin = schedule0.eps_fin
    mu_prev = schedule0.mu
    kappa = schedule0.kappa
    theta_guess = 0.5 * (model.param_lower + model.param_upper)
    k = 1
    while True:
        if log.error < eps_fin:
            return log.outcome(True)
        if len(log.blocks) >= max_blocks:
            raise reference_abort(MaxBlocksExceeded, f"{max_blocks} blocks without termination", log)
        mu, kappa = schedule_step(mu_prev, kappa, beta)
        history = log.history()
        bounds_k = bounds_fn(log.x)
        retries = 0
        while True:
            try:
                est = estimate(model, history, theta_guess, mu)
                plan = synthesize(
                    model, history, est.theta, bounds_k, 0.5 * eps_fin,
                    int(seed_rng.integers(2**63)),
                )
            except (NotConverged, Infeasible) as err:
                err.block_index = k
                err.partial_outcome = log.outcome(False)
                raise
            theta_guess = est.theta
            if inclusion_check(
                model, history, est.theta, plan, kappa * mu, 0.5 * eps_fin,
                int(seed_rng.integers(2**63)),
            ):
                break
            retries += 1
            if retries > max_inner_retries:
                raise reference_abort(
                    MaxInnerRetriesExceeded,
                    f"inclusion check failed {retries} times in block {k}",
                    log,
                )
            mu = beta * mu
        start_time = log.time
        x_end = log.apply(plan.block)
        log.blocks.append(
            BlockRecord(
                k, start_time, est.theta, mu, kappa, plan.horizon, plan.block,
                x_end, est.residual, retries,
            )
        )
        mu_prev = mu
        k += 1


def _both_loops(name, algorithm, *, theta_true=None, x0=None, tail=0, bounds=None,
                schedule=RegulatorSchedule(0.5, 1.0, 1.0, 1e-3), library_only=False, **options):
    """The outcome, or the exception raised, of the library loop and of the
    reference (unless ``library_only``)."""
    spec = get_model(name)
    model = spec.model
    case_theta, case_x0 = CASES[name]
    excitation = spec.excitation.inputs
    if tail:
        rho = spec.bounds.max_amplitude
        rng = np.random.default_rng([18, PLANTS.index(name), tail])
        excitation = np.vstack([excitation, rng.uniform(-rho / 2, rho / 2, (tail, model.input_dim))])
    args = (model, case_theta if theta_true is None else theta_true, case_x0 if x0 is None else x0, excitation)
    if algorithm == "inexact":
        args += (schedule,)
    options["bounds_fn"] = lambda _x: spec.bounds if bounds is None else bounds
    runs = {
        "exact": (run_exact, reference_run_exact),
        "inexact": (run_inexact, reference_run_inexact),
    }[algorithm]
    results = []
    for runner in runs[:1] if library_only else runs:
        try:
            results.append(runner(*args, solver=SolverOptions(seed=5), **options))
        except Exception as err:
            results.append(err)
    return results


def assert_same_outcome(new, ref):
    new, ref = _outcome_arrays(new), _outcome_arrays(ref)
    assert new.keys() == ref.keys()
    for key in new:
        assert_same(new[key], ref[key], key)


def assert_same_failure(new, ref, error_type):
    assert type(new) is error_type and type(ref) is error_type, (new, ref)
    assert str(new) == str(ref)
    assert getattr(new, "block_index", None) == getattr(ref, "block_index", None)
    assert_same_outcome(new.partial_outcome, ref.partial_outcome)


# (exact-mode options, inexact-mode options) of the runs that terminate.
LOOP_CASES = {
    "default excitation": ({}, {}),
    "30-step tail": ({"tail": 30}, {"tail": 30}),
    "tight tolerances": ({"tol_exact": 1e-12}, {"schedule": RegulatorSchedule(0.5, 1.0, 1e-6, 1e-3)}),
}


@pytest.mark.parametrize("case", LOOP_CASES)
@pytest.mark.parametrize("algorithm", ["exact", "inexact"])
@pytest.mark.parametrize("name", PLANTS)
def test_block_loop_matches_reference(name, algorithm, case):
    options = LOOP_CASES[case][algorithm == "inexact"]
    new, ref = _both_loops(name, algorithm, **options)
    assert isinstance(new, RunOutcome) and new.terminated, new
    assert_same_outcome(new, ref)


@pytest.mark.filterwarnings("ignore:excitation fails")
@pytest.mark.parametrize("algorithm", ["exact", "inexact"])
def test_unidentified_start_matches_reference(algorithm):
    # From x0 = 0 the excitation leaves theta unidentified, so the first
    # block misses and the history grows across blocks.
    new, ref = _both_loops("bilinear_scalar", algorithm, x0=[0.0])
    assert len(new.blocks) >= 2
    assert_same_outcome(new, ref)


@pytest.mark.filterwarnings("ignore:excitation fails")
@pytest.mark.parametrize("algorithm", ["exact", "inexact"])
@pytest.mark.parametrize("max_blocks", [0, 1])
def test_block_cap_matches_reference(algorithm, max_blocks):
    new, ref = _both_loops("bilinear_scalar", algorithm, x0=[0.0], max_blocks=max_blocks)
    assert_same_failure(new, ref, MaxBlocksExceeded)
    assert len(new.partial_outcome.blocks) == max_blocks


def test_inner_retry_cap_matches_reference():
    new, ref = _both_loops("bilinear_scalar", "inexact", max_inner_retries=2)
    assert_same_failure(new, ref, MaxInnerRetriesExceeded)


@pytest.mark.parametrize("algorithm", ["exact", "inexact"])
def test_infeasible_block_matches_reference(algorithm):
    new, ref = _both_loops("scalar_linear", algorithm, theta_true=[2.0], bounds=SynthesisBounds(1, 0.1))
    assert_same_failure(new, ref, Infeasible)
    assert new.block_index == 1


@pytest.mark.parametrize("runner", [run_exact, run_inexact])
def test_rank_check_warning_names_the_caller(runner):
    spec = get_model("scalar_linear")
    args = (spec.model, [0.8], [0.0], as_inputs([0.0], 1))
    if runner is run_inexact:
        args += (RegulatorSchedule(0.5, 1.0, 1.0, 1e-3),)
    with pytest.warns(UserWarning, match="rank check") as record:
        runner(*args, bounds_fn=lambda _x: spec.bounds)
    assert [w.filename for w in record] == [__file__]


# The solvers as they were before their work cuts: every line-search
# candidate is evaluated, the grid start equal to the first start runs again,
# and the inclusion check runs its probes before its Lipschitz test.

def reference_box_gauss_newton(residual, jacobian, x0, lower, upper, tol):
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    r = np.asarray(residual(x), dtype=float)
    cost = float(np.linalg.norm(r))
    iters = 0
    if cost <= tol:
        return GaussNewtonResult(x, cost, iters, True)
    polish = POLISH_ITERS
    while iters < MAX_ITERS:
        jac = np.asarray(jacobian(x), dtype=float)
        if not np.all(np.isfinite(jac)):
            break
        try:
            direction, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(direction)) or not np.any(direction):
            break
        alpha = 1.0
        moved = False
        while alpha >= MIN_STEP:
            cand = np.clip(x + alpha * direction, lower, upper)
            rc = np.asarray(residual(cand), dtype=float)
            cc = float(np.linalg.norm(rc))
            if cc < cost and np.any(cand != x):
                x, r, cost = cand, rc, cc
                moved = True
                break
            alpha *= 0.5
        iters += 1
        if not moved:
            break
        if cost <= tol:
            if polish <= 0:
                break
            polish -= 1
    return GaussNewtonResult(x, cost, iters, cost <= tol)


def reference_estimate(model, history, theta_init, tol):
    if tol <= 0:
        raise ValueError("tol must be positive")
    theta_init = _vector(theta_init, model.param_dim, "theta_init")
    if not model.contains_params(theta_init, atol=1e-12):
        raise ValueError("theta_init must lie inside the parameter box")

    def res(th):
        return residual_vector(model, history, th)

    def jac(th):
        return plant.jacobian_theta(model, history.x0, history.applied_inputs, th)

    lower, upper = model.param_lower, model.param_upper
    best = reference_box_gauss_newton(res, jac, theta_init, lower, upper, tol)
    total_iters = best.iterations
    if best.residual_norm > tol:
        for start in plant.param_grid(model, MULTISTART_GRID):
            run = reference_box_gauss_newton(res, jac, start, lower, upper, tol)
            total_iters += run.iterations
            if run.residual_norm < best.residual_norm or (
                run.residual_norm == best.residual_norm and _lex_key(run.x) < _lex_key(best.x)
            ):
                best = run
    if best.residual_norm <= tol:
        return EstimateResult(best.x, best.residual_norm, total_iters, True)
    raise NotConverged(
        f"best residual {best.residual_norm:.3e} above tolerance {tol:.3e} "
        f"after {total_iters} iterations over all starts",
        EstimateResult(best.x, best.residual_norm, total_iters, False),
    )


def reference_inclusion_check(model, history, theta, plan, radius, bound, seed=0):
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if not bound > 0:
        raise ValueError("bound must be positive")
    if radius == 0.0:
        return True
    theta = np.asarray(theta, dtype=float)

    def terminal(th):
        return plant.terminal_map(model, history.x0, history.applied_inputs, plan.block, th)

    def spectral(th):
        jac = plant.fd_jacobian(terminal, th, lower=model.param_lower, upper=model.param_upper)
        sv = np.linalg.svd(jac, compute_uv=False)
        return float(sv[0]) if sv.size else 0.0

    nominal = terminal(theta)
    lipschitz = spectral(theta)
    rng = np.random.default_rng(seed)
    n = model.param_dim
    for _ in range(PROBE_COUNT):
        direction = rng.standard_normal(n)
        length = float(np.linalg.norm(direction))
        if length == 0.0:
            continue
        point = theta + direction / length * (radius * rng.uniform() ** (1.0 / n))
        # Clipping to the box cannot leave the ball: the box contains theta.
        point = model.clip_params(point)
        lipschitz = max(lipschitz, spectral(point))
        if float(np.linalg.norm(terminal(point) - nominal)) >= bound:
            return False
    return lipschitz * radius * SAFETY <= bound


def bits(value):
    """The raw bits of a float or float array: the sign of zero and every NaN count."""
    return np.asarray(value, dtype=float).view(np.int64)


def assert_same_bits(new, ref, what):
    assert np.array_equal(bits(new), bits(ref)), (what, new, ref)


def _result_or_error(call):
    with np.errstate(all="ignore"):
        try:
            return call()
        except Exception as err:  # the exception is the call's result
            return err


def assert_same_solver_result(new, ref, what):
    """Equal bits of every field, or the same exception with the same message
    and, for NotConverged, the same best attempt."""
    if isinstance(ref, Exception):
        assert type(new) is type(ref) and str(new) == str(ref), (what, new, ref)
        if isinstance(ref, NotConverged):
            assert_same_solver_result(new.best, ref.best, what)
        return
    assert type(new) is type(ref), (what, new, ref)
    for field in dataclasses.fields(ref):
        a, b = getattr(new, field.name), getattr(ref, field.name)
        if isinstance(b, (bool, int)):
            assert a == b, (what, field.name, a, b)
        else:
            assert_same_bits(a, b, (what, field.name))


def _box_starts(model, rng):
    """The box midpoint, its two corners, a mixed corner and an inside point."""
    lo, hi = model.param_lower, model.param_upper
    return [0.5 * (lo + hi), lo.copy(), hi.copy(), np.where(rng.random(lo.size) < 0.5, lo, hi),
            rng.uniform(lo, hi)]


def _history(model, rng, T, theta, x0=None, amplitude=1.0, noise=0.0):
    x0 = rng.uniform(-2.0, 2.0, model.state_dim) if x0 is None else np.asarray(x0, float)
    inputs = InputSequence(0, rng.uniform(-amplitude, amplitude, (T, model.input_dim)))
    states = plant.simulate(model, x0, inputs, theta).states[1:]
    states = states + noise * rng.standard_normal(states.shape)
    return ObservationHistory(x0, inputs, StateSequence(1, states))


def _estimation_cases(name, rng):
    """(history, tolerance) pairs: short random histories, exact and noisy, and
    an 800-step tail whose replays overflow from the unstable end of the box."""
    spec = get_model(name)
    model = spec.model
    lo, hi = model.param_lower, model.param_upper
    cases = []
    for noise in (0.0, 0.0, 0.05):
        T = int(rng.integers(1, 40))
        cases.append((_history(model, rng, T, rng.uniform(lo, hi), noise=noise), 1e-8))
    theta_true, x0 = CASES[name]
    long_tail = _history(model, rng, 800, theta_true, x0, spec.bounds.max_amplitude / 2)
    cases.append((long_tail, 1e-3))
    return cases


@pytest.mark.parametrize("name", PLANTS)
def test_estimate_matches_reference(name):
    rng = np.random.default_rng([22, PLANTS.index(name)])
    model = get_model(name).model
    for i, (history, tol) in enumerate(_estimation_cases(name, rng)):
        for j, start in enumerate(_box_starts(model, rng)[: 5 if history.horizon < 800 else 2]):
            new = _result_or_error(lambda: estimate(model, history, start, tol))
            ref = _result_or_error(lambda: reference_estimate(model, history, start, tol))
            assert_same_solver_result(new, ref, f"{name} case {i} start {j}")


def _pinned_problems():
    """Least-squares problems whose Gauss-Newton step leaves the box, so
    clipping pins the candidate to x or to a corner for many halvings."""
    lower, upper = np.zeros(2), np.ones(2)
    yield (lambda x: x - 5.0), (lambda x: np.eye(2)), np.ones(2), lower, upper
    yield (lambda x: x - np.array([5.0, 0.5])), (lambda x: np.eye(2)), np.array([1.0, 0.0]), lower, upper
    yield ((lambda x: np.array([x[0] ** 2 - 3.0, x[0] * x[1] - 4.0])),
           (lambda x: np.array([[2 * x[0], 0.0], [x[1], x[0]]])), np.array([0.5, 0.5]), lower, upper)


def _gauss_newton_problems(name, rng):
    """The estimator's least-squares problems from the box starts."""
    model = get_model(name).model
    for history, tol in _estimation_cases(name, rng):
        def res(th, history=history):
            return residual_vector(model, history, th)

        def jac(th, history=history):
            return plant.jacobian_theta(model, history.x0, history.applied_inputs, th)

        for start in _box_starts(model, rng)[: 5 if history.horizon < 800 else 1]:
            yield res, jac, start, model.param_lower, model.param_upper, tol


@pytest.mark.parametrize("name", PLANTS)
def test_gauss_newton_matches_reference(name):
    rng = np.random.default_rng([22, 1, PLANTS.index(name)])
    problems = list(_gauss_newton_problems(name, rng))
    if name == "scalar_linear":
        problems += [problem + (1e-12,) for problem in _pinned_problems()]
    for i, problem in enumerate(problems):
        new = _result_or_error(lambda: box_gauss_newton(*problem))
        ref = _result_or_error(lambda: reference_box_gauss_newton(*problem))
        assert_same_solver_result(new, ref, f"{name} problem {i}")


def _lipschitz_at(model, history, plan, theta) -> float:
    """The spectral norm of the terminal map's parameter Jacobian at theta."""
    def terminal(th):
        return plant.terminal_map(model, history.x0, history.applied_inputs, plan.block, th)

    with np.errstate(all="ignore"):
        jac = plant.fd_jacobian(terminal, theta, lower=model.param_lower, upper=model.param_upper)
        return float(np.linalg.svd(jac, compute_uv=False)[0]) if np.all(np.isfinite(jac)) else np.nan


def _inclusion_cases(name, rng):
    """(history, theta, plan, radius, bound, seed) with theta at the midpoint,
    on the faces and inside the box, radii from 0 to beyond the box, bounds
    drawn at random and at and around the Lipschitz test's threshold, and
    histories short, empty and long enough to overflow."""
    spec = get_model(name)
    model = spec.model
    theta_true, x0 = CASES[name]
    histories = [_history(model, rng, int(rng.integers(0, 30)), theta_true) for _ in range(3)]
    histories.append(_history(model, rng, 800, theta_true, x0, spec.bounds.max_amplitude / 2))
    cases = []
    for history in histories:
        horizon = int(rng.integers(1, spec.bounds.max_horizon + 1))
        block = InputSequence(history.horizon, rng.uniform(-1.0, 1.0, (horizon, model.input_dim)))
        plan = ControlPlan(horizon, block, 0.0)
        for theta in _box_starts(model, rng)[: 5 if history.horizon < 800 else 2]:
            lipschitz = _lipschitz_at(model, history, plan, theta)
            for radius in (0.0, 10.0 ** rng.uniform(-9, -4), 10.0 ** rng.uniform(-4, 0)):
                threshold = lipschitz * radius * SAFETY
                bounds = [10.0 ** rng.uniform(-6, 0)]
                if 0.0 < threshold < np.inf and history.horizon < 800:
                    bounds += [threshold, np.nextafter(threshold, np.inf), threshold * 1.3]
                for bound in bounds:
                    cases.append((history, theta, plan, radius, bound, int(rng.integers(2**63))))
    cases += [cases[0][:3] + (-1.0, 1.0, 0), cases[0][:3] + (1.0, 0.0, 0)]
    return cases


@pytest.mark.parametrize("name", PLANTS)
def test_inclusion_check_matches_reference(name):
    rng = np.random.default_rng([22, 2, PLANTS.index(name)])
    model = get_model(name).model
    results = []
    for i, case in enumerate(_inclusion_cases(name, rng)):
        new = _result_or_error(lambda: inclusion_check(model, *case))
        ref = _result_or_error(lambda: reference_inclusion_check(model, *case))
        if isinstance(ref, Exception):
            assert type(new) is type(ref) and str(new) == str(ref), (i, new, ref)
        else:
            assert new is ref, (name, i, new, ref)
        results.append(new)
    # Both outcomes and both argument errors occur.
    assert True in results and False in results
    assert sum(isinstance(r, ValueError) for r in results) == 2


SOLVER_REFERENCES = {
    "regulate.estimator.box_gauss_newton": reference_box_gauss_newton,
    "regulate.synthesis.box_gauss_newton": reference_box_gauss_newton,
    "regulate.regulator.estimate": reference_estimate,
    "regulate.regulator.inclusion_check": reference_inclusion_check,
}


@pytest.mark.parametrize("algorithm", ["exact", "inexact"])
@pytest.mark.parametrize("name", PLANTS)
def test_block_loop_matches_reference_solvers(name, algorithm, monkeypatch):
    # A run after a 200-step tail gives every cut its work: stalled starts,
    # pinned line searches and failing inclusion checks.
    [new] = _both_loops(name, algorithm, tail=200, library_only=True)
    for target, reference in SOLVER_REFERENCES.items():
        module, attr = target.rsplit(".", 1)
        monkeypatch.setattr(importlib.import_module(module), attr, reference)
    [ref] = _both_loops(name, algorithm, tail=200, library_only=True)
    assert isinstance(new, RunOutcome) and new.terminated, new
    assert_same_outcome(new, ref)


def _recorded(residual, jacobian, events):
    def res(x):
        events.append(("residual", np.array(x, dtype=float)))
        return residual(x)

    def jac(x):
        events.append(("jacobian", np.array(x, dtype=float)))
        return jacobian(x)

    return res, jac


@pytest.mark.parametrize("name", PLANTS)
def test_line_search_evaluates_each_point_once(name):
    rng = np.random.default_rng([22, 3, PLANTS.index(name)])
    problems = list(_gauss_newton_problems(name, rng)) + [p + (1e-12,) for p in _pinned_problems()]
    searches = 0
    for i, (residual, jacobian, *rest) in enumerate(problems):
        events = []
        with np.errstate(all="ignore"):
            box_gauss_newton(*_recorded(residual, jacobian, events), *rest)
        # Each Jacobian evaluation at x opens one line search from x.
        x, seen = None, set()
        for kind, point in events:
            if kind == "jacobian":
                x, seen = point, {point.tobytes()}
                searches += 1
            elif x is not None:
                assert point.tobytes() not in seen, (name, i, point, x)
                seen.add(point.tobytes())
    assert searches > 0


@pytest.mark.parametrize("name", PLANTS)
def test_estimate_solves_each_start_once(name, monkeypatch):
    import regulate.estimator

    model = get_model(name).model
    rng = np.random.default_rng([22, 4, PLANTS.index(name)])
    # Noise keeps every start above the tolerance, so the whole grid runs.
    history = _history(model, rng, 20, rng.uniform(model.param_lower, model.param_upper), noise=0.05)
    starts = []
    solve = regulate.estimator.box_gauss_newton

    def recorded(residual, jacobian, x0, lower, upper, tol):
        starts.append(np.clip(np.asarray(x0, dtype=float), lower, upper).tobytes())
        return solve(residual, jacobian, x0, lower, upper, tol)

    monkeypatch.setattr(regulate.estimator, "box_gauss_newton", recorded)
    midpoint = 0.5 * (model.param_lower + model.param_upper)
    with pytest.raises(NotConverged):
        estimate(model, history, midpoint, 1e-8)
    assert len(starts) == 3 ** model.param_dim
    assert len(set(starts)) == len(starts)


@pytest.mark.parametrize("name", PLANTS)
def test_failing_inclusion_check_stops_at_the_stencil(name, monkeypatch):
    import regulate.regulator

    model = get_model(name).model
    rng = np.random.default_rng([22, 5, PLANTS.index(name)])
    history = _history(model, rng, 10, *CASES[name])
    plan = ControlPlan(1, InputSequence(10, np.full((1, model.input_dim), 0.1)), 0.0)
    calls = []
    terminal = regulate.regulator.terminal_map
    monkeypatch.setattr(regulate.regulator, "terminal_map", lambda *args: calls.append(1) or terminal(*args))
    theta = 0.5 * (model.param_lower + model.param_upper)
    assert inclusion_check(model, history, theta, plan, 1.0, 1e-9, seed=3) is False
    assert len(calls) == 2 * model.param_dim  # the central difference at theta
