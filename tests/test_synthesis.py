import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import regulate.synthesis as synthesis
from regulate import (
    DimensionMismatch,
    Infeasible,
    ObservationHistory,
    PlantModel,
    SynthesisBounds,
    controllability_rank_check,
    get_model,
    simulate,
    synthesize,
)
from regulate.plant import InputSequence, StateSequence, as_inputs, fd_jacobian, replay

SCALAR_SPEC = get_model("scalar_linear")
AFFINE_SPEC = get_model("affine_2d")


def blank_history(model, x0):
    return ObservationHistory(InputSequence(0, np.zeros((0, model.input_dim))), StateSequence(0, [x0]))


def recorded_history(model, x0, inputs, theta_true):
    u = as_inputs(inputs, model.input_dim)
    return ObservationHistory(u, simulate(model, x0, u, theta_true))


class TestSynthesize:
    def test_scalar_one_step_deadbeat(self):
        # History puts the prediction at x(T_k)=1.3 under theta=0.8; the
        # one-step cancel is u = -0.8*1.3 = -1.04.
        model = SCALAR_SPEC.model
        hist = recorded_history(model, [1.0], [0.5], [0.8])
        plan = synthesize(model, hist, [0.8], SCALAR_SPEC.bounds, tol=1e-9, seed=1)
        assert plan.horizon == 1
        assert_allclose(plan.block.inputs, [[-1.04]], atol=1e-9)
        assert plan.predicted_terminal_error < 1e-9

    def test_zero_input_when_drift_lands_on_target(self):
        # Custom target x*=1: from x=2 with theta=0.5 the free drift already
        # lands on it, so the minimum-energy block is u = 0.
        model = PlantModel(
            1, 1, 1,
            lambda x, u, th: np.array([th[0] * x[0] + u[0]]),
            [[0.25, 1.0]],
            [1.0],
        )
        plan = synthesize(model, blank_history(model, [2.0]), [0.5], SynthesisBounds(2, 3.0), tol=1e-9, seed=2)
        assert plan.horizon == 1
        assert_allclose(plan.block.inputs, [[0.0]], atol=1e-12)

    def test_affine_needs_two_steps_under_amplitude_bound(self):
        # From (1,1) the one-step cancel requires |u_1| = 1 > 0.75, so the
        # ascending search must settle on the two-step plan, and the zero-start
        # Gauss-Newton step solves the underdetermined linear system at
        # minimum input norm. Oracle: pseudoinverse of the hand-built system.
        model = AFFINE_SPEC.model
        theta = np.array([0.5, 0.25])
        x = np.array([1.0, 1.0])
        plan = synthesize(model, blank_history(model, x), theta, AFFINE_SPEC.bounds, tol=1e-9, seed=3)
        assert plan.horizon == 2
        assert plan.predicted_terminal_error < 1e-9
        # x1(2) = th1*x1 + th2*x2 + u2(0) + u1(1), x2(2) = th1*(x2 + u1(0))
        # + th2*(th1*x1 + th2*x2 + u2(0)) + u2(1); target (0,0).
        a = np.array([[0.0, 1.0, 1.0, 0.0], [theta[0], theta[1], 0.0, 1.0]])
        b = -np.array(
            [
                theta[0] * x[0] + theta[1] * x[1],
                theta[0] * x[1] + theta[1] * (theta[0] * x[0] + theta[1] * x[1]),
            ]
        )
        expected = np.linalg.pinv(a) @ b
        assert_allclose(plan.block.inputs.ravel(), expected, atol=1e-8)

    def test_bounds_hold_exactly(self):
        model = SCALAR_SPEC.model
        bounds = SynthesisBounds(2, 1.5)
        plan = synthesize(model, blank_history(model, [1.0]), [2.0], bounds, tol=1e-9, seed=4)
        assert plan.horizon <= bounds.max_horizon
        assert np.all(np.abs(plan.block.inputs) <= bounds.max_amplitude)

    def test_smallest_horizon_rule(self):
        # The returned two-step plan cannot be shortened: capping the horizon
        # at one must be infeasible at the same tolerance.
        model = AFFINE_SPEC.model
        plan = synthesize(
            model, blank_history(model, [1.0, 1.0]), [0.5, 0.25], AFFINE_SPEC.bounds, tol=1e-9, seed=5
        )
        assert plan.horizon == 2
        with pytest.raises(Infeasible):
            synthesize(
                model, blank_history(model, [1.0, 1.0]), [0.5, 0.25],
                SynthesisBounds(1, AFFINE_SPEC.bounds.max_amplitude), tol=1e-9, seed=5,
            )

    def test_infeasible_when_amplitude_too_small(self):
        model = SCALAR_SPEC.model
        with pytest.raises(Infeasible):
            synthesize(model, blank_history(model, [10.0]), [2.0], SynthesisBounds(1, 0.5), tol=1e-9, seed=6)

    def test_deterministic_given_seed(self):
        model = AFFINE_SPEC.model
        runs = [
            synthesize(model, blank_history(model, [1.0, 1.0]), [0.5, 0.25], AFFINE_SPEC.bounds, tol=1e-9, seed=77)
            for _ in range(2)
        ]
        assert runs[0].horizon == runs[1].horizon
        assert np.array_equal(runs[0].block.inputs, runs[1].block.inputs)
        assert runs[0].predicted_terminal_error == runs[1].predicted_terminal_error

    def test_controllable_along_returned_plans(self):
        for name in ("scalar_linear", "affine_2d", "bilinear_scalar"):
            spec = get_model(name)
            theta = 0.5 * (spec.model.param_lower + spec.model.param_upper)
            x = np.full(spec.model.state_dim, 1.0)
            plan = synthesize(spec.model, blank_history(spec.model, x), theta, spec.bounds, tol=1e-9, seed=8)
            assert controllability_rank_check(spec.model, x, theta, plan.block)


class TestSynthesisBounds:
    @pytest.mark.parametrize("horizon", [1.5, 4.0, True, "2", None])
    def test_max_horizon_must_be_an_integer(self, horizon):
        with pytest.raises(ValueError, match="max_horizon must be an integer"):
            SynthesisBounds(horizon, 4.0)

    def test_numpy_integer_horizon_accepted(self):
        bounds = SynthesisBounds(np.int64(2), 4.0)
        model = SCALAR_SPEC.model
        plan = synthesize(model, blank_history(model, [1.0]), [0.8], bounds, tol=1e-9, seed=1)
        assert plan.horizon == 1

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_max_horizon_must_be_positive(self, horizon):
        with pytest.raises(ValueError, match="at least 1"):
            SynthesisBounds(horizon, 4.0)

    # The starts are drawn from [-max_amplitude, max_amplitude], whose width
    # overflows to inf from 1e308 on.
    @pytest.mark.parametrize("amplitude", [0.0, float("nan"), float("inf"), 1e308])
    def test_amplitude_box_must_be_positive_and_finite(self, amplitude):
        with pytest.raises(ValueError, match="max_amplitude"):
            SynthesisBounds(2, amplitude)

    @pytest.mark.parametrize("tol", [0.0, float("nan")])
    def test_synthesis_tolerance_must_be_positive(self, tol):
        model = SCALAR_SPEC.model
        with pytest.raises(ValueError, match="tol"):
            synthesize(model, blank_history(model, [1.0]), [0.8], SCALAR_SPEC.bounds, tol=tol)


def simulate_block_end_map(model, x, theta, horizon):
    """``block_end_map`` with every evaluation through its own ``simulate`` call."""
    return lambda u: simulate(model, x, InputSequence(0, u.reshape(horizon, model.input_dim)), theta).states[-1]


def simulate_jacobian_input(model, x, block, theta):
    """``jacobian_input`` with every stencil point through its own ``simulate`` call."""
    return fd_jacobian(simulate_block_end_map(model, x, theta, len(block)), block.flat)


def counting(model):
    calls = []

    def transition(x, u, theta):
        calls.append(1)
        return model.transition(x, u, theta)

    return dataclasses.replace(model, transition=transition), calls


def bits(arr):
    return np.ascontiguousarray(arr, dtype=float).view(np.int64)


def _plan_or_error(model, history, theta, bounds, seed):
    try:
        plan = synthesize(model, history, theta, bounds, tol=1e-9, seed=seed)
    except Infeasible as err:
        return str(err)
    return plan.horizon, bits(plan.block.inputs), bits([plan.predicted_terminal_error])


class TestLeanSynthesis:
    """``synthesize`` runs its candidate blocks through the plant's step loop;
    plans, failures and transition counts must equal a ``simulate`` call per
    evaluation."""

    def _cases(self):
        rng = np.random.default_rng(25)
        for name in ("scalar_linear", "affine_2d", "bilinear_scalar"):
            spec = get_model(name)
            model = spec.model
            for _ in range(4):
                x0 = rng.uniform(-1.5, 1.5, model.state_dim)
                inputs = rng.uniform(-0.5, 0.5, (int(rng.integers(0, 4)), model.input_dim))
                theta_true = rng.uniform(model.param_lower, model.param_upper)
                theta = rng.uniform(model.param_lower, model.param_upper)
                yield model, recorded_history(model, x0, inputs, theta_true), theta, spec.bounds
        # A history whose replay overflows: every residual is inf or nan.
        model = SCALAR_SPEC.model
        yield model, recorded_history(model, [1e308], [[0.0]], [0.5]), np.array([2.0]), SCALAR_SPEC.bounds

    def test_plans_bit_for_bit_with_equal_transition_counts(self, monkeypatch):
        outcomes = []
        with np.errstate(all="ignore"):
            for i, (base, history, theta, bounds) in enumerate(self._cases()):
                model, calls = counting(base)
                # Each side gets a history of its own, so neither takes the
                # other's zero-block runs from a shared memo.
                twin = ObservationHistory(InputSequence(0, history.applied_inputs.inputs), history.trajectory)
                # Both runs then take the history's replay from its memo.
                for h in (history, twin):
                    replay(model, h.x0, h.applied_inputs, theta)
                del calls[:]
                lean = _plan_or_error(model, history, theta, bounds, seed=i)
                lean_calls = len(calls)
                del calls[:]
                with monkeypatch.context() as m:
                    m.setattr(synthesis, "block_end_map", simulate_block_end_map)
                    m.setattr(synthesis, "jacobian_input", simulate_jacobian_input)
                    ref = _plan_or_error(model, twin, theta, bounds, seed=i)
                assert lean_calls == len(calls) > 0, i
                if isinstance(ref, str):
                    assert lean == ref, i
                else:
                    assert lean[0] == ref[0] and all(np.array_equal(a, b) for a, b in zip(lean[1:], ref[1:])), i
                outcomes.append(isinstance(ref, str))
        assert outcomes[-1] and not all(outcomes)

    def test_no_block_is_stepped_outside_gauss_newton(self, monkeypatch):
        # The plan's predicted error is the winning run's residual norm, so
        # every transition happens inside a Gauss-Newton evaluation.
        model, calls = counting(SCALAR_SPEC.model)
        inside = []

        def counted(handle):
            def evaluate(u_flat):
                before = len(calls)
                out = handle(u_flat)
                inside.append(len(calls) - before)
                return out

            return evaluate

        gauss_newton = synthesis.box_gauss_newton
        monkeypatch.setattr(
            synthesis, "box_gauss_newton", lambda res, jac, *args: gauss_newton(counted(res), counted(jac), *args)
        )
        plan = synthesize(model, blank_history(model, [1.0]), [0.8], SynthesisBounds(1, 4.0), tol=1e-9)
        assert plan.horizon == 1
        assert len(calls) == sum(inside) > 0

    def test_malformed_second_step_still_raises(self):
        # Well-formed from x < 1.5; the first step lands at 2 + u, so only
        # the second step of a two-step block is malformed. Horizon 1 cannot
        # reach 0 with |u| <= 0.1, so horizon 2 is tried.
        def f(x, u, th):
            return x + 1.0 + u if x[0] < 1.5 else np.array([x[0], x[0]])

        model = PlantModel(1, 1, 1, f, [[0.0, 1.0]], [0.0])
        with pytest.raises(DimensionMismatch, match="transition output"):
            synthesize(model, blank_history(model, [1.0]), [0.5], SynthesisBounds(2, 0.1), tol=1e-9)

    def test_wrong_theta_length_on_an_empty_history(self):
        model = SCALAR_SPEC.model
        with pytest.raises(DimensionMismatch, match="theta"):
            synthesize(model, blank_history(model, [1.0]), [0.8, 0.1], SCALAR_SPEC.bounds, tol=1e-9)


def record_starts(monkeypatch):
    """The start of every Gauss-Newton run that ``synthesize`` makes."""
    starts = []
    solve = synthesis.box_gauss_newton

    def recorded(residual, jacobian, x0, *args):
        starts.append(np.array(x0, dtype=float))
        return solve(residual, jacobian, x0, *args)

    monkeypatch.setattr(synthesis, "box_gauss_newton", recorded)
    return starts


def zero_runs(starts):
    return sum(not start.any() for start in starts)


class TestZeroStartMemo:
    """A retry that asks a history's synthesis problem again takes each
    horizon's zero-block run from the history's memo, and draws and runs its
    seeded starts as before."""

    # From (1, 1) the affine plant needs two steps: horizons 1 and 2 are tried.
    @staticmethod
    def base():
        model = AFFINE_SPEC.model
        return model, blank_history(model, [1.0, 1.0]), np.array([0.5, 0.25]), AFFINE_SPEC.bounds, 1e-9

    def _second_call_zero_runs(self, monkeypatch, first, second):
        starts = record_starts(monkeypatch)
        for seed, args in enumerate((first, second)):
            del starts[:]
            try:
                synthesize(*args, seed=seed)
            except Infeasible:
                pass
        return zero_runs(starts)

    def test_repeated_key_runs_no_zero_start(self, monkeypatch):
        starts = record_starts(monkeypatch)
        model, calls = counting(AFFINE_SPEC.model)
        _, history, theta, bounds, tol = self.base()
        first = synthesize(model, history, theta, bounds, tol, seed=1)
        assert first.horizon == 2
        assert zero_runs(starts) == 2 and len(starts) == 2 * synthesis.MULTISTART_COUNT
        first_calls = len(calls)
        del starts[:], calls[:]
        # The same seed runs the same random starts, so only the zero-block
        # runs' transitions are saved.
        again = synthesize(model, history, theta, bounds, tol, seed=1)
        assert again.horizon == 2 and np.array_equal(bits(again.block.inputs), bits(first.block.inputs))
        assert zero_runs(starts) == 0 and len(starts) == 2 * (synthesis.MULTISTART_COUNT - 1)
        assert 0 < len(calls) < first_calls

    @pytest.mark.parametrize("change", ["tol", "amplitude", "theta", "model", "x0"])
    def test_changed_key_misses(self, monkeypatch, change):
        model, history, theta, bounds, tol = first = self.base()
        second = {
            "tol": (model, history, theta, bounds, 1e-10),
            "amplitude": (model, history, theta, SynthesisBounds(3, 0.8), tol),
            "theta": (model, history, np.array([0.5, 0.3]), bounds, tol),
            "model": (dataclasses.replace(model), history, theta, bounds, tol),
            # Another trajectory over the same recorded inputs shares the memo.
            "x0": (model, ObservationHistory(history.applied_inputs, StateSequence(0, [[2.0, 1.0]])),
                   theta, bounds, tol),
        }[change]
        assert self._second_call_zero_runs(monkeypatch, first, second) == 2

    def test_signed_zero_theta_misses(self, monkeypatch):
        spec = get_model("bilinear_scalar")
        history = blank_history(spec.model, [1.0])
        first = (spec.model, history, np.array([0.8, 0.0]), spec.bounds, 1e-9)
        second = (spec.model, history, np.array([0.8, -0.0]), spec.bounds, 1e-9)
        assert self._second_call_zero_runs(monkeypatch, first, second) == 1
        assert self._second_call_zero_runs(monkeypatch, second, second) == 0

    def test_changed_horizon_misses(self, monkeypatch):
        # A cap of 1 is infeasible; with a cap of 3 the run at horizon 1 comes
        # from the memo and the one at horizon 2 is new.
        model, history, theta, bounds, tol = self.base()
        capped = SynthesisBounds(1, bounds.max_amplitude)
        runs = self._second_call_zero_runs(
            monkeypatch, (model, history, theta, capped, tol), (model, history, theta, bounds, tol)
        )
        assert runs == 1

    def test_a_plan_cannot_change_the_memo(self):
        model, history, theta, bounds, tol = self.base()
        first = synthesize(model, history, theta, bounds, tol, seed=1)
        original = bits(first.block.inputs).copy()
        first.block.inputs[...] = 99.0
        again = synthesize(model, history, theta, bounds, tol, seed=2)
        assert np.array_equal(bits(again.block.inputs), original)
        # The repeat's plan is the memo's zero-block run, kept read-only.
        assert not again.block.inputs.flags.writeable
