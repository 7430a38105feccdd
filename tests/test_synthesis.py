import numpy as np
import pytest
from numpy.testing import assert_allclose

from regulate import (
    Infeasible,
    ObservationHistory,
    PlantModel,
    SynthesisBounds,
    controllability_rank_check,
    feasibility_probe,
    get_model,
    simulate,
    synthesize,
)
from regulate.plant import StateSequence, as_inputs

SCALAR_SPEC = get_model("scalar_linear")
AFFINE_SPEC = get_model("affine_2d")


def blank_history(model, x0):
    return ObservationHistory.initial(x0, model.input_dim, model.state_dim)


def recorded_history(model, x0, inputs, theta_true):
    u = as_inputs(inputs, model.input_dim)
    traj = simulate(model, x0, u, theta_true)
    return ObservationHistory(np.atleast_1d(np.asarray(x0, float)), u, StateSequence(1, traj.states[1:]))


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


class TestFeasibilityProbe:
    SAMPLES = [np.array([v]) for v in (0.5, 0.875, 1.25, 1.625, 2.0)]

    def test_scalar_worst_case(self):
        rep = feasibility_probe(SCALAR_SPEC.model, [1.0], SCALAR_SPEC.bounds, self.SAMPLES, tol=1e-9)
        assert rep.all_reachable
        assert rep.worst_case_horizon == 1
        # |u| = theta*|x| is largest at the top of the box
        assert_allclose(rep.worst_case_input_norm, 2.0, atol=1e-9)

    def test_from_target_state(self):
        rep = feasibility_probe(SCALAR_SPEC.model, [0.0], SCALAR_SPEC.bounds, self.SAMPLES, tol=1e-9)
        assert rep.all_reachable
        assert rep.worst_case_horizon == 1
        assert rep.worst_case_input_norm == 0.0

    def test_undersized_amplitude_reported(self):
        bounds = SynthesisBounds(1, 1.5)
        rep = feasibility_probe(SCALAR_SPEC.model, [1.0], bounds, self.SAMPLES, tol=1e-9)
        assert not rep.all_reachable
