import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import regulate.plant
import regulate.regulator
import regulate.synthesis
from regulate import (
    NotConverged,
    ObservationHistory,
    estimate,
    get_model,
    identifiability_margin,
    inclusion_check,
    jacobian_theta,
    simulate,
    synthesize,
)
from regulate.estimator import residual_vector
from regulate.gauss_newton import box_gauss_newton
from regulate.plant import InputSequence, StateSequence, as_inputs

SCALAR = get_model("scalar_linear").model
AFFINE = get_model("affine_2d").model
BILINEAR = get_model("bilinear_scalar").model


def make_history(model, x0, inputs, theta_true):
    """Noise-free history generated by the true plant."""
    u = as_inputs(inputs, model.input_dim)
    return ObservationHistory(u, simulate(model, x0, u, theta_true))


def history_with_observations(x0, inputs, observed):
    u = as_inputs(inputs, 1)
    return ObservationHistory(u, StateSequence(0, np.append(x0, observed).reshape(-1, 1)))


class TestObservationHistory:
    def test_trajectory_holds_x0_to_xT(self):
        hist = make_history(SCALAR, [1.0], [0.5, -0.2], [0.8])
        assert np.array_equal(hist.x0, [1.0])
        assert np.array_equal(hist.observed_flat, hist.trajectory.states[1:].ravel())
        with pytest.raises(ValueError, match=r"x\(0\)"):
            ObservationHistory(hist.applied_inputs, StateSequence(0, hist.trajectory.states[1:]))
        with pytest.raises(ValueError, match="time 0"):
            ObservationHistory(hist.applied_inputs, StateSequence(1, hist.trajectory.states))


class TestResidualNorm:
    def test_true_parameter_gives_zero(self):
        hist = make_history(SCALAR, [1.0], [0.5, -0.2], [0.8])
        assert np.linalg.norm(residual_vector(SCALAR, hist, [0.8])) <= 1e-12

    def test_hand_arithmetic(self):
        hist = history_with_observations([2.0], [0.0], [1.6])
        assert_allclose(np.linalg.norm(residual_vector(SCALAR, hist, [1.0])), 0.4, atol=1e-12)

    def test_block_residual_is_prefix_of_extended_residual(self):
        theta_true = [0.7]
        short = make_history(SCALAR, [1.0], [0.5, -0.3], theta_true)
        long = make_history(SCALAR, [1.0], [0.5, -0.3, 0.1], theta_true)
        probe = [1.4]
        r_short = np.linalg.norm(residual_vector(SCALAR, short, probe))
        r_long_vec = residual_vector(SCALAR, long, probe)
        assert_allclose(np.linalg.norm(r_long_vec[:2]), r_short, rtol=1e-12)

    def test_monotone_in_history_length(self):
        theta_true = [1.1]
        probe = [1.6]
        inputs = [0.5, -0.3, 0.1, 0.4, -0.2]
        values = [
            np.linalg.norm(residual_vector(SCALAR, make_history(SCALAR, [1.0], inputs[:k], theta_true), probe))
            for k in range(1, len(inputs) + 1)
        ]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


class TestEstimate:
    def test_recovers_scalar_parameter(self):
        hist = history_with_observations([2.0], [0.0], [1.6])
        result = estimate(SCALAR, hist, [1.25], tol=1e-10)
        assert result.converged
        assert_allclose(result.theta, [0.8], atol=1e-10)

    def test_start_at_truth_converges_immediately(self):
        hist = make_history(SCALAR, [1.0], [0.5], [0.8])
        result = estimate(SCALAR, hist, [0.8], tol=1e-10)
        assert result.converged
        assert result.iterations <= 1
        assert result.residual <= 1e-12

    def test_unidentifiable_data_accepts_any_parameter(self):
        # Zero state and zero inputs carry no parameter information: the
        # residual is identically zero and the start point is returned.
        hist = history_with_observations([0.0], [0.0], [0.0])
        result = estimate(SCALAR, hist, [1.5], tol=1e-10)
        assert result.converged
        assert result.residual == 0.0
        assert_allclose(result.theta, [1.5])

    def test_not_converged_carries_best_attempt(self):
        # Observation outside the reachable set of the parameter box: the best
        # admissible fit sits at the upper box edge with residual |2 - 10| = 8.
        hist = history_with_observations([1.0], [0.0], [10.0])
        with pytest.raises(NotConverged) as excinfo:
            estimate(SCALAR, hist, [1.0], tol=1e-6)
        best = excinfo.value.best
        assert not best.converged
        assert_allclose(best.theta, [2.0], atol=1e-9)
        assert_allclose(best.residual, 8.0, atol=1e-8)

    def test_result_always_inside_box(self):
        rng = np.random.default_rng(42)
        for model in (SCALAR, AFFINE, BILINEAR):
            for _ in range(10):
                theta_true = rng.uniform(model.param_lower, model.param_upper)
                x0 = rng.uniform(0.5, 1.5, model.state_dim)
                inputs = rng.uniform(-1, 1, (3, model.input_dim))
                hist = make_history(model, x0, inputs, theta_true)
                result = estimate(model, hist, model.clip_params(theta_true + 0.05), tol=1e-9)
                assert model.contains_params(result.theta, atol=1e-12)
                assert result.residual <= 1e-9

    def test_multistart_escapes_bad_start(self):
        # From the box corner (0.5, 0) a lone Gauss-Newton run stalls on this
        # bilinear two-step history; the restart grid must find theta_true.
        theta_true = [0.95, 0.05]
        start = [0.5, 0.0]
        hist = make_history(BILINEAR, [1.0], [-0.5, 1.0], theta_true)
        lone = box_gauss_newton(
            lambda th: residual_vector(BILINEAR, hist, th),
            lambda th: jacobian_theta(BILINEAR, hist.x0, hist.applied_inputs, th),
            start, BILINEAR.param_lower, BILINEAR.param_upper, 1e-9,
        )
        assert not lone.converged
        assert_allclose(lone.residual_norm, 0.60, atol=0.01)
        result = estimate(BILINEAR, hist, start, tol=1e-9)
        assert result.converged and result.residual <= 1e-9
        assert_allclose(result.theta, theta_true, atol=1e-6)

    def test_overflowing_trial_residual_is_silent(self):
        # An 800-step tail replayed near theta = 2 grows past 1e154, so the
        # squared norm of a trial residual overflows; the line search rejects
        # it without a RuntimeWarning.
        rng = np.random.default_rng(3)
        inputs = np.vstack([[[0.5]], rng.uniform(-2.0, 2.0, (800, 1))])
        hist = make_history(SCALAR, [1.0], inputs, [0.8])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = estimate(SCALAR, hist, [1.25], tol=1e-3)
        assert result.converged
        assert_allclose(result.theta, [0.8], atol=1e-6)

    def test_nan_residual_still_runs_the_restart_grid(self):
        # From x0 = 1e300 the replay under the box midpoint reaches inf - inf,
        # so its residual is nan; that must lose to every grid start, one of
        # which is theta_true.
        hist = make_history(BILINEAR, [1e300], [[2.0]] * 150 + [[-2.0], [2.0]] * 25, [0.5, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            result = estimate(BILINEAR, hist, 0.5 * (BILINEAR.param_lower + BILINEAR.param_upper), tol=1e-6)
        assert result.converged and result.residual == 0.0
        assert np.array_equal(result.theta, [0.5, 0.0])

    @pytest.mark.parametrize("tol", [0.0, float("nan")])
    def test_invalid_arguments(self, tol):
        hist = history_with_observations([1.0], [0.0], [0.8])
        with pytest.raises(ValueError):
            estimate(SCALAR, hist, [1.0], tol=tol)
        with pytest.raises(ValueError):
            estimate(SCALAR, hist, [9.0], tol=1e-8)


class TestReplayMemo:
    def test_history_inputs_are_a_read_only_copy(self):
        source = np.array([[0.5], [-0.25]])
        hist = history_with_observations([1.0], source, [1.3, 0.79])
        assert not hist.applied_inputs.inputs.flags.writeable
        before = residual_vector(SCALAR, hist, [0.8]).copy()
        source[:] = 9.0
        assert np.array_equal(residual_vector(SCALAR, hist, [0.8]), before)
        # The next block's history, built as the run loop builds it.
        inputs = np.vstack([hist.applied_inputs.inputs, [[1.0]]])
        states = np.vstack([hist.trajectory.states, [[1.632]]])
        longer = ObservationHistory(InputSequence(0, inputs), StateSequence(0, states))
        assert not longer.applied_inputs.inputs.flags.writeable
        assert len(longer.applied_inputs.memo.replays) == 0

    def test_each_theta_replays_the_history_at_most_once(self, monkeypatch):
        # One inner retry of the inexact loop, twice: estimate, synthesize and
        # a failing inclusion check, then all three again at a smaller
        # tolerance from the first estimate. The first estimate starts near
        # the truth, as from a previous block's estimate, so that no restart
        # grid runs: its starts would fill the memo with more than
        # MEMO_SIZE other points. Every replay of the history from x(0)
        # goes through simulate in one of these modules.
        spec = get_model("affine_2d")
        rng = np.random.default_rng(4)
        inputs = np.vstack([spec.excitation.inputs, rng.uniform(-1.0, 1.0, (200, 2))])
        hist = make_history(AFFINE, [1.0, 0.0], inputs, [0.5, 0.25])
        replays = []
        for module in (regulate.plant, regulate.synthesis, regulate.regulator):
            original = module.simulate

            def counted(model, x0, u_seq, theta, original=original):
                if u_seq is hist.applied_inputs:
                    replays.append(np.asarray(theta, dtype=float).tobytes())
                return original(model, x0, u_seq, theta)

            monkeypatch.setattr(module, "simulate", counted)
        theta = np.array([0.45, 0.3])
        for tol in (1e-2, 1e-12):
            theta = estimate(AFFINE, hist, theta, tol).theta
            plan = synthesize(AFFINE, hist, theta, spec.bounds, 5e-4, seed=1)
            assert not inclusion_check(AFFINE, hist, theta, plan, 1.0, 5e-4, seed=2)
        assert replays and len(replays) == len(set(replays))


class TestIdentifiabilityMargin:
    def test_scalar_margin_is_initial_state(self):
        spec = get_model("scalar_linear")
        report = identifiability_margin(spec.model, [1.0], spec.excitation, grid=4)
        assert_allclose(report.margin, 1.0, atol=1e-8)
        # half the smallest spacing of a 4-point grid on [0.5, 2]
        assert_allclose(report.radius, 0.25)
        assert report.samples_used == 4

    def test_zero_state_gives_zero_margin(self):
        spec = get_model("scalar_linear")
        report = identifiability_margin(spec.model, [0.0], spec.excitation, grid=4)
        assert report.margin == 0.0

    def test_affine_margin_positive(self):
        spec = get_model("affine_2d")
        report = identifiability_margin(spec.model, [1.0, 0.0], spec.excitation, grid=5)
        assert report.margin > 0.0
        assert report.samples_used == 25

    def test_grid_must_cover_spacing(self):
        spec = get_model("scalar_linear")
        with pytest.raises(ValueError):
            identifiability_margin(spec.model, [1.0], spec.excitation, grid=1)

    def test_margin_bounds_parameter_error(self):
        # Computable form of the injectivity bound: within the validated
        # radius, parameter error <= residual on the first segment / margin.
        spec = get_model("scalar_linear")
        report = identifiability_margin(spec.model, [1.0], spec.excitation, grid=5)
        hist = make_history(spec.model, [1.0], spec.excitation, [0.8])
        for theta_probe in (0.8 + 0.05, 0.8 - report.radius * 0.9):
            err = abs(theta_probe - 0.8)
            if err > report.radius:
                continue
            res = np.linalg.norm(residual_vector(spec.model, hist, [theta_probe]))
            assert err <= 1.05 * res / report.margin
