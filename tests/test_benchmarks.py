import numpy as np
import pytest
from numpy.testing import assert_allclose

from regulate import (
    UNIDENTIFIABLE,
    ObservationHistory,
    SingularInput,
    UnknownModel,
    controllability_rank_check,
    estimate,
    get_model,
    jacobian_input,
    jacobian_theta,
    oracle_deadbeat,
    oracle_parameter,
    simulate,
    step,
    synthesize,
)
from regulate.benchmarks import MODEL_NAMES
from regulate.plant import InputSequence, StateSequence, as_inputs


def noise_free_history(model, x0, inputs, theta_true):
    u = as_inputs(inputs, model.input_dim)
    traj = simulate(model, x0, u, theta_true)
    return ObservationHistory(np.atleast_1d(np.asarray(x0, float)), u, StateSequence(1, traj.states[1:]))


class TestRegistry:
    def test_names(self):
        assert MODEL_NAMES == ("affine_2d", "bilinear_scalar", "scalar_linear")

    def test_scalar_dimensions(self):
        spec = get_model("scalar_linear")
        assert (spec.model.state_dim, spec.model.input_dim, spec.model.param_dim) == (1, 1, 1)

    def test_affine_step_hand_value(self):
        spec = get_model("affine_2d")
        out = step(spec.model, [1.0, 1.0], [0.0, 0.0], [0.5, 0.25])
        assert_allclose(out, [1.0, 0.75], atol=1e-12)

    def test_unknown_model(self):
        with pytest.raises(UnknownModel):
            get_model("unknown")


class TestDeadbeatOracle:
    def test_scalar(self):
        spec = get_model("scalar_linear")
        horizon, block = oracle_deadbeat(spec, [1.3], [0.8])
        assert horizon == 1
        assert_allclose(block, [[-1.04]], atol=1e-12)

    def test_bilinear(self):
        spec = get_model("bilinear_scalar")
        horizon, block = oracle_deadbeat(spec, [1.0], [0.8, 0.3])
        assert horizon == 1
        assert_allclose(block, [[-0.8 / 1.3]], atol=1e-12)

    def test_bilinear_singular_state(self):
        spec = get_model("bilinear_scalar")
        with pytest.raises(SingularInput):
            oracle_deadbeat(spec, [-2.5], [0.5, 0.4])

    def test_affine_lands_on_target(self):
        spec = get_model("affine_2d")
        horizon, block = oracle_deadbeat(spec, [1.0, 1.0], [0.5, 0.25])
        assert horizon == 2
        landed = simulate(spec.model, [1.0, 1.0], as_inputs(block, 2), [0.5, 0.25]).states[-1]
        assert_allclose(landed, [0.0, 0.0], atol=1e-12)

    def test_deadbeat_reaches_target_across_box(self):
        rng = np.random.default_rng(1)
        for name in MODEL_NAMES:
            spec = get_model(name)
            model = spec.model
            for _ in range(25):
                x = rng.uniform(0.2, 1.5, model.state_dim)
                theta = rng.uniform(model.param_lower, model.param_upper)
                horizon, block = oracle_deadbeat(spec, x, theta)
                landed = simulate(model, x, as_inputs(block, model.input_dim), theta).states[-1]
                assert np.linalg.norm(landed - model.target) <= 1e-12


class TestParameterOracle:
    def test_scalar_hand_value(self):
        spec = get_model("scalar_linear")
        hist = ObservationHistory(
            np.array([2.0]), as_inputs([0.0], 1), StateSequence(1, np.array([[1.6]]))
        )
        assert_allclose(oracle_parameter(spec, hist), [0.8], atol=1e-12)

    def test_scalar_zero_state_unidentifiable(self):
        spec = get_model("scalar_linear")
        hist = ObservationHistory(
            np.array([0.0]), as_inputs([0.0], 1), StateSequence(1, np.array([[0.0]]))
        )
        assert oracle_parameter(spec, hist) is UNIDENTIFIABLE

    def test_affine_recovers_from_default_excitation(self):
        spec = get_model("affine_2d")
        hist = noise_free_history(spec.model, [1.0, 0.0], spec.excitation, [0.5, 0.25])
        assert_allclose(oracle_parameter(spec, hist), [0.5, 0.25], atol=1e-12)

    def test_bilinear_needs_distinct_inputs(self):
        spec = get_model("bilinear_scalar")
        same = noise_free_history(spec.model, [1.0], [0.3, 0.3], [0.8, 0.3])
        assert oracle_parameter(spec, same) is UNIDENTIFIABLE
        distinct = noise_free_history(spec.model, [1.0], spec.excitation, [0.8, 0.3])
        assert_allclose(oracle_parameter(spec, distinct), [0.8, 0.3], atol=1e-10)


class TestOraclePipelineAgreement:
    def test_sensitivities_match_finite_differences(self):
        # 100 random draws per model, both sensitivity routes.
        rng = np.random.default_rng(7)
        for name in MODEL_NAMES:
            spec = get_model(name)
            model = spec.model
            for _ in range(100):
                x0 = rng.uniform(-1.5, 1.5, model.state_dim)
                theta = rng.uniform(model.param_lower, model.param_upper)
                horizon = int(rng.integers(1, 4))
                u = as_inputs(rng.uniform(-1, 1, (horizon, model.input_dim)), model.input_dim)
                fd = jacobian_theta(model, x0, u, theta)
                exact = spec.oracle.stacked_jacobian(x0, u, theta)
                assert np.linalg.norm(fd - exact) <= 1e-6 * max(1.0, np.linalg.norm(exact))
                fd_u = jacobian_input(model, x0, u, theta)
                exact_u = spec.oracle.input_jacobian(x0, u, theta)
                assert np.linalg.norm(fd_u - exact_u) <= 1e-6 * max(1.0, np.linalg.norm(exact_u))

    def test_estimate_agrees_with_parameter_oracle(self):
        rng = np.random.default_rng(21)
        for name in MODEL_NAMES:
            spec = get_model(name)
            model = spec.model
            checked = 0
            for _ in range(20):
                theta_true = rng.uniform(model.param_lower, model.param_upper)
                x0 = rng.uniform(0.4, 1.6, model.state_dim)
                hist = noise_free_history(model, x0, spec.excitation, theta_true)
                recovered = oracle_parameter(spec, hist)
                if recovered is UNIDENTIFIABLE:
                    continue
                fitted = estimate(model, hist, model.clip_params(recovered), tol=1e-10)
                assert_allclose(fitted.theta, recovered, atol=1e-8)
                checked += 1
            assert checked >= 15

    def test_synthesize_agrees_with_deadbeat_on_scalar_models(self):
        rng = np.random.default_rng(33)
        for name in ("scalar_linear", "bilinear_scalar"):
            spec = get_model(name)
            model = spec.model
            for _ in range(20):
                theta = rng.uniform(model.param_lower, model.param_upper)
                x = rng.uniform(0.3, 1.4, model.state_dim)
                horizon, block = oracle_deadbeat(spec, x, theta)
                plan = synthesize(
                    model,
                    ObservationHistory(
                        x,
                        InputSequence(0, np.zeros((0, model.input_dim))),
                        StateSequence(1, np.zeros((0, model.state_dim))),
                    ),
                    theta, spec.bounds, tol=1e-10, seed=5,
                )
                assert plan.horizon == horizon
                assert_allclose(plan.block.inputs, block, atol=1e-8)


class TestReachabilityAcrossBox:
    def test_controllability_away_from_singular_sets(self):
        rng = np.random.default_rng(13)
        for name in MODEL_NAMES:
            spec = get_model(name)
            model = spec.model
            for _ in range(30):
                x = rng.uniform(-2.0, 2.0, model.state_dim)
                theta = rng.uniform(model.param_lower, model.param_upper)
                if name == "bilinear_scalar" and abs(1.0 + theta[1] * x[0]) < 0.05:
                    continue  # documented singular set
                block = as_inputs(np.zeros((2, model.input_dim)), model.input_dim)
                assert controllability_rank_check(model, x, theta, block)

    def test_default_excitations_identify_from_default_state(self):
        from regulate import excitation_rank_check

        defaults = {"scalar_linear": [1.0], "affine_2d": [1.0, 0.0], "bilinear_scalar": [1.0]}
        for name in MODEL_NAMES:
            spec = get_model(name)
            x0 = np.array(defaults[name])
            samples = [(x0, theta) for theta in (spec.model.param_lower, spec.model.param_upper,
                                                 0.5 * (spec.model.param_lower + spec.model.param_upper))]
            report = excitation_rank_check(spec.model, spec.excitation, samples)
            assert report.passed
