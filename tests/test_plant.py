import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from regulate import (
    DimensionMismatch,
    InputSequence,
    PlantModel,
    controllability_rank_check,
    excitation_rank_check,
    get_model,
    jacobian_input,
    jacobian_theta,
    numeric_rank,
    simulate,
    stacked_map,
    step,
    terminal_map,
)
from regulate.plant import MEMO_SIZE, as_inputs, block_end_map, fd_jacobian, replay

SCALAR = get_model("scalar_linear").model
AFFINE = get_model("affine_2d").model
BILINEAR = get_model("bilinear_scalar").model


def seq(values, dim=1, start=0):
    return as_inputs(values, dim, start_time=start)


class TestStep:
    def test_zero_case(self):
        assert step(SCALAR, [0.0], [0.0], [0.8]) == np.array([0.0])

    def test_hand_arithmetic(self):
        assert_allclose(step(SCALAR, [1.0], [0.5], [0.8]), [1.3], atol=1e-12)

    def test_bilinear_hand_arithmetic(self):
        # 0.5*1 + (1 + 0.5*1)*1 = 2
        assert_allclose(step(BILINEAR, [1.0], [1.0], [0.5, 0.5]), [2.0], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            step(SCALAR, [1.0, 2.0], [0.0], [0.8])
        with pytest.raises(DimensionMismatch):
            step(AFFINE, [1.0, 0.0], [0.0], [0.5, 0.25])

    def test_deterministic(self):
        a = step(BILINEAR, [1.1], [-0.3], [0.7, 0.2])
        b = step(BILINEAR, [1.1], [-0.3], [0.7, 0.2])
        assert np.array_equal(a, b)


class TestSimulate:
    def test_empty_inputs(self):
        out = simulate(SCALAR, [1.0], InputSequence(0, np.zeros((0, 1))), [0.8])
        assert len(out) == 1
        assert_allclose(out.states, [[1.0]])

    def test_one_step(self):
        out = simulate(SCALAR, [1.0], seq([0.5]), [0.8])
        assert_allclose(out.states.ravel(), [1.0, 1.3], atol=1e-12)

    def test_two_steps_back_to_zero(self):
        # 0.8*1.3 - 1.04 = 0 by hand
        out = simulate(SCALAR, [1.0], seq([0.5, -1.04]), [0.8])
        assert_allclose(out.states.ravel(), [1.0, 1.3, 0.0], atol=1e-12)

    def test_semigroup_property(self):
        rng = np.random.default_rng(11)
        for model in (SCALAR, AFFINE, BILINEAR):
            for _ in range(20):
                x0 = rng.uniform(-2, 2, model.state_dim)
                theta = rng.uniform(model.param_lower, model.param_upper)
                u_a = rng.uniform(-1, 1, (3, model.input_dim))
                u_b = rng.uniform(-1, 1, (2, model.input_dim))
                whole = simulate(model, x0, seq(np.vstack([u_a, u_b]), model.input_dim), theta)
                head = simulate(model, x0, seq(u_a, model.input_dim), theta)
                tail = simulate(model, head.states[-1], seq(u_b, model.input_dim, start=3), theta)
                glued = np.vstack([head.states, tail.states[1:]])
                assert_allclose(whole.states, glued, rtol=1e-12, atol=0)

    def test_wrong_input_width(self):
        with pytest.raises(DimensionMismatch, match="input must have shape"):
            simulate(AFFINE, [1.0, 0.0], seq([0.5, 0.5]), [0.5, 0.25])

    def test_wrong_theta_length(self):
        with pytest.raises(DimensionMismatch, match="theta must have shape"):
            simulate(SCALAR, [1.0], seq([0.5]), [0.8, 0.1])

    def test_wrong_initial_state(self):
        with pytest.raises(DimensionMismatch, match="initial state"):
            simulate(AFFINE, [1.0], seq([[0.0, 0.0]], dim=2), [0.5, 0.25])

    def test_transition_output_checked_on_every_step(self):
        # Well-formed while x < 1.5, so only the second step returns two entries.
        def f(x, u, th):
            return x + u if x[0] < 1.5 else np.array([x[0], x[0]])

        model = PlantModel(1, 1, 1, f, [[0.0, 1.0]], [0.0])
        assert_allclose(simulate(model, [1.0], seq([1.0]), [0.5]).states.ravel(), [1.0, 2.0])
        with pytest.raises(DimensionMismatch, match="transition output"):
            simulate(model, [1.0], seq([1.0, 0.0]), [0.5])

    def test_scalar_transition_output_accepted(self):
        model = PlantModel(1, 1, 1, lambda x, u, th: th[0] * x[0] + u[0], [[0.5, 2.0]], [0.0])
        out = simulate(model, [1.0], seq([0.5, -1.04]), [0.8])
        assert out.states.shape == (3, 1)
        assert np.array_equal(out.states, simulate(SCALAR, [1.0], seq([0.5, -1.04]), [0.8]).states)

    def test_empty_sequence_checks_only_the_initial_state(self):
        # No transition runs, so the input width and theta go unchecked.
        out = simulate(AFFINE, [1.0, 2.0], InputSequence(4, np.zeros((0, 1))), [9.0])
        assert out.start_time == 4
        assert np.array_equal(out.states, [[1.0, 2.0]])
        with pytest.raises(DimensionMismatch):
            simulate(AFFINE, [1.0], InputSequence(0, np.zeros((0, 2))), [0.5, 0.25])


def bits(arr):
    return np.ascontiguousarray(arr, dtype=float).view(np.int64)


def counting(model):
    """A copy of model whose transition counts its calls in ``.calls``."""
    calls = []

    def transition(x, u, theta):
        calls.append(1)
        return model.transition(x, u, theta)

    copy = dataclasses.replace(model, transition=transition)
    return copy, calls


class TestReplayMemo:
    def test_memoized_replay_equals_fresh_simulate_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for model in (SCALAR, AFFINE, BILINEAR):
            x0 = rng.uniform(-2, 2, model.state_dim)
            for length in (0, 1, 7):
                u = seq(rng.uniform(-1, 1, (length, model.input_dim)), model.input_dim).recorded()
                for _ in range(3):
                    theta = rng.uniform(model.param_lower, model.param_upper)
                    fresh = simulate(model, x0, u, theta).states
                    for _ in range(2):  # a miss, then a hit
                        assert np.array_equal(bits(replay(model, x0, u, theta)), bits(fresh))
                    assert np.array_equal(bits(stacked_map(model, x0, u, theta)), bits(fresh[1:].ravel()))

    def test_overflow_to_inf_and_nan_is_served_as_computed(self):
        cases = [
            (SCALAR, [1e307], [[0.0]] * 6, [2.0]),  # inf
            (AFFINE, [1e308, -1e308], [[0.0, 0.0]] * 4, [1.0, 1.0]),  # -inf
            (BILINEAR, [1e308], [[1.0], [1.0], [-1.0]], [1.0, 0.4]),  # inf, then inf - inf
        ]
        seen = set()
        with np.errstate(all="ignore"):
            for model, x0, inputs, theta in cases:
                u = seq(inputs, model.input_dim).recorded()
                fresh = simulate(model, x0, u, theta).states
                seen.update({"inf": np.isinf(fresh).any(), "nan": np.isnan(fresh).any()}.items())
                for _ in range(2):
                    assert np.array_equal(bits(replay(model, x0, u, theta)), bits(fresh))
        assert ("inf", True) in seen and ("nan", True) in seen

    def test_signed_zeros_in_theta_are_separate_keys(self):
        # From x0 = 1 under u = -0.0: 0.0*1 + -0.0 = 0.0 but -0.0*1 + -0.0 = -0.0.
        u = seq([-0.0]).recorded()
        pos = replay(SCALAR, [1.0], u, [0.0])
        neg = replay(SCALAR, [1.0], u, [-0.0])
        assert np.array_equal(bits(pos), bits(simulate(SCALAR, [1.0], u, [0.0]).states))
        assert np.array_equal(bits(neg), bits(simulate(SCALAR, [1.0], u, [-0.0]).states))
        assert not np.array_equal(bits(pos), bits(neg))
        assert len(u.memo.replays) == 2

    def test_other_x0_or_model_never_gets_another_keys_entry(self):
        u = seq([0.5, -0.25, 1.0]).recorded()
        model, calls = counting(SCALAR)
        replay(model, [1.0], u, [0.8])
        assert len(calls) == 3
        other_x0 = replay(model, [2.0], u, [0.8])
        assert len(calls) == 6
        assert np.array_equal(other_x0, simulate(SCALAR, [2.0], u, [0.8]).states)
        # The same transition in another model object is another key.
        twin, twin_calls = counting(SCALAR)
        replay(twin, [1.0], u, [0.8])
        assert len(twin_calls) == 3
        doubled = dataclasses.replace(SCALAR, transition=lambda x, u_t, th: 2.0 * SCALAR.transition(x, u_t, th))
        assert np.array_equal(replay(doubled, [1.0], u, [0.8]), simulate(doubled, [1.0], u, [0.8]).states)
        replay(model, [1.0], u, [0.8])
        replay(model, [2.0], u, [0.8])
        assert len(calls) == 6

    def test_hits_are_read_only_and_the_memo_is_bounded(self):
        u = seq([0.5, -0.25]).recorded()
        model, calls = counting(SCALAR)
        first = replay(model, [1.0], u, [0.8])
        hit = replay(model, [1.0], u, [0.8])
        assert hit is first and len(calls) == 2
        assert not hit.flags.writeable
        assert not stacked_map(model, [1.0], u, [0.8]).flags.writeable
        with pytest.raises(ValueError):
            hit[0, 0] = 5.0
        for theta in np.linspace(0.5, 2.0, 3 * MEMO_SIZE):
            replay(model, [1.0], u, [theta])
            assert len(u.memo.replays) <= MEMO_SIZE
        assert len(u.memo.replays) == MEMO_SIZE
        # The least recently used entry went first: 0.8 is gone, the last theta is not.
        replay(model, [1.0], u, [2.0])
        assert len(calls) == 2 + 3 * 2 * MEMO_SIZE
        replay(model, [1.0], u, [0.8])
        assert len(calls) == 2 + 3 * 2 * MEMO_SIZE + 2

    def test_a_plain_sequence_is_not_memoized(self):
        model, calls = counting(SCALAR)
        u = seq([0.5, -0.25])
        a = replay(model, [1.0], u, [0.8])
        b = replay(model, [1.0], u, [0.8])
        assert len(calls) == 4 and a.flags.writeable and np.array_equal(a, b)

    def test_recorded_copy_is_immune_to_the_source_array(self):
        source = np.array([[0.5], [-0.25]])
        u = InputSequence(0, source)
        rec = u.recorded()
        assert rec.recorded() is rec
        assert not rec.inputs.flags.writeable and not np.shares_memory(rec.inputs, source)
        before = replay(SCALAR, [1.0], rec, [0.8]).copy()
        source[:] = 7.0
        assert np.array_equal(replay(SCALAR, [1.0], rec, [0.8]), before)
        assert np.array_equal(before, simulate(SCALAR, [1.0], seq([0.5, -0.25]), [0.8]).states)
        with pytest.raises(ValueError):
            rec.inputs[0, 0] = 1.0

    def test_hit_skips_the_checks_only_of_an_equal_call(self):
        u = seq([0.5]).recorded()
        replay(SCALAR, [1.0], u, [0.8])
        with pytest.raises(DimensionMismatch, match="theta"):
            replay(SCALAR, [1.0], u, [[0.8]])
        with pytest.raises(DimensionMismatch, match="initial state"):
            replay(SCALAR, [[1.0]], u, [0.8])


class TestStackedMap:
    def test_single_step(self):
        out = stacked_map(SCALAR, [1.0], seq([0.5]), [0.8])
        assert_allclose(out, [1.3], atol=1e-12)

    def test_two_steps(self):
        out = stacked_map(SCALAR, [1.0], seq([0.5, 0.0]), [0.8])
        assert_allclose(out, [1.3, 1.04], atol=1e-12)

    def test_prefix_property_exact(self):
        rng = np.random.default_rng(5)
        for model in (SCALAR, AFFINE, BILINEAR):
            for _ in range(10):
                x0 = rng.uniform(-1.5, 1.5, model.state_dim)
                theta = rng.uniform(model.param_lower, model.param_upper)
                inputs = rng.uniform(-1, 1, (6, model.input_dim))
                short = stacked_map(model, x0, seq(inputs[:2], model.input_dim), theta)
                long = stacked_map(model, x0, seq(inputs, model.input_dim), theta)
                assert np.array_equal(short, long[: short.size])


class TestTerminalMap:
    def test_empty_block_is_last_stacked_entry(self):
        hist = seq([0.5])
        last = stacked_map(SCALAR, [1.0], hist, [0.8])[-1]
        out = terminal_map(SCALAR, [1.0], hist, InputSequence(1, np.zeros((0, 1))), [0.8])
        assert out[0] == last

    def test_hand_arithmetic(self):
        out = terminal_map(SCALAR, [1.0], seq([0.5]), seq([-1.04], start=1), [0.8])
        assert_allclose(out, [0.0], atol=1e-12)

    def test_bilinear_cancellation(self):
        # u = -th1/(1+th2) sends x=1 to 0 in one step
        u = -0.8 / 1.3
        out = terminal_map(BILINEAR, [1.0], InputSequence(0, np.zeros((0, 1))), seq([u]), [0.8, 0.3])
        assert_allclose(out, [0.0], atol=1e-12)

    def test_block_must_start_where_history_ends(self):
        with pytest.raises(ValueError):
            terminal_map(SCALAR, [1.0], seq([0.5]), seq([0.0], start=3), [0.8])


class TestJacobianTheta:
    def test_scalar_sensitivity_is_initial_state(self):
        jac = jacobian_theta(SCALAR, [2.0], seq([0.7]), [0.9])
        assert_allclose(jac, [[2.0]], atol=1e-8)

    def test_zero_state_zero_sensitivity(self):
        jac = jacobian_theta(SCALAR, [0.0], seq([0.0]), [0.9])
        assert_allclose(jac, [[0.0]], atol=1e-12)

    def test_affine_two_step_hand_matrix(self):
        # From x0=(1,-0.5), inputs ((0.3,0.2),(0,0)), theta=(0.5,0.5); rows by
        # hand differentiation of the two-step composition.
        jac = jacobian_theta(
            AFFINE, [1.0, -0.5], seq([[0.3, 0.2], [0.0, 0.0]], dim=2), [0.5, 0.5]
        )
        expected = np.array([[0.0, 0.0], [1.0, -0.5], [1.0, -0.5], [0.3, 0.2]])
        assert_allclose(jac, expected, atol=1e-6)

    def test_one_sided_at_box_edge(self):
        # Stencil is clipped at the upper bound; still exact for a linear map.
        jac = jacobian_theta(SCALAR, [1.5], seq([0.2]), [2.0])
        assert_allclose(jac, [[1.5]], atol=1e-8)

    def test_rejects_theta_outside_box(self):
        with pytest.raises(ValueError):
            jacobian_theta(SCALAR, [1.0], seq([0.0]), [3.0])


class TestJacobianInput:
    def test_single_step_slope_one(self):
        jac = jacobian_input(SCALAR, [1.0], seq([0.3]), [0.8])
        assert_allclose(jac, [[1.0]], atol=1e-8)

    def test_two_step_chain_rule(self):
        jac = jacobian_input(SCALAR, [1.0], seq([0.3, -0.2]), [0.8])
        assert_allclose(jac, [[0.8, 1.0]], atol=1e-6)

    def test_bilinear_gain(self):
        jac = jacobian_input(BILINEAR, [1.0], seq([0.0]), [0.5, 0.3])
        assert_allclose(jac, [[1.3]], atol=1e-6)

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            jacobian_input(SCALAR, [1.0], InputSequence(0, np.zeros((0, 1))), [0.8])


class TestNumericRank:
    def test_identity(self):
        assert numeric_rank(np.eye(2)) == 2

    def test_all_ones(self):
        assert numeric_rank(np.ones((2, 2))) == 1

    def test_zero_matrix(self):
        assert numeric_rank(np.zeros((2, 2))) == 0

    def test_invariance_under_permutation_and_rotation(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = rng.standard_normal((4, 3))
            m[:, 2] = m[:, 0] + m[:, 1]  # force rank 2
            r = numeric_rank(m)
            assert r == 2
            perm = rng.permutation(4)
            assert numeric_rank(m[perm]) == r
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            assert numeric_rank(q @ m) == r


class TestRankChecks:
    def test_scalar_excitation_passes(self):
        report = excitation_rank_check(SCALAR, seq([0.0]), [([1.0], [0.9])])
        assert report.passed
        assert_allclose(report.min_singular_value, 1.0, atol=1e-6)

    def test_scalar_zero_state_fails(self):
        report = excitation_rank_check(SCALAR, seq([0.0]), [([0.0], [0.9])])
        assert not report.passed
        assert report.min_singular_value == 0.0

    def test_affine_grid_passes(self):
        spec = get_model("affine_2d")
        states = [np.array(v) for v in ([1.0, 0.0], [1.0, 1.0], [2.0, -1.0])]
        thetas = [np.array(v) for v in ([0.25, 0.25], [0.5, 0.25], [0.9, 0.4])]
        samples = [(x, th) for x in states for th in thetas]
        report = excitation_rank_check(spec.model, spec.excitation, samples)
        assert report.passed
        # Independent route: the analytic sensitivities must be rank 2 as well.
        for x, th in samples:
            analytic = spec.oracle.stacked_jacobian(x, spec.excitation, th)
            assert numeric_rank(analytic) == 2
            assert np.linalg.svd(analytic, compute_uv=False)[1] > 1e-8

    def test_one_svd_per_sample(self, monkeypatch):
        # The rank and the smallest singular value come from the same SVD.
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        spec = get_model("affine_2d")
        samples = [(np.array([1.0, 0.0]), np.array([0.5, 0.25])), (np.array([2.0, -1.0]), np.array([0.9, 0.4]))]
        report = excitation_rank_check(spec.model, spec.excitation, samples)
        assert len(calls) == len(samples)
        monkeypatch.setattr(np.linalg, "svd", svd)
        jacobians = [jacobian_theta(spec.model, x, spec.excitation, th) for x, th in samples]
        sigmas = [np.linalg.svd(m, compute_uv=False)[1] for m in jacobians]
        assert report.min_singular_value == min(sigmas)

    def test_controllability_scalar(self):
        assert controllability_rank_check(SCALAR, [5.0], [1.7], seq([0.0]))

    def test_controllability_bilinear_singular_state(self):
        # 1 + 0.4*(-2.5) = 0: the input gain vanishes
        assert not controllability_rank_check(BILINEAR, [-2.5], [0.5, 0.4], seq([0.0]))

    def test_controllability_affine_two_steps(self):
        block = seq([[0.0, 0.0], [0.0, 0.0]], dim=2)
        assert controllability_rank_check(AFFINE, [1.0, 1.0], [0.5, 0.25], block)


class TestFdJacobian:
    def test_matches_analytic_quadratic(self):
        def f(v):
            return np.array([v[0] ** 2 + v[1], 3.0 * v[1]])

        jac = fd_jacobian(f, np.array([1.5, -2.0]))
        assert_allclose(jac, [[3.0, 1.0], [0.0, 3.0]], atol=1e-6)

    def test_degenerate_box_gives_zero_column(self):
        jac = fd_jacobian(lambda v: v, np.array([1.0]), lower=np.array([1.0]), upper=np.array([1.0]))
        assert_allclose(jac, [[0.0]])

    def test_centre_evaluated_only_when_every_coordinate_is_pinned(self):
        points = []

        def f(v):
            points.append(v.copy())
            return np.array([v[0] * v[1], v[0], 2.0])

        x = np.array([1.0, 2.0])
        jac = fd_jacobian(f, x)
        assert len(points) == 4 and not any(np.array_equal(p, x) for p in points)
        assert_allclose(jac, [[2.0, 1.0], [1.0, 0.0], [0.0, 0.0]], atol=1e-8)
        points.clear()
        jac = fd_jacobian(f, x, lower=np.array([1.0, 0.0]), upper=np.array([1.0, 5.0]))
        assert len(points) == 2
        assert_allclose(jac, [[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]], atol=1e-8)
        points.clear()
        jac = fd_jacobian(f, x, lower=x, upper=x)
        assert len(points) == 1 and np.array_equal(points[0], x)
        assert np.array_equal(jac, np.zeros((3, 2)))


class TestPlantModelDimensions:
    @pytest.mark.parametrize("name", ["state_dim", "input_dim", "param_dim"])
    @pytest.mark.parametrize("bad", [1.5, 1.0, True, "2", None, 0, -1])
    def test_non_integer_boolean_or_small_dimensions_rejected(self, name, bad):
        dims = {"state_dim": 1, "input_dim": 1, "param_dim": 1, name: bad}
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            PlantModel(**dims, transition=SCALAR.transition, param_box=[[0.5, 2.0]], target=[0.0])

    def test_numpy_integer_dimensions_accepted_as_int(self):
        model = PlantModel(np.int64(2), np.int32(2), np.int64(2), AFFINE.transition, AFFINE.param_box, [0.0, 0.0])
        assert (model.state_dim, model.input_dim, model.param_dim) == (2, 2, 2)
        assert all(type(d) is int for d in (model.state_dim, model.input_dim, model.param_dim))
        states = simulate(model, [1.0, 0.0], seq([[0.5, 0.0], [0.0, 0.5]], dim=2), [0.5, 0.25]).states
        ref = simulate(AFFINE, [1.0, 0.0], seq([[0.5, 0.0], [0.0, 0.5]], dim=2), [0.5, 0.25]).states
        assert np.array_equal(bits(states), bits(ref))

    @pytest.mark.parametrize(
        "box", [[[np.nan, 2.0]], [[0.5, np.nan]], [[np.nan, np.nan]], [[0.5, np.inf]], [[-np.inf, 2.0]]]
    )
    def test_non_finite_param_box_rejected(self, box):
        with pytest.raises(ValueError, match="param_box rows must be finite"):
            PlantModel(1, 1, 1, SCALAR.transition, box, [0.0])

    @pytest.mark.parametrize("target", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected(self, target):
        with pytest.raises(ValueError, match="target must be finite"):
            PlantModel(1, 1, 1, SCALAR.transition, [[0.5, 2.0]], [target])


def reference_terminal_map(model, x0, u_hist, block, theta):
    """The history, then the block, each through its own ``simulate`` call."""
    x_here = simulate(model, x0, u_hist, theta).states[-1]
    return simulate(model, x_here, block, theta).states[-1]


def reference_jacobian_input(model, x, block, theta):
    """Every stencil point through its own ``simulate`` call."""
    horizon = len(block)

    def terminal(u_flat):
        return simulate(model, x, InputSequence(block.start_time, u_flat.reshape(horizon, model.input_dim)),
                        theta).states[-1]

    return fd_jacobian(terminal, block.flat)


def _lean_cases(rng):
    """Random cases per plant, then blocks that overflow to inf and nan."""
    cases = []
    for model in (SCALAR, AFFINE, BILINEAR):
        for _ in range(8):
            T = int(rng.integers(0, 6))
            horizon = int(rng.integers(1, 4))
            cases.append((
                model,
                rng.uniform(-2, 2, model.state_dim),
                seq(rng.uniform(-1, 1, (T, model.input_dim)), model.input_dim),
                seq(rng.uniform(-1, 1, (horizon, model.input_dim)), model.input_dim, start=T),
                rng.uniform(model.param_lower, model.param_upper),
            ))
    cases += [
        (SCALAR, np.array([1e308]), seq([0.0]), seq([[0.0]] * 3, start=1), np.array([2.0])),
        (AFFINE, np.array([1e308, -1e308]), seq([[0.0, 0.0]], 2), seq([[0.0, 0.0]] * 3, 2, start=1),
         np.array([1.0, 1.0])),
        (BILINEAR, np.array([1e308]), seq([1.0]), seq([[1.0], [-1.0]], start=1), np.array([1.0, 0.4])),
    ]
    return cases


class TestLeanBlockPath:
    """``terminal_map``'s block and ``jacobian_input``'s stencil run the step
    loop directly; they must equal a ``simulate`` call per evaluation."""

    def test_bit_for_bit_against_a_simulate_call_per_evaluation(self):
        seen = set()
        with np.errstate(all="ignore"):
            for model, x0, hist, block, theta in _lean_cases(np.random.default_rng(25)):
                lean = terminal_map(model, x0, hist, block, theta)
                assert np.array_equal(bits(lean), bits(reference_terminal_map(model, x0, hist, block, theta)))
                jac = jacobian_input(model, x0, block, theta)
                assert np.array_equal(bits(jac), bits(reference_jacobian_input(model, x0, block, theta)))
                seen |= {"inf"} if np.isinf(lean).any() else set()
                seen |= {"nan"} if np.isnan(jac).any() else set()
        assert seen == {"inf", "nan"}

    def test_malformed_second_step_still_raises(self):
        def f(x, u, th):
            return x + u if x[0] < 1.5 else np.array([x[0], x[0]])

        model = PlantModel(1, 1, 1, f, [[0.0, 1.0]], [0.0])
        block = seq([1.0, 0.0], start=1)
        with pytest.raises(DimensionMismatch, match="transition output"):
            jacobian_input(model, [1.0], block, [0.5])
        with pytest.raises(DimensionMismatch, match="transition output"):
            terminal_map(model, [1.0], seq([0.0]), block, [0.5])

    def test_arguments_checked_once_per_call(self):
        block = seq([0.5, 0.5])
        with pytest.raises(DimensionMismatch, match="theta"):
            jacobian_input(SCALAR, [1.0], block, [0.8, 0.1])
        with pytest.raises(DimensionMismatch, match="state"):
            jacobian_input(SCALAR, [1.0, 2.0], block, [0.8])
        with pytest.raises(DimensionMismatch, match="input must have shape"):
            jacobian_input(AFFINE, [1.0, 0.0], block, [0.5, 0.25])
        # An empty history checks no theta; the block does.
        with pytest.raises(DimensionMismatch, match="theta"):
            terminal_map(SCALAR, [1.0], InputSequence(0, np.zeros((0, 1))), block, [0.8, 0.1])
        with pytest.raises(DimensionMismatch, match="input must have shape"):
            terminal_map(AFFINE, [1.0, 0.0], InputSequence(0, np.zeros((0, 2))), block, [0.5, 0.25])

    def test_block_end_map_checks_once_and_equals_a_simulate_call(self):
        with pytest.raises(DimensionMismatch, match="theta"):
            block_end_map(SCALAR, [1.0], [0.8, 0.1], 2)
        with pytest.raises(DimensionMismatch, match="state"):
            block_end_map(AFFINE, [1.0], [0.5, 0.25], 2)
        with np.errstate(all="ignore"):
            for model, x0, _, block, theta in _lean_cases(np.random.default_rng(26)):
                end = block_end_map(model, x0, theta, len(block))
                blank = InputSequence(0, np.zeros((0, model.input_dim)))
                ref = reference_terminal_map(model, x0, blank, InputSequence(0, block.inputs), theta)
                assert np.array_equal(bits(end(block.flat.copy())), bits(ref))

    def test_transitions_per_call_unchanged(self):
        for base in (SCALAR, AFFINE, BILINEAR):
            model, calls = counting(base)
            x = np.ones(model.state_dim)
            theta = model.param_lower
            for horizon in (1, 2, 3):
                block = seq(np.full((horizon, model.input_dim), 0.25), model.input_dim)
                del calls[:]
                jacobian_input(model, x, block, theta)
                # Two stencil points per input coordinate, one transition per step.
                assert len(calls) == 2 * horizon * model.input_dim * horizon
                del calls[:]
                terminal_map(model, x, InputSequence(0, np.zeros((0, model.input_dim))), block, theta)
                assert len(calls) == horizon


# (x, u, theta) -> next state, written with numpy scalars as the benchmark
# plants compute it. A rewrite of a transition (say, over Python floats) must
# keep these bits, NaN signs included.
PINNED_FORMULAS = {
    "scalar_linear": lambda x, u, th: np.array([th[0] * x[0] + u[0]]),
    "affine_2d": lambda x, u, th: np.array([x[1] + u[0], th[0] * x[0] + th[1] * x[1] + u[1]]),
    "bilinear_scalar": lambda x, u, th: np.array([th[0] * x[0] + (1.0 + th[1] * x[0]) * u[0]]),
}
SPECIAL_VALUES = np.array([-np.inf, np.inf, np.nan, -np.nan, -0.0, 0.0, 1e308, -1e308, 5e-324, 1.0, -0.5])


@pytest.mark.parametrize("name", sorted(PINNED_FORMULAS))
def test_benchmark_transition_bits_pinned(name):
    model = get_model(name).model
    formula = PINNED_FORMULAS[name]
    rng = np.random.default_rng([25, len(name)])
    cases = [(np.full(model.state_dim, -np.inf), np.full(model.input_dim, np.nan), np.full(model.param_dim, -0.0))]
    for _ in range(3000):
        cases.append(tuple(rng.choice(SPECIAL_VALUES, dim)
                           for dim in (model.state_dim, model.input_dim, model.param_dim)))
    nan_results = 0
    with np.errstate(all="ignore"):
        for x, u, th in cases:
            got = model.transition(x, u, th)
            assert np.array_equal(bits(got), bits(formula(x, u, th))), (x, u, th)
            nan_results += bool(np.isnan(got).any())
    assert nan_results > 100
