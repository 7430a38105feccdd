import numpy as np
import pytest
from numpy.testing import assert_allclose

import regulate.regulator
from regulate import (
    ControlPlan,
    Infeasible,
    MaxBlocksExceeded,
    MaxInnerRetriesExceeded,
    ObservationHistory,
    RegulatorSchedule,
    SynthesisBounds,
    get_model,
    inclusion_check,
    run_exact,
    run_inexact,
    simulate,
)
from regulate.plant import StateSequence, as_inputs

SCALAR = get_model("scalar_linear")
AFFINE = get_model("affine_2d")
BILINEAR = get_model("bilinear_scalar")


class TestInclusionCheck:
    @staticmethod
    def affine_in_theta_setup():
        # With x(0)=0 the recorded step contributes 0.7 and the candidate
        # block adds u; the terminal map is theta*0.7 + 0.2, slope 0.7.
        model = SCALAR.model
        hist = ObservationHistory(as_inputs([0.7], 1), StateSequence(0, np.array([[0.0], [0.7]])))
        plan = ControlPlan(1, as_inputs([0.2], 1, start_time=1), 0.0)
        return model, hist, plan

    def test_zero_radius_is_true(self):
        model, hist, plan = self.affine_in_theta_setup()
        assert inclusion_check(model, hist, [1.25], plan, radius=0.0, bound=1e-9)

    def test_analytic_slope_threshold(self):
        model, hist, plan = self.affine_in_theta_setup()
        # true iff 1.5 * 0.7 * r <= b
        assert inclusion_check(model, hist, [1.25], plan, radius=0.1, bound=0.2, seed=0)
        assert not inclusion_check(model, hist, [1.25], plan, radius=0.1, bound=0.08, seed=0)

    def test_huge_bound_is_true(self):
        model, hist, plan = self.affine_in_theta_setup()
        assert inclusion_check(model, hist, [1.25], plan, radius=2.0, bound=1e6, seed=0)

    @pytest.mark.parametrize("radius", [-1.0, float("nan")])
    def test_domain(self, radius):
        model, hist, plan = self.affine_in_theta_setup()
        with pytest.raises(ValueError, match="radius"):
            inclusion_check(model, hist, [1.25], plan, radius=radius, bound=1.0)
        with pytest.raises(ValueError):
            inclusion_check(model, hist, [1.25], plan, radius=1.0, bound=0.0)


class TestRunExact:
    @pytest.mark.parametrize("tol_exact", [0.0, float("nan"), float("inf")])
    def test_tol_exact_must_be_positive_and_finite(self, tol_exact):
        with pytest.raises(ValueError, match="tol_exact"):
            run_exact(SCALAR.model, [0.8], [1.0], SCALAR.excitation, bounds_fn=lambda x: SCALAR.bounds,
                      tol_exact=tol_exact)

    def test_scalar_full_hand_trace(self):
        out = run_exact(
            SCALAR.model, [0.8], [1.0], SCALAR.excitation, bounds_fn=lambda x: SCALAR.bounds
        )
        assert out.terminated
        assert len(out.blocks) == 1
        rec = out.blocks[0]
        assert rec.start_time == 1
        assert_allclose(rec.theta, [0.8], atol=1e-9)
        assert_allclose(rec.block.inputs, [[-1.04]], atol=1e-8)
        assert_allclose(out.trajectory.states[1], [1.3], atol=1e-12)
        assert out.final_error <= 1e-10

    def test_already_at_fixed_target(self):
        # x0 = x* = 0 with zero excitation: the plant never leaves the target,
        # so the loop exits before any control block. The excitation carries
        # no parameter information, which is warned about.
        with pytest.warns(UserWarning):
            out = run_exact(
                SCALAR.model, [0.8], [0.0], as_inputs([0.0], 1),
                bounds_fn=lambda x: SCALAR.bounds,
            )
        assert out.terminated
        assert len(out.blocks) == 0
        assert out.final_error == 0.0

    def test_affine_two_parameter_recovery(self):
        out = run_exact(
            AFFINE.model, [0.5, 0.25], [1.0, 0.0], AFFINE.excitation,
            bounds_fn=lambda x: AFFINE.bounds,
        )
        assert out.terminated
        assert len(out.blocks) <= 2
        assert out.final_error <= 1e-9
        assert_allclose(out.blocks[-1].theta, [0.5, 0.25], atol=1e-8)

    def test_exact_estimate_corollary(self):
        # Once the estimate matches the truth to solver tolerance, the very
        # next measured state is on target to the same tolerance.
        out = run_exact(
            SCALAR.model, [0.8], [1.0], SCALAR.excitation, bounds_fn=lambda x: SCALAR.bounds
        )
        rec = out.blocks[0]
        assert abs(rec.theta[0] - 0.8) <= 1e-10
        assert np.linalg.norm(rec.x_end - SCALAR.model.target) <= 1e-10

    def test_block_cap(self):
        with pytest.raises(MaxBlocksExceeded) as excinfo:
            run_exact(
                SCALAR.model, [0.8], [1.0], SCALAR.excitation,
                bounds_fn=lambda x: SCALAR.bounds, max_blocks=0,
            )
        partial = excinfo.value.partial_outcome
        assert not partial.terminated
        assert len(partial.blocks) == 0
        assert len(partial.trajectory.states) == 2  # excitation applied

    def test_solver_failure_carries_block_context(self):
        with pytest.raises(Infeasible) as excinfo:
            run_exact(
                SCALAR.model, [2.0], [1.0], SCALAR.excitation,
                bounds_fn=lambda x: SynthesisBounds(1, 0.1),
            )
        assert excinfo.value.block_index == 1
        partial = excinfo.value.partial_outcome
        assert not partial.terminated
        # The estimate replayed the history, but the log keeps no replay memo.
        assert partial.inputs._replays is None and not partial.inputs.inputs.flags.writeable


class TestRunInexact:
    def test_scalar_terminates_within_ball(self):
        out = run_inexact(
            SCALAR.model, [0.8], [1.0], SCALAR.excitation,
            RegulatorSchedule(0.5, 1.0, 1.0, 1e-3),
            bounds_fn=lambda x: SCALAR.bounds,
        )
        assert out.terminated
        assert len(out.blocks) <= 3
        assert out.final_error < 1e-3

    def test_large_ball_terminates_without_blocks(self):
        out = run_inexact(
            SCALAR.model, [0.8], [1.0], SCALAR.excitation,
            RegulatorSchedule(0.5, 1.0, 1.0, 10.0),
            bounds_fn=lambda x: SCALAR.bounds,
        )
        assert out.terminated
        assert len(out.blocks) == 0

    def test_schedule_laws_hold_in_log(self):
        sched = RegulatorSchedule(0.5, 1.0, 1e-6, 1e-3)
        out = run_inexact(
            BILINEAR.model, [0.8, 0.3], [1.0], BILINEAR.excitation, sched,
            bounds_fn=lambda x: BILINEAR.bounds,
        )
        assert out.terminated
        assert len(out.blocks) >= 2
        mu_prev, kappa = sched.mu, sched.kappa
        for rec in out.blocks:
            assert rec.mu <= sched.beta * mu_prev * (1 + 1e-15)
            assert (rec.mu == sched.beta * mu_prev) == (rec.inclusion_retries == 0)
            kappa = kappa / sched.beta
            assert rec.kappa == kappa  # bit-exact repeated division
            assert rec.estimate_residual < rec.mu
            mu_prev = rec.mu

    def test_time_bookkeeping_and_replay(self):
        out = run_inexact(
            BILINEAR.model, [0.8, 0.3], [1.0], BILINEAR.excitation,
            RegulatorSchedule(0.5, 1.0, 1.0, 1e-3),
            bounds_fn=lambda x: BILINEAR.bounds,
        )
        t = out.blocks[0].start_time
        for rec in out.blocks:
            assert rec.start_time == t
            t += rec.horizon
        assert len(out.trajectory.states) == t + 1
        replay = simulate(BILINEAR.model, out.trajectory.states[0], out.inputs, [0.8, 0.3])
        assert np.array_equal(replay.states, out.trajectory.states)

    def test_termination_flag_matches_ball_test(self):
        sched = RegulatorSchedule(0.5, 1.0, 1.0, 1e-3)
        out = run_inexact(
            SCALAR.model, [0.8], [1.0], SCALAR.excitation, sched,
            bounds_fn=lambda x: SCALAR.bounds,
        )
        recomputed = np.linalg.norm(out.trajectory.states[-1] - SCALAR.model.target)
        assert out.terminated == (recomputed < sched.eps_fin)

    def test_inner_retry_cap(self):
        # The default schedule needs around a dozen tolerance contractions
        # before the inclusion check accepts; a tight cap must trip instead.
        with pytest.raises(MaxInnerRetriesExceeded) as excinfo:
            run_inexact(
                BILINEAR.model, [0.8, 0.3], [1.0], BILINEAR.excitation,
                RegulatorSchedule(0.5, 1.0, 1.0, 1e-3),
                bounds_fn=lambda x: BILINEAR.bounds,
                max_inner_retries=2,
            )
        assert not excinfo.value.partial_outcome.terminated

    def test_underflowing_tolerance_stops_the_block(self):
        # Half of mu = 5e-324 rounds to 0, so the first block gets no attempt.
        with pytest.raises(MaxInnerRetriesExceeded, match="underflowed to 0") as excinfo:
            run_inexact(
                SCALAR.model, [0.8], [1.0], SCALAR.excitation,
                RegulatorSchedule(0.5, 5e-324, 1.0, 1e-3),
                bounds_fn=lambda x: SCALAR.bounds,
            )
        partial = excinfo.value.partial_outcome
        assert not partial.terminated and partial.blocks == ()
        assert len(partial.trajectory) == len(SCALAR.excitation) + 1

    def test_failed_inclusion_check_carries_its_block_and_log(self, monkeypatch):
        # A failure from the inclusion check leaves at the loop's one except site,
        # like one from the estimate or the synthesis.
        def fail(*_args, **_kwargs):
            raise Infeasible("probe failed")

        monkeypatch.setattr(regulate.regulator, "inclusion_check", fail)
        with pytest.raises(Infeasible, match="probe failed") as excinfo:
            run_inexact(
                SCALAR.model, [0.8], [1.0], SCALAR.excitation,
                RegulatorSchedule(0.5, 1.0, 1.0, 1e-3),
                bounds_fn=lambda x: SCALAR.bounds,
            )
        assert excinfo.value.block_index == 1
        partial = excinfo.value.partial_outcome
        assert not partial.terminated and partial.blocks == ()
        excited = simulate(SCALAR.model, [1.0], SCALAR.excitation, [0.8])
        assert np.array_equal(partial.trajectory.states, excited.states)

    def test_block_cap_zero(self):
        with pytest.raises(MaxBlocksExceeded):
            run_inexact(
                SCALAR.model, [0.8], [1.0], SCALAR.excitation,
                RegulatorSchedule(0.5, 1.0, 1.0, 1e-3),
                bounds_fn=lambda x: SCALAR.bounds, max_blocks=0,
            )

    def test_per_block_invariants(self):
        out = run_inexact(
            BILINEAR.model, [0.8, 0.3], [1.0], BILINEAR.excitation,
            RegulatorSchedule(0.5, 1.0, 1.0, 1e-3),
            bounds_fn=lambda x: BILINEAR.bounds,
        )
        for rec in out.blocks:
            assert rec.estimate_residual < rec.mu
            assert rec.horizon <= BILINEAR.bounds.max_horizon
            assert np.all(np.abs(rec.block.inputs) <= BILINEAR.bounds.max_amplitude)
            assert BILINEAR.model.contains_params(rec.theta, atol=1e-12)


class TestScheduleType:
    def test_validation(self):
        with pytest.raises(ValueError):
            RegulatorSchedule(1.0, 1.0, 1.0, 1e-3)
        with pytest.raises(ValueError):
            RegulatorSchedule(0.5, 0.0, 1.0, 1e-3)
        with pytest.raises(ValueError):
            RegulatorSchedule(0.5, -1.0, 1.0, 1e-3)
        with pytest.raises(ValueError):
            RegulatorSchedule(0.5, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="half"):
            RegulatorSchedule(0.5, 1.0, 1.0, 5e-324)

    @pytest.mark.parametrize("field", ["mu", "kappa", "eps_fin"])
    def test_rejects_infinity(self, field):
        values = dict(beta=0.5, mu=1.0, kappa=1.0, eps_fin=1e-3)
        values[field] = float("inf")
        with pytest.raises(ValueError, match=field):
            RegulatorSchedule(**values)
