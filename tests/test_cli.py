import csv
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from regulate.cli import (
    ExperimentConfig,
    ParseError,
    ValidationError,
    load_config,
    main,
    replay_verify,
    run_experiment,
)

EXACT_SCALAR = {
    "model": "scalar_linear",
    "theta_true": [0.8],
    "x0": [1.0],
    "algorithm": "exact",
    "excitation": [[0.5]],
    "seed": 0,
}

INEXACT_BILINEAR = {
    "model": "bilinear_scalar",
    "theta_true": [0.8, 0.3],
    "x0": [1.0],
    "algorithm": "inexact",
    "beta": 0.5,
    "mu0": 1.0,
    "kappa0": 1e-6,
    "eps_fin": 1e-3,
    "seed": 0,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


class TestLoadConfig:
    def test_minimal_exact_config_gets_defaults(self, tmp_path):
        path = write_config(tmp_path, {"model": "scalar_linear", "theta_true": [0.8], "x0": [1.0]})
        config = load_config(path)
        assert config.algorithm == "exact"
        assert config.tol_exact == 1e-10
        assert config.seed == 0
        assert config.max_blocks == 50
        assert config.excitation is None

    def test_beta_out_of_range(self, tmp_path):
        payload = dict(INEXACT_BILINEAR, beta=1.0)
        path = write_config(tmp_path, payload)
        with pytest.raises(ValidationError) as excinfo:
            load_config(path)
        assert "0<beta<1" in str(excinfo.value)

    def test_theta_outside_box(self, tmp_path):
        path = write_config(tmp_path, dict(EXACT_SCALAR, theta_true=[3.0]))
        with pytest.raises(ValidationError) as excinfo:
            load_config(path)
        assert "theta_true" in str(excinfo.value)

    def test_all_problems_reported_together(self, tmp_path):
        payload = dict(INEXACT_BILINEAR, beta=1.5, mu0=-1.0, theta_true=[5.0, 5.0])
        path = write_config(tmp_path, payload)
        with pytest.raises(ValidationError) as excinfo:
            load_config(path)
        assert len(excinfo.value.problems) >= 3

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_config(path)

    @pytest.mark.parametrize(
        "field", ["tol_exact", "mu0", "kappa0", "eps_fin", "seed", "max_blocks", "max_inner_retries"]
    )
    def test_null_in_a_numeric_field(self, tmp_path, capsys, field):
        # Only n_max and rho_max may be null, which means the benchmark's bound.
        config_path = write_config(tmp_path, dict(INEXACT_BILINEAR, **{field: None}))
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{field}: must be a number (got None)" in err

    def test_null_bounds_take_the_benchmark_defaults(self, tmp_path):
        config = load_config(write_config(tmp_path, dict(EXACT_SCALAR, n_max=None, rho_max=None)))
        assert config.n_max is None and config.rho_max is None

    def test_unknown_model_and_field(self, tmp_path):
        path = write_config(tmp_path, {"model": "pendulum", "theta_true": [1.0], "x0": [0.0], "bogus": 1})
        with pytest.raises(ValidationError) as excinfo:
            load_config(path)
        message = str(excinfo.value)
        assert "model" in message and "bogus" in message


class TestRunExperiment:
    def test_exact_scalar_logs(self, tmp_path):
        config = load_config(write_config(tmp_path, dict(EXACT_SCALAR, out_dir=str(tmp_path / "out"))))
        assert run_experiment(config) == 0
        blocks = read_csv(tmp_path / "out" / "blocks.csv")
        assert blocks[0] == ["k", "T_k", "theta_1", "mu_k", "kappa_k", "N_k",
                            "estimate_residual", "inclusion_retries"]
        assert len(blocks) == 2  # header + one post-excitation block
        assert blocks[1][0] == "1"
        assert abs(float(blocks[1][2]) - 0.8) <= 1e-9
        assert blocks[1][3] == "" and blocks[1][4] == ""  # no schedule in exact mode
        traj = read_csv(tmp_path / "out" / "trajectory.csv")
        assert traj[0] == ["t", "x_1", "u_1", "block_index"]
        assert len(traj) == 4  # header + t=0,1,2
        assert traj[-1][2] == "" and traj[-1][3] == ""  # no input at the final time
        summary = json.loads((tmp_path / "out" / "summary.jsonl").read_text().strip())
        assert summary["terminated"] is True
        assert summary["blocks"] == 1

    def test_block_cap_exit_code(self, tmp_path):
        config = load_config(
            write_config(tmp_path, dict(EXACT_SCALAR, max_blocks=0, out_dir=str(tmp_path / "out")))
        )
        assert run_experiment(config) == 2
        blocks = read_csv(tmp_path / "out" / "blocks.csv")
        assert len(blocks) == 1  # header only
        summary = json.loads((tmp_path / "out" / "summary.jsonl").read_text().strip())
        assert summary["terminated"] is False

    def test_solver_infeasibility_exit_code(self, tmp_path):
        payload = dict(EXACT_SCALAR, theta_true=[2.0], n_max=1, rho_max=0.1,
                       out_dir=str(tmp_path / "out"))
        config = load_config(write_config(tmp_path, payload))
        assert run_experiment(config) == 3
        # partial logs are still flushed
        assert (tmp_path / "out" / "trajectory.csv").exists()

    def test_inexact_schedule_columns(self, tmp_path):
        config = load_config(
            write_config(tmp_path, dict(INEXACT_BILINEAR, out_dir=str(tmp_path / "out")))
        )
        assert run_experiment(config) == 0
        rows = read_csv(tmp_path / "out" / "blocks.csv")[1:]
        assert len(rows) >= 2
        mu = [float(r[4]) for r in rows]
        kappa = [float(r[5]) for r in rows]
        assert all(b < a for a, b in zip(mu, mu[1:]))
        assert all(b > a for a, b in zip(kappa, kappa[1:]))

    def test_deterministic_csv_bytes(self, tmp_path):
        for run in ("a", "b"):
            config = load_config(
                write_config(tmp_path, dict(INEXACT_BILINEAR, out_dir=str(tmp_path / run)), f"{run}.json")
            )
            assert run_experiment(config) == 0
        for name in ("trajectory.csv", "blocks.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestReplayVerify:
    def run_scalar(self, tmp_path):
        config = load_config(write_config(tmp_path, dict(EXACT_SCALAR, out_dir=str(tmp_path / "out"))))
        assert run_experiment(config) == 0
        return config, tmp_path / "out" / "trajectory.csv"

    def test_untouched_logs_verify(self, tmp_path):
        config, traj = self.run_scalar(tmp_path)
        assert replay_verify(traj, config)
        rows = read_csv(traj)
        assert abs(float(rows[-1][1])) <= 1e-10  # final state on target

    def test_tampered_log_detected(self, tmp_path):
        config, traj = self.run_scalar(tmp_path)
        rows = read_csv(traj)
        rows[2][1] = format(float(rows[2][1]) + 1e-6, ".16e")
        with open(traj, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)
        assert not replay_verify(traj, config)

    def test_missing_file_raises(self, tmp_path):
        config = load_config(write_config(tmp_path, EXACT_SCALAR))
        with pytest.raises(FileNotFoundError):
            replay_verify(tmp_path / "nope.csv", config)


class TestMain:
    def test_run_and_verify_round_trip(self, tmp_path):
        config_path = write_config(tmp_path, EXACT_SCALAR)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        assert main(["verify", "--config", str(config_path), "--out", str(out)]) == 0

    def test_config_error_exit_code(self, tmp_path):
        config_path = write_config(tmp_path, dict(EXACT_SCALAR, theta_true=[9.0]))
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 3

    def test_check_excitation_pass(self, tmp_path, capsys):
        config_path = write_config(tmp_path, EXACT_SCALAR)
        assert main(["check-excitation", "--config", str(config_path)]) == 0
        assert "rank check: pass" in capsys.readouterr().out

    def test_check_excitation_degenerate(self, tmp_path, capsys):
        payload = dict(EXACT_SCALAR, theta_true=[1.0], x0=[0.0], excitation=[[0.0]])
        config_path = write_config(tmp_path, payload)
        assert main(["check-excitation", "--config", str(config_path)]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_negative_seed_in_config(self, tmp_path, capsys):
        config_path = write_config(tmp_path, dict(EXACT_SCALAR, seed=-1))
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "seed" in err

    def test_negative_seed_override(self, tmp_path, capsys):
        config_path = write_config(tmp_path, EXACT_SCALAR)
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out"), "--seed", "-1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "seed" in err
        assert not (tmp_path / "out").exists()

    def test_verify_without_trajectory(self, tmp_path, capsys):
        config_path = write_config(tmp_path, EXACT_SCALAR)
        (tmp_path / "empty").mkdir()
        assert main(["verify", "--config", str(config_path), "--out", str(tmp_path / "empty")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "trajectory.csv" in err

    @pytest.mark.parametrize("corrupt", ["non-numeric cell", "ragged row"])
    def test_verify_on_corrupt_trajectory(self, tmp_path, capsys, corrupt):
        config_path = write_config(tmp_path, EXACT_SCALAR)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        rows = read_csv(out / "trajectory.csv")
        if corrupt == "non-numeric cell":
            rows[-1][1] = "abc"
        else:
            rows[2] = rows[2][:-1]
        with open(out / "trajectory.csv", "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)
        capsys.readouterr()
        assert main(["verify", "--config", str(config_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_non_finite_jacobian_reaches_no_lapack_routine(self, tmp_path, capfd):
        # From x0 = 1e308 every replay overflows; the solver must stop before
        # LAPACK sees the non-finite Jacobian and prints to standard output.
        config_path = write_config(tmp_path, dict(EXACT_SCALAR, x0=[1e308]))
        with np.errstate(all="ignore"):
            assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 3
        captured = capfd.readouterr()
        assert "DLASCL" not in captured.out
        assert captured.err.startswith("solver failed:")

    def test_diverged_run_summary_is_strict_json(self, tmp_path):
        config_path = write_config(tmp_path, dict(EXACT_SCALAR, x0=[1e308]))
        with np.errstate(all="ignore"):
            assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 3

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        text = (tmp_path / "out" / "summary.jsonl").read_text(encoding="utf-8")
        summary = json.loads(text, parse_constant=reject)
        assert summary["terminated"] is False
        assert summary["final_error"] is None

    def test_seed_override(self, tmp_path):
        config_path = write_config(tmp_path, INEXACT_BILINEAR)
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "s1"), "--seed", "9"]) == 0
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "s2"), "--seed", "9"]) == 0
        assert (tmp_path / "s1" / "blocks.csv").read_bytes() == (tmp_path / "s2" / "blocks.csv").read_bytes()
