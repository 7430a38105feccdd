import csv
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regulate import get_model
from regulate.cli import (
    ParseError,
    ValidationError,
    load_config,
    main,
    replay_verify,
    run_experiment,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")

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


def run_cli_process(command, config_path, *args):
    """Exit code of the CLI run in a separate interpreter: its stderr shows
    what a user sees, which the test runner's warning capture would hide."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONWARNINGS", None)
    argv = [sys.executable, "-m", "regulate.cli", command, "--config", str(config_path), *args]
    return subprocess.run(argv, env=env, check=False).returncode


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
        assert err == "config error: seed: must be >= 0 (got -1)\n"
        assert not (tmp_path / "out").exists()

    def test_overrides_meet_the_config_rules(self, tmp_path):
        config_path = write_config(tmp_path, EXACT_SCALAR)
        config = load_config(config_path, seed=7, out_dir="elsewhere")
        assert (config.seed, config.out_dir) == (7, "elsewhere")
        assert load_config(config_path, seed=None).seed == EXACT_SCALAR["seed"]
        with pytest.raises(ValidationError) as excinfo:
            load_config(config_path, seed=TOO_LARGE, out_dir=1)
        assert excinfo.value.problems == [
            "seed: must be finite (got an integer too large for a double)",
            "out_dir: must be a string (got 1)",
        ]

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_missing_out_dir(self, tmp_path, capsys, command):
        config_path = write_config(tmp_path, EXACT_SCALAR)
        assert main([command, "--config", str(config_path)]) == 3
        assert capsys.readouterr().err == "config error: out_dir: required (set in the config or pass --out)\n"

    def test_verify_without_trajectory(self, tmp_path, capsys):
        config_path = write_config(tmp_path, EXACT_SCALAR)
        (tmp_path / "empty").mkdir()
        assert main(["verify", "--config", str(config_path), "--out", str(tmp_path / "empty")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "trajectory.csv" in err

    @pytest.mark.parametrize(
        "corrupt",
        ["non-numeric cell", "ragged row", "blank u_2 cell", "blank input cells", "header only", "truncated"],
    )
    def test_verify_on_corrupt_trajectory(self, tmp_path, capsys, corrupt):
        # Only the last row may leave its input cells blank, and it must: a
        # blank one at t = 0, a log without x(0) or one cut before its final
        # row is a malformed log, not a replay mismatch.
        config_path = write_config(tmp_path, AFFINE if corrupt.startswith("blank") else EXACT_SCALAR)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        rows = read_csv(out / "trajectory.csv")
        if corrupt == "non-numeric cell":
            rows[-1][1] = "abc"
        elif corrupt == "ragged row":
            rows[2] = rows[2][:-1]
        elif corrupt == "blank u_2 cell":
            rows[1][4] = ""
        elif corrupt == "blank input cells":
            rows[1][3:5] = ["", ""]
        elif corrupt == "header only":
            rows = rows[:1]
        else:
            rows = rows[:-1]
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

    def test_overflowing_run_prints_no_runtime_warning(self, tmp_path, capfd):
        # From x0 = 1e308 the run's error, the plant and the estimator's
        # stencils overflow; the run says only why it stopped, and verify and
        # check-excitation only their verdicts.
        config_path = write_config(tmp_path, dict(EXACT_SCALAR, x0=[1e308], algorithm="inexact"))
        out = str(tmp_path / "out")
        assert run_cli_process("run", config_path, "--out", out) == 3
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "solver failed: best residual inf above tolerance 5.000e-01 "
            "after 3 iterations over all starts\n"
        )
        assert run_cli_process("verify", config_path, "--out", out) == 0
        assert capfd.readouterr() == ("replay ok\n", "")
        assert run_cli_process("check-excitation", config_path) == 3
        assert capfd.readouterr().err == ""

    def test_log_holding_inf_replays(self, tmp_path, capfd):
        # With theta 2 the logged state itself overflows to inf; the replay
        # reproduces it exactly, so verify calls it a match, without a warning.
        config_path = write_config(tmp_path, dict(EXACT_SCALAR, theta_true=[2.0], x0=[1e308]))
        out = tmp_path / "out"
        assert run_cli_process("run", config_path, "--out", str(out)) == 3
        assert read_csv(out / "trajectory.csv")[-1][1] == "inf"
        capfd.readouterr()
        assert run_cli_process("verify", config_path, "--out", str(out)) == 0
        assert capfd.readouterr() == ("replay ok\n", "")

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


NON_FINITE_CASES = [
    ("run", EXACT_SCALAR, "x0", [float("nan")]),
    ("check-excitation", EXACT_SCALAR, "x0", [float("nan")]),
    ("run", EXACT_SCALAR, "excitation", [[float("nan")]]),
    ("check-excitation", EXACT_SCALAR, "excitation", [[float("nan")]]),
    ("run", EXACT_SCALAR, "max_blocks", float("inf")),
    ("run", EXACT_SCALAR, "seed", float("nan")),
    ("run", EXACT_SCALAR, "n_max", float("inf")),
    ("run", EXACT_SCALAR, "rho_max", float("inf")),
    ("run", EXACT_SCALAR, "tol_exact", float("inf")),
    ("run", INEXACT_BILINEAR, "eps_fin", float("inf")),
    ("run", INEXACT_BILINEAR, "beta", float("nan")),
    # Finite, but the synthesis draws its starts from [-1e308, 1e308].
    ("run", EXACT_SCALAR, "rho_max", 1e308),
]


@pytest.mark.parametrize("command, base, field, value", NON_FINITE_CASES)
def test_non_finite_config_value(tmp_path, capsys, command, base, field, value):
    # json.dumps writes NaN and Infinity, which json.loads accepts.
    config_path = write_config(tmp_path, dict(base, **{field: value}))
    args = [command, "--config", str(config_path)]
    if command == "run":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert f"{field}: " in err and "finite" in err


INEXACT_SCALAR = {"model": "scalar_linear", "theta_true": [0.8], "x0": [1.0], "algorithm": "inexact"}


@pytest.mark.parametrize("field, value", [("mu0", 5e-324), ("beta", 5e-324), ("beta", 1e-300), ("eps_fin", 5e-324)])
def test_underflowing_schedule(tmp_path, capsys, field, value):
    # Each value is a positive double, but a contraction of mu (beta * mu) or
    # the synthesis tolerance 0.5 * eps_fin rounds to 0.
    config_path = write_config(tmp_path, dict(INEXACT_SCALAR, **{field: value}))
    out = str(tmp_path / "out")
    code = main(["run", "--config", str(config_path), "--out", out])
    err = capsys.readouterr().err
    assert code in (2, 3) and err.count("\n") == 1
    if code == 2:
        assert err.startswith("run stopped: the estimation tolerance underflowed to 0")
        assert main(["verify", "--config", str(config_path), "--out", out]) == 0


AFFINE = {"model": "affine_2d", "theta_true": [0.5, 0.5], "x0": [1.0, 0.0]}


@pytest.mark.parametrize(
    "base, field, value",
    [
        (EXACT_SCALAR, "theta_true", ["0.8"]),
        (EXACT_SCALAR, "x0", [True]),
        (AFFINE, "x0", [1.0, True]),
        (EXACT_SCALAR, "excitation", "0.5"),
        (EXACT_SCALAR, "excitation", [[False]]),
    ],
)
def test_string_or_boolean_in_an_array(tmp_path, capsys, base, field, value):
    # numpy reads "0.8" as 0.8 and true as 1.0; a config holds JSON numbers only.
    config_path = write_config(tmp_path, dict(base, **{field: value}))
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: must hold only numbers") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


TOO_LARGE = 10**400  # JSON integers have no size limit; float() of this one raises OverflowError.


@pytest.mark.parametrize("command", ["run", "verify", "check-excitation"])
@pytest.mark.parametrize("field", ["mu0", "seed", "n_max", "x0", "excitation"])
def test_integer_too_large_for_a_double(tmp_path, capsys, command, field):
    value = {"n_max": -TOO_LARGE, "x0": [TOO_LARGE], "excitation": [[TOO_LARGE]]}.get(field, TOO_LARGE)
    config_path = write_config(tmp_path, dict(EXACT_SCALAR, **{field: value}))
    args = [command, "--config", str(config_path)]
    if command != "check-excitation":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err == f"config error: {field}: must be finite (got an integer too large for a double)\n"


@pytest.mark.parametrize("command", ["run", "check-excitation"])
def test_overflowing_excitation(tmp_path, capsys, command):
    # The replay overflows, so the rank check sees a non-finite Jacobian: it
    # fails without reaching the SVD, and the run goes on to its solver failure.
    config_path = write_config(tmp_path, dict(EXACT_SCALAR, excitation=[[1e308], [1e308]]))
    args = [command, "--config", str(config_path)]
    if command == "run":
        args += ["--out", str(tmp_path / "out")]
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(args) == 3
    captured = capsys.readouterr()
    if command == "run":
        assert captured.err.startswith("solver failed:")
    else:
        assert "rank check: FAIL" in captured.out


@pytest.mark.parametrize("algorithm", ["exact", "inexact"])
def test_nan_residual_at_the_first_start(tmp_path, capsys, algorithm):
    # From x0 = 1e300 the first estimate's replay under the box midpoint
    # reaches inf - inf; its restart grid, which holds theta_true, must run.
    config = {"model": "bilinear_scalar", "theta_true": [0.5, 0.0], "x0": [1e300], "algorithm": algorithm,
              "excitation": [[2.0]] * 150 + [[-2.0], [2.0]] * 500}
    config_path = write_config(tmp_path, config)
    out = str(tmp_path / "out")
    assert main(["run", "--config", str(config_path), "--out", out]) == 0, capsys.readouterr().err
    assert main(["verify", "--config", str(config_path), "--out", out]) == 0


class TestFileAndUsageErrors:
    """Each exits 3 with one ``config error:`` line."""

    def run_main(self, capsys, args):
        code = main([str(a) for a in args])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("config error:") and err.count("\n") == 1
        return err

    def test_config_is_a_directory(self, tmp_path, capsys):
        self.run_main(capsys, ["run", "--config", tmp_path, "--out", tmp_path / "out"])

    def test_config_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe{}")
        assert "not UTF-8" in self.run_main(capsys, ["run", "--config", path, "--out", tmp_path / "out"])

    def test_out_is_an_existing_file(self, tmp_path, capsys):
        config_path = write_config(tmp_path, EXACT_SCALAR)
        self.run_main(capsys, ["run", "--config", config_path, "--out", config_path])

    def test_run_without_config(self, capsys):
        assert "--config" in self.run_main(capsys, ["run"])

    def test_trajectory_is_not_utf8(self, tmp_path, capsys):
        config_path = write_config(tmp_path, EXACT_SCALAR)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "trajectory.csv").write_bytes(b"t,x_1\n\xff\n")
        self.run_main(capsys, ["verify", "--config", config_path, "--out", tmp_path / "out"])

    @pytest.mark.parametrize("case", ["5000-digit integer", "deep nesting"])
    def test_json_python_cannot_read(self, tmp_path, capsys, case):
        # int() converts at most 4300 digits; json recurses once per nesting level.
        text = '{"seed": 1' + "0" * 5000 + "}" if case == "5000-digit integer" else "[" * 100000 + "]" * 100000
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        assert "not valid JSON" in self.run_main(capsys, ["run", "--config", path, "--out", tmp_path / "out"])

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--help"])
        assert excinfo.value.code == 0
        assert "--config" in capsys.readouterr().out

    def test_usage_error_then_valid_run(self, tmp_path, capsys):
        # One parser serves every call in a process: a usage error leaves
        # nothing behind for the next call.
        assert "--config" in self.run_main(capsys, ["run", "--seed", "1"])
        config_path = write_config(tmp_path, EXACT_SCALAR)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        assert main(["verify", "--config", str(config_path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""


# Values of the wrong kind or out of range, drawn in place of a valid field.
ODD_VALUES = [
    None, True, False, "1", "abc", float("nan"), float("inf"), -float("inf"), -1, 0, -1e308, 1e308, TOO_LARGE,
    5e-324, 1e-300,
]
# Counts keep their odd values small: a large max_blocks or max_inner_retries
# makes a run longer, and a large n_max can make the synthesis search without end.
ODD_COUNTS = [v for v in ODD_VALUES if v != 1e308]
PLANT_NAMES = ["scalar_linear", "affine_2d", "bilinear_scalar"]


def _vectors(dim, lo, hi):
    return st.lists(st.floats(lo, hi), min_size=dim, max_size=dim)


def _odd_vectors(dim):
    """A list of the wrong length, one holding an odd value, or an odd scalar."""
    return st.one_of(
        st.lists(st.floats(-2.0, 2.0), min_size=0, max_size=dim + 2).filter(lambda v: len(v) != dim),
        st.lists(st.sampled_from(ODD_VALUES), min_size=dim, max_size=dim),
        st.sampled_from(ODD_VALUES),
    )


@st.composite
def configs(draw):
    """A valid config with up to three fields omitted, up to three replaced by
    odd values, and now and then an unknown key."""
    name = draw(st.sampled_from(PLANT_NAMES))
    model = get_model(name).model
    excitation = st.lists(_vectors(model.input_dim, -1.0, 1.0), min_size=0, max_size=3)
    valid = {
        "model": st.just(name),
        "theta_true": st.tuples(*(st.floats(lo, hi) for lo, hi in model.param_box)).map(list),
        "x0": _vectors(model.state_dim, -2.0, 2.0),
        "algorithm": st.sampled_from(["exact", "inexact"]),
        "tol_exact": st.floats(1e-12, 1e-6),
        "beta": st.floats(0.1, 0.9),
        "mu0": st.floats(1e-3, 10.0),
        "kappa0": st.floats(1e-6, 10.0),
        "eps_fin": st.floats(1e-4, 1e-1),
        "n_max": st.one_of(st.none(), st.integers(1, 3)),
        "rho_max": st.one_of(st.none(), st.floats(0.01, 5.0)),
        "excitation": st.one_of(st.none(), excitation),
        "seed": st.integers(0, 2**32),
        "max_blocks": st.integers(0, 3),
        "max_inner_retries": st.integers(0, 3),
    }
    odd = {
        "model": st.sampled_from(["pendulum"] + ODD_VALUES),
        "theta_true": _odd_vectors(model.param_dim),
        "x0": _odd_vectors(model.state_dim),
        "excitation": st.one_of(st.lists(_odd_vectors(model.input_dim), min_size=1, max_size=2), _odd_vectors(1)),
        "n_max": st.sampled_from(ODD_COUNTS),
        "max_blocks": st.sampled_from(ODD_COUNTS),
        "max_inner_retries": st.sampled_from(ODD_COUNTS),
    }
    config = {key: draw(value) for key, value in valid.items()}
    keys = sorted(config)
    for key in draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)):
        del config[key]
    for key in draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)):
        config[key] = draw(odd.get(key, st.sampled_from(ODD_VALUES)))
    if draw(st.integers(0, 9)) == 9:
        config["bogus"] = 1
    return config


@settings(max_examples=60, deadline=None, derandomize=True)
@given(config=configs())
def test_exit_code_contract(config):
    """Every config exits 0, 2 or 3 without a traceback, and the logs of a run
    replay whenever it wrote them."""
    with tempfile.TemporaryDirectory() as workdir, np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config_path = write_config(Path(workdir), config)
        out = str(Path(workdir) / "out")
        code = main(["run", "--config", str(config_path), "--out", out])
        assert code in (0, 2, 3)
        if code in (0, 2) or (Path(out) / "trajectory.csv").exists():
            assert main(["verify", "--config", str(config_path), "--out", out]) == 0
        assert main(["check-excitation", "--config", str(config_path)]) in (0, 3)
