"""Tests for the command-line front end and its file formats."""

import dataclasses
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mkvcontrol
from mkvcontrol import NoiseSchedule, Scenario, SolverConfig, scenarios
from mkvcontrol.cli import (EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, build_parser,
                            main, read_control_csv, resolve_run)


def run_cli(*argv):
    return main(list(argv))


def solve_args(outdir, *extra):
    return ["solve", "--scenario", "lq", "--ensemble-size", "8",
            "--out", str(outdir), *extra]


def test_scenarios_listing(capsys):
    assert run_cli("scenarios") == EXIT_OK
    out = capsys.readouterr().out
    for name in ("pendulum", "langevin", "lq", "ou_diffusion"):
        assert name in out


def test_solve_writes_outputs(tmp_path):
    assert run_cli(*solve_args(tmp_path)) == EXIT_OK
    for name in ("forward.csv", "reverse.csv", "control.csv", "manifest.ini"):
        assert (tmp_path / name).is_file()
    header = (tmp_path / "control.csv").read_text().splitlines()[0]
    assert header == "t,A_11,c_1"
    header = (tmp_path / "forward.csv").read_text().splitlines()[0]
    assert header == "t,m_1,C_11"


def test_solve_deterministic_outputs(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*solve_args(d1, "--seed", "7")) == EXIT_OK
    assert run_cli(*solve_args(d2, "--seed", "7")) == EXIT_OK
    assert (d1 / "control.csv").read_bytes() == (d2 / "control.csv").read_bytes()
    assert (d1 / "forward.csv").read_bytes() == (d2 / "forward.csv").read_bytes()


def test_control_csv_round_trip(tmp_path):
    assert run_cli(*solve_args(tmp_path)) == EXIT_OK
    sched = read_control_csv(tmp_path / "control.csv")
    from mkvcontrol.cli import write_control_csv
    write_control_csv(tmp_path / "copy.csv", sched)
    assert (tmp_path / "copy.csv").read_bytes() == \
        (tmp_path / "control.csv").read_bytes()


def test_manifest_reproduces_run(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*solve_args(d1, "--seed", "5")) == EXIT_OK
    assert run_cli("solve", "--config", str(d1 / "manifest.ini"),
                   "--out", str(d2)) == EXIT_OK
    assert (d1 / "control.csv").read_bytes() == (d2 / "control.csv").read_bytes()


def test_unknown_scenario_is_config_error(tmp_path, capsys):
    code = run_cli("solve", "--scenario", "heat_bath", "--out", str(tmp_path))
    assert code == EXIT_CONFIG
    assert "heat_bath" in capsys.readouterr().err


def test_missing_scenario_is_config_error(tmp_path):
    assert run_cli("solve", "--out", str(tmp_path)) == EXIT_CONFIG


def test_unknown_config_key_is_config_error(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[run]\nscenario = lq\n[solver]\nwarp_factor = 9\n")
    assert run_cli("solve", "--config", str(cfg),
                   "--out", str(tmp_path)) == EXIT_CONFIG


def test_nan_dt_flag_is_config_error(tmp_path, capsys):
    assert run_cli(*solve_args(tmp_path, "--dt", "nan")) == EXIT_CONFIG
    assert "dt must be positive and finite" in capsys.readouterr().err


def test_nan_inflation_in_config_file_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[run]\nscenario = lq\n[solver]\ninflation = nan\n")
    assert run_cli("solve", "--config", str(cfg),
                   "--out", str(tmp_path)) == EXIT_CONFIG
    assert "inflation" in capsys.readouterr().err


def test_singular_covariance_is_numerical_failure(tmp_path, capsys):
    # two uninflated particles at the same start have a zero covariance,
    # so the first forward step cannot factor it
    cfg = tmp_path / "flat.ini"
    cfg.write_text("[run]\nscenario = pendulum\n"
                   "[solver]\ninflation = 0\nensemble_size = 2\n")
    assert run_cli("solve", "--config", str(cfg),
                   "--out", str(tmp_path)) == EXIT_NUMERICAL
    assert "not positive definite" in capsys.readouterr().err


def test_singular_covariance_message_names_step(tmp_path, capsys):
    cfg = tmp_path / "flat.ini"
    cfg.write_text("[run]\nscenario = pendulum\n"
                   "[solver]\ninflation = 0\nensemble_size = 2\n")
    assert run_cli("solve", "--config", str(cfg),
                   "--out", str(tmp_path)) == EXIT_NUMERICAL
    assert "numerical failure: step 0 (t=0): covariance is not positive " \
        "definite" in capsys.readouterr().err


def test_covariance_overflow_is_numerical_failure_naming_step(tmp_path,
                                                             capsys):
    # at dt = 0.2 the langevin particles stay finite while their
    # covariance overflows; both backends must report where
    for backend in ("enkf", "dmap"):
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli("solve", "--scenario", "langevin", "--dt", "0.2",
                           "--backend", backend, "--out", str(tmp_path))
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure: step 8 (t=1.6): covariance is not " \
            "finite" in err


def test_control_law_of_another_dimension_is_config_error(tmp_path, capsys):
    assert run_cli(*solve_args(tmp_path)) == EXIT_OK
    code = run_cli("cost", "--scenario", "pendulum", "--paths", "2",
                   "--out", str(tmp_path))
    assert code == EXIT_CONFIG
    assert "control.csv: control law of dimension 1, expected 2" in \
        capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nscenario = lq\n[solver]\nensemble_size = 8\n")
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("solve", "--config", str(cfg), "--seed", "3",
                   "--out", str(d1)) == EXIT_OK
    assert run_cli(*solve_args(d2, "--seed", "3")) == EXIT_OK
    assert (d1 / "control.csv").read_bytes() == (d2 / "control.csv").read_bytes()


def test_simulate_uses_existing_control(tmp_path):
    assert run_cli(*solve_args(tmp_path)) == EXIT_OK
    assert run_cli("simulate", "--scenario", "lq", "--ensemble-size", "8",
                   "--rho", "0", "--out", str(tmp_path)) == EXIT_OK
    traj = tmp_path / "trajectory.csv"
    assert traj.is_file()
    assert traj.read_text().splitlines()[0] == "t,x_1,u_1"
    first = traj.read_bytes()
    assert run_cli("simulate", "--scenario", "lq", "--ensemble-size", "8",
                   "--rho", "0", "--out", str(tmp_path)) == EXIT_OK
    assert traj.read_bytes() == first


def test_simulate_solves_when_control_missing(tmp_path):
    assert run_cli("simulate", "--scenario", "lq", "--ensemble-size", "8",
                   "--rho", "0", "--out", str(tmp_path)) == EXIT_OK
    assert (tmp_path / "control.csv").is_file()
    assert (tmp_path / "trajectory.csv").is_file()


def test_cost_zero_control(tmp_path):
    assert run_cli("cost", "--scenario", "lq", "--ensemble-size", "8",
                   "--paths", "10", "--zero-control",
                   "--out", str(tmp_path)) == EXIT_OK
    text = (tmp_path / "cost.txt").read_text()
    assert text.startswith("J = ")
    j = float(text.splitlines()[0].split()[2])
    assert np.isfinite(j) and j > 0
    assert "n_paths = 10" in text


def test_cost_nan_rho_is_config_error(tmp_path, capsys):
    assert run_cli("cost", "--scenario", "lq", "--paths", "2",
                   "--zero-control", "--rho", "nan",
                   "--out", str(tmp_path)) == EXIT_CONFIG
    assert "rho must be nonnegative and finite" in capsys.readouterr().err


def test_simulate_negative_rho_is_config_error(tmp_path, capsys):
    assert run_cli(*solve_args(tmp_path)) == EXIT_OK
    assert run_cli("simulate", "--scenario", "lq", "--ensemble-size", "8",
                   "--rho", "-1", "--out", str(tmp_path)) == EXIT_CONFIG
    assert "rho must be nonnegative and finite" in capsys.readouterr().err


def _explosive_problem():
    # lq, which starts at x = 1, with dx = 10 x^3 dt: at dt = 0.05 the
    # path overflows in step 8
    p = scenarios.get_scenario("lq").make_problem()
    p.drift = lambda x: 10.0 * x ** 3
    return p


def test_cost_blowup_is_numerical_failure_naming_step(tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.setitem(scenarios.REGISTRY, "explosive", Scenario(
        name="explosive", description="cubic blow-up",
        make_problem=_explosive_problem,
        default_config=lambda: SolverConfig(
            dt=0.05, eps_noise_forward=NoiseSchedule.constant(0.0))))
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli("cost", "--scenario", "explosive", "--paths", "3",
                       "--zero-control", "--rho", "0", "--out", str(tmp_path))
    assert code == EXIT_NUMERICAL
    assert "numerical failure: step 8 (t=0.4): non-finite particle 0" in \
        capsys.readouterr().err


def _lq_with(**maps):
    return lambda: dataclasses.replace(
        scenarios.get_scenario("lq").make_problem(), **maps)


@pytest.mark.parametrize("maps", [
    # one-state map of size 1 at x >= 1 and size 2 below
    {"block_maps": False,
     "running_map": lambda x: np.zeros(1 if x[0] >= 1.0 else 2)},
    # block map right on the one-column start probe, wrong on a block
    {"drift": lambda x: -x[:, :1]},
], ids=["ragged-one-state-map", "wrong-shape-block-map"])
def test_map_output_of_the_wrong_shape_is_config_error(tmp_path, capsys,
                                                       monkeypatch, maps):
    monkeypatch.setitem(scenarios.REGISTRY, "bad_map", Scenario(
        name="bad_map", description="map output of the wrong shape",
        make_problem=_lq_with(**maps),
        default_config=scenarios.get_scenario("lq").default_config))
    code = run_cli("solve", "--scenario", "bad_map", "--ensemble-size", "8",
                   "--out", str(tmp_path))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert ("running_map" if "running_map" in maps else "drift") in err


def test_backend_flag_normalisation():
    parser = build_parser()
    args = parser.parse_args(["solve", "--scenario", "lq",
                              "--backend", "dmap"])
    _, _, cfg, values = resolve_run(args)
    assert cfg.backend == "dmap_enkf"
    assert values["backend"] == "dmap_enkf"


def test_numerical_failure_prints_only_its_line(tmp_path):
    # the langevin covariance overflows at dt = 0.2; numpy's overflow
    # warning must not precede the exit-3 line.  A child process shows
    # stderr as a user sees it, past pytest's own warning capture.
    src = os.path.dirname(os.path.dirname(mkvcontrol.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-m", "mkvcontrol.cli", "solve", "--scenario",
         "langevin", "--dt", "0.2", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == EXIT_NUMERICAL
    assert out.stderr.splitlines() == [
        "numerical failure: step 8 (t=1.6): covariance is not finite"]


def test_mkv_threads_env_default():
    os.environ.pop("MKV_THREADS", None)
    run_cli("scenarios")
    assert os.environ["MKV_THREADS"] == "1"


# Exit-code contract: over scenario x backend x dt x ensemble size x
# inflation x seed, `solve` returns 0, 2 or 3 and raises nothing.  The
# steps are large (dt >= 0.1, so at most 300 langevin steps and 10 on
# the other scenarios), which keeps the 50 examples to about a second.
@settings(max_examples=50, deadline=None)
@given(scenario=st.sampled_from(["lq", "langevin", "pendulum",
                                 "ou_diffusion"]),
       backend=st.sampled_from(["enkf", "dmap"]),
       dt=st.one_of(st.sampled_from([0.2, 0.5]), st.floats(0.1, 2.0)),
       ensemble_size=st.integers(1, 8),
       inflation=st.sampled_from(["0", "1e-6", "1e-2", "nan", "-1"]),
       seed=st.integers(0, 3))
def test_solve_exit_codes(scenario, backend, dt, ensemble_size, inflation,
                          seed):
    with tempfile.TemporaryDirectory() as out:
        cfg = os.path.join(out, "run.ini")
        with open(cfg, "w") as fh:
            fh.write(f"[solver]\ninflation = {inflation}\n")
        with np.errstate(all="ignore"):
            code = run_cli("solve", "--scenario", scenario, "--config", cfg,
                           "--backend", backend, "--dt", repr(dt),
                           "--ensemble-size", str(ensemble_size),
                           "--seed", str(seed), "--out", out)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
