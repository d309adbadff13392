"""Tests for the sweep orchestration, simulation, and cost estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkvcontrol import (AffineControlSchedule, ControlProblem,
                        DimensionError, EmpiricalMoments, NoiseSchedule,
                        NumericalBlowupError, SolverConfig, dmap,
                        estimate_cost, gain_from_moments, get_scenario,
                        simulate_controlled, solve)
from mkvcontrol.solver import forward_sweep, reverse_sweep_splitstep


def brownian_problem():
    return ControlProblem(
        dim_x=1, dim_u=1, dim_b=1, dim_h=1, dim_xi=1,
        drift=lambda x: np.zeros(1),
        gain=lambda x: np.array([[1.0]]),
        noise=lambda x: np.array([[1.0]]),
        running_map=lambda x: np.zeros(1),
        running_weight=np.array([[1.0]]),
        terminal_map=lambda x: np.asarray(x, dtype=float),
        terminal_weight=np.array([[1.0]]),
        control_weight=np.array([[1.0]]),
        horizon=1.0,
        start=np.array([0.0]))


def test_noise_schedule_lookup():
    sched = NoiseSchedule(first=1.0, n_first=10, rest=0.0)
    assert sched.at(0) == 1.0
    assert sched.at(9) == 1.0
    assert sched.at(10) == 0.0
    assert NoiseSchedule.constant(0.3).at(1234) == 0.3


def test_noise_schedule_validation():
    with pytest.raises(DimensionError):
        NoiseSchedule(first=1.5)
    with pytest.raises(DimensionError):
        NoiseSchedule(rest=-0.1)


def test_config_grid_validation():
    cfg = SolverConfig(dt=0.1, ensemble_size=4)
    assert cfg.n_steps(1.0) == 10
    assert cfg.n_steps(1.03) == 10  # grid rounds to the nearest step count
    with pytest.raises(DimensionError):
        cfg.n_steps(0.04)  # horizon shorter than half a step
    with pytest.raises(DimensionError):
        cfg.n_steps(0.05)  # exactly half a step rounds (to even) to 0
    with pytest.raises(DimensionError):
        SolverConfig(dt=0.1, ensemble_size=1)
    with pytest.raises(DimensionError):
        SolverConfig(dt=0.1, backend="spectral")


@settings(max_examples=200, deadline=None)
@given(dt=st.floats(1e-4, 10.0), horizon=st.floats(0.0, 1e3))
def test_n_steps_on_random_grids(dt, horizon):
    # the grid rounds to the nearest step count (exactly half a step
    # rounds to 0 too, see test_config_grid_validation)
    cfg = SolverConfig(dt=dt, ensemble_size=4)
    if horizon <= dt / 2:
        with pytest.raises(DimensionError):
            cfg.n_steps(horizon)
        return
    n = cfg.n_steps(horizon)
    assert n >= 1
    assert abs(n * dt - horizon) <= dt / 2 + 4 * np.spacing(horizon)


@pytest.mark.parametrize("field,value", [
    ("dt", float("nan")), ("dt", float("inf")),
    ("inflation", float("nan")), ("inflation", float("inf")),
    ("eps_dm", float("nan")), ("eps_dm", float("inf")), ("eps_dm", 0.0)])
def test_config_rejects_nonfinite_values(field, value):
    with pytest.raises(DimensionError, match=field):
        SolverConfig(**{"dt": 0.1, field: value})


def test_forward_sweep_pure_brownian():
    # h = 0, b = 0, eps = 1 throughout: empirical covariance at T is
    # close to Sigma * T
    p = brownian_problem()
    cfg = SolverConfig(dt=0.02, ensemble_size=2000,
                       eps_noise_forward=NoiseSchedule.constant(1.0),
                       inflation=1e-10, seed=12)
    rng = np.random.default_rng(12)
    record, e_T = forward_sweep(p, cfg, rng)
    cov_T = record.bar_covs[-1, 0, 0]
    assert cov_T == pytest.approx(1.0, rel=0.1)
    assert record.bar_means[-1, 0] == pytest.approx(0.0, abs=0.1)


def test_solve_is_deterministic():
    sc = get_scenario("lq")
    p = sc.make_problem()
    cfg = sc.default_config()
    cfg.ensemble_size = 16
    s1, r1 = solve(p, cfg)
    s2, r2 = solve(p, cfg)
    assert np.array_equal(s1.gains, s2.gains)
    assert np.array_equal(s1.shifts, s2.shifts)
    assert np.array_equal(r1.bar_covs, r2.bar_covs)


def test_solve_seed_changes_result():
    sc = get_scenario("lq")
    p = sc.make_problem()
    cfg = sc.default_config()
    cfg.ensemble_size = 16
    s1, _ = solve(p, cfg)
    cfg.seed = 1
    s2, _ = solve(p, cfg)
    assert not np.array_equal(s1.gains, s2.gains)


def test_record_gains_match_recorded_moments():
    sc = get_scenario("lq")
    p = sc.make_problem()
    cfg = sc.default_config()
    cfg.ensemble_size = 16
    sched, rec = solve(p, cfg)
    for n in (0, 137, len(rec.times) - 1):
        bar = EmpiricalMoments(mean=rec.bar_means[n], cov=rec.bar_covs[n])
        tilde = EmpiricalMoments(mean=rec.tilde_means[n], cov=rec.tilde_covs[n])
        g = gain_from_moments(bar, tilde)
        assert np.allclose(g.A, rec.gains[n])
        assert np.allclose(g.c, rec.shifts[n])


def test_gain_negative_definite_when_tilde_below_bar():
    sc = get_scenario("lq")
    p = sc.make_problem()
    cfg = sc.default_config()
    cfg.ensemble_size = 32
    sched, rec = solve(p, cfg)
    for n in range(0, len(rec.times), 100):
        gap = rec.bar_covs[n] - rec.tilde_covs[n]
        if np.linalg.eigvalsh(gap).min() > 0:
            assert np.linalg.eigvalsh(rec.gains[n]).max() < 0


def test_record_thinning_keeps_last_entry():
    sc = get_scenario("lq")
    p = sc.make_problem()
    cfg = sc.default_config()
    cfg.ensemble_size = 8
    cfg.record_every = 100
    sched, rec = solve(p, cfg)
    assert rec.times[0] == 0.0
    assert rec.times[-1] == pytest.approx(1.0)
    assert len(rec.times) == 11  # steps 0, 100, ..., 1000
    # schedule keeps the full grid regardless of thinning
    assert len(sched.times) == 1001


def test_simulate_shapes_and_determinism():
    p = brownian_problem()
    times = np.linspace(0.0, 1.0, 11)
    sched = AffineControlSchedule(times=times, gains=np.zeros((11, 1, 1)),
                                  shifts=np.zeros((11, 1)))
    t, xs, us = simulate_controlled(p, sched, rho=1.0, n_paths=3,
                                    rng=np.random.default_rng(5))
    assert xs.shape == (3, 11, 1)
    assert us.shape == (3, 11, 1)
    t2, xs2, _ = simulate_controlled(p, sched, rho=1.0, n_paths=3,
                                     rng=np.random.default_rng(5))
    assert np.array_equal(xs, xs2)


def test_simulate_deterministic_at_zero_rho():
    p = get_scenario("pendulum").make_problem()
    times = np.linspace(0.0, 1.0, 11)
    sched = AffineControlSchedule(times=times, gains=np.zeros((11, 2, 2)),
                                  shifts=np.zeros((11, 2)))
    # at the stable equilibrium (pi, 0) the uncontrolled pendulum rests
    t, xs, _ = simulate_controlled(p, sched, rho=0.0, n_paths=1,
                                   x0=np.array([np.pi, 0.0]))
    assert np.allclose(xs[0, -1], [np.pi, 0.0], atol=1e-12)


@pytest.mark.parametrize("kwargs", [
    {"n_paths": 0}, {"rho": np.nan}, {"rho": np.inf}, {"rho": -1.0},
    {"x0": np.zeros(2)}])
def test_simulate_rejects_bad_inputs_before_any_step(kwargs):
    calls = []
    p = brownian_problem()
    p.drift = lambda x: calls.append(x) or np.zeros(1)
    times = np.linspace(0.0, 1.0, 11)
    sched = AffineControlSchedule(times=times, gains=np.zeros((11, 1, 1)),
                                  shifts=np.zeros((11, 1)))
    with pytest.raises(DimensionError):
        simulate_controlled(p, sched, **kwargs)
    if "x0" not in kwargs:
        with pytest.raises(DimensionError):
            estimate_cost(p, sched, **kwargs)
    assert calls == []


def test_estimate_cost_zero_problem():
    p = brownian_problem()
    times = np.linspace(0.0, 1.0, 6)
    sched = AffineControlSchedule(times=times, gains=np.zeros((6, 1, 1)),
                                  shifts=np.zeros((6, 1)))
    # h = 0 and u = 0 leave only the terminal cost; with rho = 0 the
    # path stays at 0, so J = 0 exactly
    mean, err = estimate_cost(p, sched, n_paths=1, rho=0.0)
    assert mean == 0.0
    assert err == 0.0


def test_estimate_cost_stderr_scaling():
    p = brownian_problem()
    times = np.linspace(0.0, 1.0, 21)
    sched = AffineControlSchedule(times=times, gains=np.zeros((21, 1, 1)),
                                  shifts=np.zeros((21, 1)))
    errs = []
    for n in (50, 200, 800):
        _, err = estimate_cost(p, sched, n_paths=n,
                               rng=np.random.default_rng(10))
        errs.append(err)
    slopes = np.diff(np.log(errs)) / np.diff(np.log([50, 200, 800]))
    assert np.all(np.abs(slopes + 0.5) < 0.15)


def test_controlled_cost_beats_zero_control():
    # stabilising the double well at 0 slashes the steep running cost
    # relative to letting the process sit in a well
    sc = get_scenario("langevin")
    p = sc.make_problem()
    cfg = sc.default_config()
    cfg.seed = 1
    sched, _ = solve(p, cfg)
    zero = AffineControlSchedule(times=sched.times,
                                 gains=np.zeros_like(sched.gains),
                                 shifts=np.zeros_like(sched.shifts))
    j_ctrl, e_ctrl = estimate_cost(p, sched, n_paths=60,
                                   rng=np.random.default_rng(21))
    j_zero, e_zero = estimate_cost(p, zero, n_paths=60,
                                   rng=np.random.default_rng(21))
    assert j_ctrl + 2 * (e_ctrl + e_zero) < j_zero


def test_dmap_solve_builds_each_forward_operator_once(monkeypatch):
    # one diffusion map per forward grid point before T serves both the
    # forward step and the reverse projection onto that ensemble
    sc = get_scenario("langevin")
    p = sc.make_problem()
    p.horizon = 0.2
    cfg = sc.default_config()
    n = cfg.n_steps(p.horizon)
    built = []
    original = dmap.build_operator

    def counting(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(dmap, "build_operator", counting)
    _, record = solve(p, cfg)
    assert len(built) == n
    assert all(op.anchors is ens for op, ens in
               zip(built, record.forward_ensembles[:-1]))
    noisy = cfg.eps_noise_forward.n_first
    assert len(record.sinkhorn_residuals) == (n - noisy) + n
    assert record.forward_operators is None
    with pytest.raises(DimensionError):
        reverse_sweep_splitstep(p, cfg, record, None, None)


def test_thinned_dmap_record_keeps_its_ensembles():
    # record_every thins the forward ensembles with the grid points; the
    # Sinkhorn residuals and hull certificates are per use, so stay whole
    sc = get_scenario("langevin")
    p = sc.make_problem()
    p.horizon = 0.2
    cfg = sc.default_config()
    _, full = solve(p, cfg)
    cfg.record_every = 2
    _, rec = solve(p, cfg)
    assert len(rec.times) == len(rec.forward_ensembles) == 11
    for kept, step in zip(rec.forward_ensembles, range(0, 21, 2)):
        assert kept.tobytes() == full.forward_ensembles[step].tobytes()
    assert len(rec.sinkhorn_residuals) == 30
    assert rec.sinkhorn_residuals == full.sinkhorn_residuals
    assert rec.hull_min_weight == full.hull_min_weight
    assert rec.hull_sum_deviation == full.hull_sum_deviation


def test_singular_covariance_blowup_reports_step_and_time():
    # two uninflated particles at the same start: the first forward
    # drift cannot factor their zero covariance
    p = get_scenario("pendulum").make_problem()
    cfg = get_scenario("pendulum").default_config()
    cfg.inflation, cfg.ensemble_size = 0.0, 2
    with pytest.raises(NumericalBlowupError) as info:
        solve(p, cfg)
    assert (info.value.step, info.value.time) == (0, 0.0)
    assert str(info.value).startswith("step 0 (t=0):")
