"""Tests for problem data, costs, and the affine control schedule."""

import dataclasses

import numpy as np
import pytest

from mkvcontrol import (AffineControlSchedule, ControlProblem,
                        DimensionError, TimeOutOfRangeError, apply_control,
                        control_cost, get_scenario, running_cost,
                        terminal_cost)


def scalar_problem(**overrides):
    kwargs = dict(
        dim_x=1, dim_u=1, dim_b=1, dim_h=1, dim_xi=1,
        drift=lambda x: -np.asarray(x, dtype=float),
        gain=lambda x: np.array([[1.0]]),
        noise=lambda x: np.array([[1.0]]),
        running_map=lambda x: np.asarray(x, dtype=float),
        running_weight=np.array([[1.0]]),
        terminal_map=lambda x: np.asarray(x, dtype=float),
        terminal_weight=np.array([[1.0]]),
        control_weight=np.array([[1.0]]),
        horizon=1.0,
        start=np.array([0.0]))
    kwargs.update(overrides)
    return ControlProblem(**kwargs)


def test_running_cost_pendulum():
    p = get_scenario("pendulum").make_problem()
    assert running_cost(p, np.array([0.0, 1.0])) == pytest.approx(5.0)


def test_running_cost_zero_at_origin():
    p = scalar_problem()
    assert running_cost(p, np.array([0.0])) == 0.0


def test_running_cost_langevin():
    p = get_scenario("langevin").make_problem()
    assert running_cost(p, np.array([0.5])) == pytest.approx(12.5)


def test_terminal_cost_pendulum():
    p = get_scenario("pendulum").make_problem()
    assert terminal_cost(p, np.array([0.1, 0.0])) == pytest.approx(5.0)


def test_terminal_cost_langevin():
    p = get_scenario("langevin").make_problem()
    assert terminal_cost(p, np.array([2.0])) == pytest.approx(2.0)


def test_terminal_cost_zero():
    p = scalar_problem()
    assert terminal_cost(p, np.array([0.0])) == 0.0


def test_cost_weight_rescaling_invariance():
    # replacing h by 2h and S by 4S leaves the running cost unchanged
    p1 = scalar_problem()
    p2 = scalar_problem(
        running_map=lambda x: 2.0 * np.asarray(x, dtype=float),
        running_weight=np.array([[4.0]]))
    for x in (-1.3, 0.2, 2.5):
        assert running_cost(p2, np.array([x])) == pytest.approx(
            running_cost(p1, np.array([x])))


def test_nonspd_weight_rejected():
    with pytest.raises(DimensionError):
        scalar_problem(running_weight=np.array([[-1.0]]))
    with pytest.raises(DimensionError):
        scalar_problem(control_weight=np.array([[0.0]]))


def test_non_finite_weight_rejected():
    for w in (np.inf, np.nan):
        with pytest.raises(DimensionError, match="must be finite"):
            scalar_problem(running_weight=np.array([[w]]))


def test_shape_mismatch_rejected():
    with pytest.raises(DimensionError):
        scalar_problem(gain=lambda x: np.array([[1.0], [0.0]]))


def unit_schedule(n=4, d=1, horizon=1.0):
    times = np.linspace(0.0, horizon, n + 1)
    gains = np.zeros((n + 1, d, d))
    shifts = np.zeros((n + 1, d))
    return times, gains, shifts


def test_apply_control_zero_schedule():
    p = scalar_problem()
    times, gains, shifts = unit_schedule()
    sched = AffineControlSchedule(times=times, gains=gains, shifts=shifts)
    u = apply_control(p, sched, 0.5, np.array([3.0]))
    assert np.allclose(u, 0.0)


def test_apply_control_substitution():
    # d=1, R=2, G=1, A=-0.5, c=1, x=3 -> u = 2*(-1.5 + 1) = -1
    p = scalar_problem(control_weight=np.array([[2.0]]))
    times, gains, shifts = unit_schedule()
    gains[:] = -0.5
    shifts[:] = 1.0
    sched = AffineControlSchedule(times=times, gains=gains, shifts=shifts)
    u = apply_control(p, sched, 0.3, np.array([3.0]))
    assert u[0] == pytest.approx(-1.0)


def test_apply_control_linear_in_gain_pair():
    p = scalar_problem()
    times, gains, shifts = unit_schedule()
    gains[:] = -0.7
    shifts[:] = 0.4
    sched1 = AffineControlSchedule(times=times, gains=gains, shifts=shifts)
    sched2 = AffineControlSchedule(times=times, gains=2 * gains,
                                   shifts=2 * shifts)
    x = np.array([1.7])
    u1 = apply_control(p, sched1, 0.5, x)
    u2 = apply_control(p, sched2, 0.5, x)
    assert np.allclose(u2, 2.0 * u1)


def test_schedule_lookup_left_closed():
    p = scalar_problem()
    times = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    gains = np.zeros((5, 1, 1))
    shifts = np.arange(5.0).reshape(5, 1)
    sched = AffineControlSchedule(times=times, gains=gains, shifts=shifts)
    # t in [t_n, t_{n+1}) uses entry n; t = T uses the last entry
    assert apply_control(p, sched, 0.25, np.zeros(1))[0] == pytest.approx(1.0)
    assert apply_control(p, sched, 0.49, np.zeros(1))[0] == pytest.approx(1.0)
    assert apply_control(p, sched, 1.0, np.zeros(1))[0] == pytest.approx(4.0)


def test_schedule_time_out_of_range():
    p = scalar_problem()
    times, gains, shifts = unit_schedule()
    sched = AffineControlSchedule(times=times, gains=gains, shifts=shifts)
    with pytest.raises(TimeOutOfRangeError):
        apply_control(p, sched, -0.1, np.zeros(1))
    with pytest.raises(TimeOutOfRangeError):
        apply_control(p, sched, 1.1, np.zeros(1))


def test_schedule_rejects_nonincreasing_times():
    times = np.array([0.0, 0.5, 0.5, 1.0])
    with pytest.raises(DimensionError):
        AffineControlSchedule(times=times, gains=np.zeros((4, 1, 1)),
                              shifts=np.zeros((4, 1)))


def test_schedule_rejects_asymmetric_gain():
    times = np.array([0.0, 1.0])
    gains = np.array([[[0.0, 1.0], [0.0, 0.0]]] * 2)
    with pytest.raises(DimensionError):
        AffineControlSchedule(times=times, gains=gains,
                              shifts=np.zeros((2, 2)))


def test_control_cost():
    p = scalar_problem(control_weight=np.array([[2.0]]))
    # (1/2) u^T R^{-1} u = 0.5 * 4 / 2 = 1
    assert control_cost(p, np.array([2.0])) == pytest.approx(1.0)


def test_costs_and_control_take_a_block_of_states():
    p = get_scenario("pendulum").make_problem()
    sched = AffineControlSchedule(times=[0.0, 1.0],
                                  gains=np.array([np.eye(2)] * 2),
                                  shifts=np.ones((2, 2)))
    x = np.array([[0.0, 0.1, np.pi], [1.0, 0.0, -0.5]])
    assert running_cost(p, x).shape == terminal_cost(p, x).shape == (3,)
    assert running_cost(p, x)[0] == pytest.approx(5.0)
    assert terminal_cost(p, x)[1] == pytest.approx(5.0)
    u = apply_control(p, sched, 0.5, x)
    assert u.shape == (1, 3)
    assert control_cost(p, u).shape == (3,)
    assert isinstance(running_cost(p, x[:, 0]), float)
    assert apply_control(p, sched, 0.5, x[:, 0]).shape == (1,)


def test_cost_and_control_reject_states_of_the_wrong_size():
    p = get_scenario("pendulum").make_problem()
    sched = AffineControlSchedule(times=[0.0, 1.0],
                                  gains=np.zeros((2, 2, 2)),
                                  shifts=np.zeros((2, 2)))
    for x in (np.zeros(3), np.zeros((3, 4)), np.zeros((1, 2))):
        with pytest.raises(DimensionError):
            running_cost(p, x)
        with pytest.raises(DimensionError):
            terminal_cost(p, x)
        with pytest.raises(DimensionError):
            apply_control(p, sched, 0.5, x)


def test_cost_rejects_map_output_of_the_wrong_size():
    # right at the start point, where the maps are probed, wrong elsewhere
    p = scalar_problem(
        running_map=lambda x: np.zeros(1 if x[0] == 0.0 else 2),
        terminal_map=lambda x: np.zeros(1 if x[0] == 0.0 else 3))
    for x in (np.array([1.0]), np.array([[1.0, 2.0]])):
        with pytest.raises(DimensionError, match="h\\(x\\) has shape"):
            running_cost(p, x)
        with pytest.raises(DimensionError, match="xi\\(x\\) has shape"):
            terminal_cost(p, x)


def test_div_sigma_defaults_to_zero():
    p = scalar_problem()
    assert np.allclose(p.div_sigma(np.array([1.5])), 0.0)


def test_ragged_one_state_map_is_a_dimension_error():
    # size 1 at the start point x = 0 and size 2 elsewhere
    p = scalar_problem(running_map=lambda x: np.zeros(1 if x[0] == 0.0 else 2))
    with pytest.raises(DimensionError, match="running_map"):
        running_cost(p, np.array([[0.0, 1.0]]))


def test_block_map_of_the_wrong_shape_is_a_dimension_error():
    # a one-state constant declared as a block map fails the start probe
    with pytest.raises(DimensionError, match="gain: G\\(x\\) has shape"):
        scalar_problem(block_maps=True,
                       drift=lambda x: -np.asarray(x, dtype=float),
                       gain=lambda x: np.array([[1.0]]))
    # right on the one-column probe, wrong on larger blocks
    p = dataclasses.replace(get_scenario("lq").make_problem(),
                            running_map=lambda x: x[:, :1],
                            terminal_map=lambda x: x[:, :1])
    x = np.array([[0.5, 1.0, 2.0]])
    with pytest.raises(DimensionError, match="running_map"):
        running_cost(p, x)
    with pytest.raises(DimensionError, match="terminal_map"):
        terminal_cost(p, x)

