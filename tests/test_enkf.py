"""Tests for the Gaussian-closure drift terms, the terminal update, and
the affine gain extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkvcontrol import (ControlProblem, Ensemble, EmpiricalMoments, GainPair,
                        forward_drift, g_bar_kf, g_tilde_kf,
                        gain_from_moments, moments, reverse_drift,
                        terminal_update)


def make_problem(drift=lambda x: -0.5 * np.asarray(x, dtype=float),
                 running_map=lambda x: np.zeros(1),
                 sigma=1.0, gain_val=1.0, r=1.0, v=1.0):
    return ControlProblem(
        dim_x=1, dim_u=1, dim_b=1, dim_h=1, dim_xi=1,
        drift=drift,
        gain=lambda x: np.array([[gain_val]]),
        noise=lambda x: np.array([[sigma]]),
        running_map=running_map,
        running_weight=np.array([[1.0]]),
        terminal_map=lambda x: np.asarray(x, dtype=float),
        terminal_weight=np.array([[v]]),
        control_weight=np.array([[r]]),
        horizon=1.0,
        start=np.array([0.0]))


def unit_moments(mean=0.0, cov=1.0):
    return EmpiricalMoments(mean=np.array([mean]), cov=np.array([[cov]]))


def test_g_bar_kf_substitution():
    p = make_problem(running_map=lambda x: np.asarray(x, dtype=float))
    out = g_bar_kf(p, np.array([1.0]), np.array([[2.0]]), np.array([0.0]))
    assert out[0] == pytest.approx(1.0)


def test_g_bar_kf_zero_cross_cov():
    p = make_problem(running_map=lambda x: np.asarray(x, dtype=float))
    out = g_bar_kf(p, np.array([3.0]), np.array([[0.0]]), np.array([1.0]))
    assert out[0] == 0.0


def test_forward_drift_ou_fixed_point():
    # b = -x/2, h = 0, stationary N(0,1) moments: the deterministic
    # forward flow vanishes identically
    p = make_problem()
    bar = unit_moments()
    for x in np.linspace(-3, 3, 7):
        out = forward_drift(p, np.array([x]), bar, np.zeros((1, 1)),
                            np.zeros(1), 0.0)
        assert abs(out[0]) < 1e-14


def test_forward_drift_eps_one_drops_gaussian_group():
    p = make_problem(running_map=lambda x: np.asarray(x, dtype=float))
    bar = unit_moments(mean=0.3, cov=2.0)
    x = np.array([1.7])
    cxh, mh = np.array([[0.4]]), np.array([0.1])
    out = forward_drift(p, x, bar, cxh, mh, 1.0)
    expected = -0.5 * x[0] - g_bar_kf(p, x, cxh, mh)[0]
    assert out[0] == pytest.approx(expected)


def test_forward_drift_substitution():
    # b = 0, Sigma = 1, eps = 0, m = 1, C = 2, h = 0, x = 2 -> 0.25
    p = make_problem(drift=lambda x: np.zeros(1))
    bar = unit_moments(mean=1.0, cov=2.0)
    out = forward_drift(p, np.array([2.0]), bar, np.zeros((1, 1)),
                        np.zeros(1), 0.0)
    assert out[0] == pytest.approx(0.25)


def test_gain_from_moments_identity():
    g = gain_from_moments(unit_moments(), unit_moments())
    assert np.allclose(g.A, 0.0)
    assert np.allclose(g.c, 0.0)


def test_gain_from_moments_substitution():
    g = gain_from_moments(unit_moments(0.0, 2.0), unit_moments(1.0, 1.0))
    assert g.A[0, 0] == pytest.approx(-0.5)
    assert g.c[0] == pytest.approx(1.0)


def test_gain_negative_definite_when_tilde_smaller():
    bar = EmpiricalMoments(mean=np.zeros(2), cov=2.0 * np.eye(2))
    tilde = EmpiricalMoments(mean=np.zeros(2), cov=np.eye(2))
    g = gain_from_moments(bar, tilde)
    assert np.linalg.eigvalsh(g.A).max() < 0


def test_gain_antisymmetric_under_exchange():
    bar = unit_moments(0.2, 2.0)
    tilde = unit_moments(-0.4, 0.7)
    g1 = gain_from_moments(bar, tilde)
    g2 = gain_from_moments(tilde, bar)
    assert np.allclose(g1.A, -g2.A)
    assert np.allclose(g1.c, -g2.c)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), m=st.integers(2, 8),
       delta=st.sampled_from([1e-6, 1e-2, 1.0]),
       scale=st.floats(0.05, 20.0), seed=st.integers(0, 2 ** 16))
def test_gain_from_random_moment_pairs_is_symmetric(d, m, delta, scale, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((d, m))
    bar = moments(Ensemble(particles=x), delta)
    tilde = moments(Ensemble(particles=scale * x + rng.standard_normal(
        (d, m))), delta)
    g = gain_from_moments(bar, tilde)
    assert np.array_equal(g.A, g.A.T)
    want = np.linalg.inv(bar.cov) - np.linalg.inv(tilde.cov)
    conds = np.linalg.cond(bar.cov) + np.linalg.cond(tilde.cov)
    scale_a = np.abs(np.linalg.inv(bar.cov)).max() \
        + np.abs(np.linalg.inv(tilde.cov)).max()
    assert np.abs(g.A - want).max() <= 1e-13 * conds * scale_a


def test_g_tilde_kf_vanishing_core():
    # Sigma = G R G^T makes the matrix factor vanish
    p = make_problem()
    gain = GainPair(A=np.array([[-0.8]]), c=np.array([0.3]))
    out = g_tilde_kf(p, np.array([1.5]), unit_moments(), gain)
    assert out[0] == pytest.approx(0.0)


def test_g_tilde_kf_zero_gain():
    p = make_problem(sigma=np.sqrt(2.0))
    gain = GainPair(A=np.zeros((1, 1)), c=np.zeros(1))
    out = g_tilde_kf(p, np.array([1.0]), unit_moments(), gain)
    assert out[0] == 0.0


def test_g_tilde_kf_substitution():
    # Ctilde=1, A=-1, c=0, m~=0, Sigma=2, GRG^T=1, x=1 -> 0.5
    p = make_problem(sigma=np.sqrt(2.0))
    gain = GainPair(A=np.array([[-1.0]]), c=np.zeros(1))
    out = g_tilde_kf(p, np.array([1.0]), unit_moments(), gain)
    assert out[0] == pytest.approx(0.5)


def test_reverse_drift_ou_eps_one():
    # classical reverse-time OU sampler: f~ = -x/2 at eps = 1
    p = make_problem()
    bar = unit_moments()
    tilde = unit_moments()
    gain = gain_from_moments(bar, tilde)
    for x in np.linspace(-3, 3, 7):
        out = reverse_drift(p, np.array([x]), bar, tilde, gain, 1.0)
        assert out[0] == pytest.approx(-0.5 * x, abs=1e-14)


def test_reverse_drift_ou_eps_zero_stationary():
    p = make_problem()
    bar = unit_moments()
    tilde = unit_moments()
    gain = gain_from_moments(bar, tilde)
    for x in np.linspace(-3, 3, 7):
        out = reverse_drift(p, np.array([x]), bar, tilde, gain, 0.0)
        assert abs(out[0]) < 1e-14


def test_g_tilde_contracts_reverse_covariance():
    # with Sigma > G R G^T and A < 0, the g~ term alone shrinks the
    # spread of the reverse ensemble
    p = make_problem(sigma=np.sqrt(2.0))
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 256))
    tilde = moments(Ensemble(particles=x), 0.0)
    gain = GainPair(A=np.array([[-1.0]]), c=np.zeros(1))
    dt = 1e-3
    pushed = x - dt * np.column_stack(
        [g_tilde_kf(p, x[:, i], tilde, gain) for i in range(x.shape[1])]).reshape(1, -1)
    cov_after = moments(Ensemble(particles=pushed), 0.0).cov[0, 0]
    assert cov_after < tilde.cov[0, 0]


def test_terminal_update_identical_particles():
    p = make_problem()
    e = Ensemble(particles=np.full((1, 6), 2.0), time=1.0)
    rng = np.random.default_rng(0)
    out = terminal_update(p, e, 1e-4, rng)
    assert np.allclose(out.particles, 2.0)


def test_terminal_update_kalman_contraction():
    # xi(x) = x, V = 1: a wide Gaussian ensemble is pulled toward 0 and
    # its variance approaches the Kalman posterior C - C^2/(C + V)
    p = make_problem()
    rng = np.random.default_rng(42)
    prior_cov = 4.0
    x = 1.0 + np.sqrt(prior_cov) * rng.standard_normal((1, 200000))
    e = Ensemble(particles=x, time=1.0)
    out = terminal_update(p, e, 0.0, np.random.default_rng(1))
    mom = moments(Ensemble(particles=out.particles), 0.0)
    k = prior_cov / (prior_cov + 1.0)
    assert mom.mean[0] == pytest.approx(1.0 - k * 1.0, abs=0.02)
    assert mom.cov[0, 0] == pytest.approx(prior_cov - k * prior_cov, rel=0.02)


def test_terminal_update_linear_mean_identity():
    # with xi linear and the perturbation noise marginalised the update
    # shifts the mean by -K xi(m) on average
    p = make_problem()
    rng = np.random.default_rng(3)
    x = 2.0 + rng.standard_normal((1, 100000))
    e = Ensemble(particles=x, time=1.0)
    out = terminal_update(p, e, 0.0, np.random.default_rng(4))
    m = x.mean()
    c = x.var(ddof=1)
    expected = m - c / (c + 1.0) * m
    assert out.particles.mean() == pytest.approx(expected, abs=0.02)
