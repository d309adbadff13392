"""Tests for the discounted infinite-horizon extension."""

import numpy as np
import pytest

from mkvcontrol import (ConvergenceError, DimensionError, EmpiricalMoments,
                        GainPair, HorizonConfig, NoiseSchedule, SolverConfig,
                        g_tilde_kf, g_tilde_kf_discounted, get_scenario,
                        stationary_solve)
from mkvcontrol import horizon


def lq_problem():
    return get_scenario("lq").make_problem()


def unit_tilde(mean=0.0, cov=1.0):
    return EmpiricalMoments(mean=np.array([mean]), cov=np.array([[cov]]))


def test_discounted_reduces_to_finite_horizon_at_zero_gamma():
    p = lq_problem()
    tilde = unit_tilde(0.3, 1.4)
    gain = GainPair(A=np.array([[-0.6]]), c=np.array([0.2]))
    for x in (-1.0, 0.5, 2.0):
        a = g_tilde_kf_discounted(p, np.array([x]), tilde, gain, 0.0)
        b = g_tilde_kf(p, np.array([x]), tilde, gain)
        assert a[0] == pytest.approx(b[0])


def test_discounted_zero_gain():
    p = lq_problem()
    gain = GainPair(A=np.zeros((1, 1)), c=np.zeros(1))
    out = g_tilde_kf_discounted(p, np.array([1.0]), unit_tilde(), gain, 2.0)
    assert out[0] == 0.0


def test_discounted_substitution():
    # Ctilde=1, gamma=1, A=-1, Sigma - G R G^T = 0, c=0, m~=0, x=1 -> -0.5
    p = lq_problem()
    gain = GainPair(A=np.array([[-1.0]]), c=np.zeros(1))
    out = g_tilde_kf_discounted(p, np.array([1.0]), unit_tilde(), gain, 1.0)
    assert out[0] == pytest.approx(-0.5)


def test_discounted_is_affine_in_x():
    p = lq_problem()
    tilde = unit_tilde(0.1, 0.8)
    gain = GainPair(A=np.array([[-0.5]]), c=np.array([0.4]))
    gamma = 0.7
    probes = [-2.0, 0.0, 3.0]
    vals = [g_tilde_kf_discounted(p, np.array([x]), tilde, gain, gamma)[0]
            for x in probes]
    # constant slope across the probe points
    s1 = (vals[1] - vals[0]) / (probes[1] - probes[0])
    s2 = (vals[2] - vals[1]) / (probes[2] - probes[1])
    assert s1 == pytest.approx(s2)
    # slope equals (1/2) Ctilde (gamma + A (Sigma - G R G^T)) A
    expected = 0.5 * 0.8 * (gamma + (-0.5) * (1.0 - 1.0)) * (-0.5)
    assert s1 == pytest.approx(expected)


def test_horizon_config_validation():
    base = SolverConfig(dt=0.1, ensemble_size=4)
    with pytest.raises(DimensionError):
        HorizonConfig(gamma=0.0, base=base)
    with pytest.raises(DimensionError):
        HorizonConfig(gamma=1.0, base=base, equilibrium_tol=0.0)


@pytest.mark.parametrize("field,value", [
    ("gamma", float("nan")), ("gamma", float("inf")),
    ("equilibrium_tol", float("nan")), ("equilibrium_tol", float("inf")),
    ("max_time", float("nan")), ("max_time", float("inf"))])
def test_horizon_config_rejects_nonfinite_values(field, value):
    kw = {"gamma": 0.5, "base": SolverConfig(dt=0.1, ensemble_size=4),
          field: value}
    with pytest.raises(DimensionError, match=field):
        HorizonConfig(**kw)


def lq_stationary_config(**kw):
    base = get_scenario("lq").default_config()
    base.ensemble_size = 16
    return HorizonConfig(gamma=0.5, base=base, **kw)


def test_stationary_step_sizes_grow_only_on_deterministic_steps():
    # the first forward step and the first three reverse steps are noisy
    hcfg = lq_stationary_config()
    dt = hcfg.base.dt
    hcfg.base.eps_noise_reverse = NoiseSchedule(first=0.5, n_first=3)
    _, diag = stationary_solve(lq_problem(), hcfg)
    fwd, rev = diag["forward_step_sizes"], diag["reverse_step_sizes"]
    assert (len(fwd), len(rev)) == (diag["forward_steps"],
                                    diag["reverse_steps"])
    assert len(diag["tilde_cov_history"]) == len(rev) + 1
    assert fwd[0] == dt and np.all(rev[:3] == dt)
    for sizes in (fwd, rev):
        assert np.all((sizes >= dt) & (sizes <= horizon._MAX_STEP))
        assert sizes.max() == horizon._MAX_STEP
        # each step is 1.2x or half the one before, unless clipped
        ratio = sizes[1:] / sizes[:-1]
        clipped = (sizes[1:] == dt) | (sizes[1:] == horizon._MAX_STEP)
        assert np.all(np.isclose(ratio, 1.2) | np.isclose(ratio, 0.5)
                      | clipped)


def test_stationary_budget_is_pseudo_time():
    # the forward loop equilibrates in a few hundred steps that span about
    # 12.5 units of pseudo-time; a budget of 5 would allow 5000 steps of
    # dt, but it is pseudo-time, so the loop runs out of it
    hcfg = lq_stationary_config()
    _, diag = stationary_solve(lq_problem(), hcfg)
    assert diag["forward_steps"] < 5.0 / hcfg.base.dt
    assert diag["forward_step_sizes"].sum() > 5.0
    with pytest.raises(ConvergenceError, match="forward sweep") as info:
        stationary_solve(lq_problem(), lq_stationary_config(max_time=5.0))
    assert 0.0 < info.value.residual < np.inf


def test_stationary_solve_matches_algebraic_riccati():
    p = lq_problem()
    gamma = 0.5
    gain, diag = stationary_solve(p, lq_stationary_config())
    # stationary Riccati for b = a x: R q^2 + (gamma - 2a) q - 1/S = 0,
    # with A_eq = -q
    a = -0.5
    q = (-(gamma - 2 * a) + np.sqrt((gamma - 2 * a) ** 2 + 4.0)) / 2.0
    assert gain.A[0, 0] == pytest.approx(-q, rel=0.01)
    assert diag["forward_steps"] > 0
    assert diag["reverse_steps"] > 0
    # closed-loop linearisation is more stable than the open loop:
    # b'(x) + G R G A_eq = a + A_eq < a
    assert a + gain.A[0, 0] < a
