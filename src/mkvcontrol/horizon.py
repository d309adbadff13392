"""Infinite-horizon discounted control via stationary sweeps.

For a discounted cost with factor gamma > 0 the reverse-sweep drift
correction acquires an extra gamma-proportional term that pulls the
reverse covariance back toward the forward one.  The stationary
control law is extracted from the equilibrated forward and reverse
moments.

Both equilibration loops reuse the solver's block steps; the reverse
one swaps in ``g_tilde_kf_discounted`` as the cost-of-control
correction of the Gaussian-closure reverse drift.
"""

from dataclasses import dataclass

import numpy as np

from . import enkf
from .errors import ConvergenceError, DimensionError
from .problem import ControlProblem
from .solver import (SolverConfig, _euler_step, _forward_step,
                     _init_particles, _located)
from .stats import Ensemble, EmpiricalMoments, block_or_state, moments


@dataclass
class HorizonConfig:
    gamma: float
    base: SolverConfig
    equilibrium_tol: float = 1e-6
    max_time: float = 100.0

    def __post_init__(self):
        if self.gamma <= 0:
            raise DimensionError("gamma must be positive")
        if self.equilibrium_tol <= 0:
            raise DimensionError("equilibrium_tol must be positive")
        if self.max_time <= 0:
            raise DimensionError("max_time must be positive")


@block_or_state
def g_tilde_kf_discounted(p: ControlProblem, x, tilde: EmpiricalMoments,
                          gain: enkf.GainPair, gamma: float):
    """Discounted reverse drift correction

        (1/2) Ctilde {gamma I + A (Sigma(m~) - G(m~) R G(m~)^T)}
              (A x + A m~ + 2 c).

    Reduces to the finite-horizon term at gamma = 0.
    """
    m = tilde.mean
    core = gamma * np.eye(p.dim_x) + gain.A @ enkf._frozen_core(p, m)
    return 0.5 * tilde.cov @ core @ (
        gain.A @ (x + m[:, None]) + 2.0 * gain.c[:, None])


def _moment_residual(prev: EmpiricalMoments, cur: EmpiricalMoments) -> float:
    return (np.abs(cur.mean - prev.mean).max()
            + np.abs(cur.cov - prev.cov).max())


def stationary_solve(p: ControlProblem, hcfg: HorizonConfig):
    """Equilibrate the forward sweep, then the discounted reverse sweep
    with frozen forward moments, and return the stationary gain.

    Returns ``(gain, diagnostics)`` where diagnostics carries the
    forward/reverse step counts, final residuals, the equilibrium
    moments, and the recorded reverse-covariance history.
    """
    cfg = hcfg.base
    dt = cfg.dt
    max_steps = int(np.ceil(hcfg.max_time / dt))
    streams = np.random.SeedSequence(cfg.seed).spawn(2)
    fwd_rng, rev_rng = (np.random.default_rng(s) for s in streams)

    # forward equilibration
    x = _init_particles(p, cfg, fwd_rng)
    bar_prev = None
    fwd_steps = 0
    fwd_residual = np.inf
    for step in range(max_steps):
        e = Ensemble._unchecked(x, step * dt)
        bar = moments(e, cfg.inflation)
        if bar_prev is not None:
            fwd_residual = _moment_residual(bar_prev, bar)
            # skip the stochastic warm-up steps when testing equilibrium
            if step > cfg.eps_noise_forward.n_first and \
                    fwd_residual < hcfg.equilibrium_tol * dt:
                fwd_steps = step
                break
        bar_prev = bar
        x = _forward_step(p, cfg, e, bar, step, fwd_rng)
    else:
        raise ConvergenceError(
            f"forward sweep did not equilibrate within max_time "
            f"{hcfg.max_time} (residual {fwd_residual:.3e})",
            residual=fwd_residual)

    # reverse equilibration from the forward equilibrium ensemble
    # (the reverse density starts equal to the forward one)
    y = x.copy()
    tilde_prev = None
    rev_residual = np.inf
    rev_steps = 0
    tilde_cov_history = []
    for step in range(max_steps):
        with _located(step, step * dt):
            tilde = moments(Ensemble._unchecked(y), cfg.inflation)
            tilde_cov_history.append(tilde.cov.copy())
            if tilde_prev is not None:
                rev_residual = _moment_residual(tilde_prev, tilde)
                if rev_residual < hcfg.equilibrium_tol * dt:
                    rev_steps = step
                    break
            tilde_prev = tilde
            gain = enkf.gain_from_moments(bar, tilde)
            eps = cfg.eps_noise_reverse.at(step)
            drift = enkf._reverse_drift(
                p, y, bar, tilde, eps,
                g_tilde_kf_discounted(p, y, tilde, gain, hcfg.gamma))
            y = _euler_step(p, y, drift, eps, dt, rev_rng.standard_normal)
    else:
        raise ConvergenceError(
            f"reverse sweep did not equilibrate within max_time "
            f"{hcfg.max_time} (residual {rev_residual:.3e})",
            residual=rev_residual)
    gain = enkf.gain_from_moments(bar, tilde)
    diagnostics = {
        "forward_steps": fwd_steps,
        "reverse_steps": rev_steps,
        "forward_residual": fwd_residual,
        "reverse_residual": rev_residual,
        "bar_eq": bar,
        "tilde_eq": tilde,
        "tilde_cov_history": np.array(tilde_cov_history),
    }
    return gain, diagnostics
