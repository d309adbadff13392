"""Infinite-horizon discounted control via stationary sweeps.

For a discounted cost with factor gamma > 0 the reverse-sweep drift
correction acquires an extra gamma-proportional term that pulls the
reverse covariance back toward the forward one.  The stationary
control law is extracted from the equilibrated forward and reverse
moments.

Both equilibration loops reuse the solver's block steps; the reverse
one swaps in ``g_tilde_kf_discounted`` as the cost-of-control
correction of the Gaussian-closure reverse drift.

Only the equilibrium is wanted, and once the noisy steps are over it is
a zero of the particle drift, whatever the step size.  So both loops
march in pseudo-time with switched evolution relaxation (Mulder & van
Leer, AIAA 85-1510, 1985; analysed by Kelley & Keyes, SIAM J. Numer.
Anal. 1998): a deterministic step grows from ``dt`` up to ``_MAX_STEP``
while its residual rate falls.  ``max_time``, the diagnostics' step
sizes and the time of a blow-up are all in that pseudo-time.
"""

import itertools
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
    max_time: float = 100.0    # pseudo-time budget of each sweep

    def __post_init__(self):
        for name in ("gamma", "equilibrium_tol", "max_time"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise DimensionError(f"{name} must be positive and finite")


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


# Largest pseudo-step.  As a fixed step, the Gaussian closure on langevin
# (M = 16, gamma = 0.5) equilibrates at 0.05 and overflows at 0.1; the
# step halves only after its rate has risen, so the cap must be stable
# on its own.
_MAX_STEP = 0.05


class _PseudoTime:
    """Switched evolution relaxation of one equilibration loop.

    The residual rate of a step is its moment residual over its size.
    The march has equilibrated once a step's residual is below
    ``equilibrium_tol`` times its size.  The next step grows 1.2x while
    the rate falls and halves otherwise, within [dt, max(dt, _MAX_STEP)];
    a noisy step keeps dt.
    """

    def __init__(self, hcfg: HorizonConfig, sweep: str):
        self.hcfg, self.sweep = hcfg, sweep
        self.dt = hcfg.base.dt
        self.largest = max(self.dt, _MAX_STEP)
        self.time, self.rate, self.sizes = 0.0, np.inf, []

    def settled(self, residual) -> bool:
        return residual < self.hcfg.equilibrium_tol * self.sizes[-1]

    def next_size(self, residual, noisy: bool) -> float:
        """Size of the next step after one of residual ``residual``;
        ConvergenceError once ``max_time`` is spent."""
        if self.time >= self.hcfg.max_time:
            raise ConvergenceError(
                f"{self.sweep} sweep did not equilibrate within max_time "
                f"{self.hcfg.max_time} (residual {residual:.3e})",
                residual=residual)
        h = self.dt
        if self.sizes:
            rate = residual / self.sizes[-1]
            if not noisy:
                h = self.sizes[-1] * (1.2 if rate < self.rate else 0.5)
                h = min(max(h, self.dt), self.largest)
            self.rate = rate
        self.sizes.append(h)
        self.time += h
        return h


def stationary_solve(p: ControlProblem, hcfg: HorizonConfig):
    """Equilibrate the forward sweep, then the discounted reverse sweep
    with frozen forward moments, and return the stationary gain.

    Both loops march in pseudo-time under ``_PseudoTime``, with steps
    from dt up to ``_MAX_STEP``, so ``max_time`` and the time of a
    ``NumericalBlowupError`` are pseudo-times.  A ``_MAX_STEP`` at or
    below dt gives back fixed steps of size dt.

    Returns ``(gain, diagnostics)`` where diagnostics carries the
    forward/reverse step counts, the step sizes taken by each loop
    (``forward_step_sizes``, ``reverse_step_sizes``), final residuals,
    the equilibrium moments, and the reverse covariance at each
    pseudo-step (``tilde_cov_history``, one entry more than reverse
    steps).
    """
    cfg = hcfg.base
    streams = np.random.SeedSequence(cfg.seed).spawn(2)
    fwd_rng, rev_rng = (np.random.default_rng(s) for s in streams)

    # forward equilibration
    fwd = _PseudoTime(hcfg, "forward")
    x = _init_particles(p, cfg, fwd_rng)
    bar_prev = None
    fwd_residual = np.inf
    for step in itertools.count():
        e = Ensemble._unchecked(x, fwd.time)
        bar = moments(e, cfg.inflation)
        if bar_prev is not None:
            fwd_residual = _moment_residual(bar_prev, bar)
            # skip the stochastic warm-up steps when testing equilibrium
            if step > cfg.eps_noise_forward.n_first and \
                    fwd.settled(fwd_residual):
                break
        bar_prev = bar
        h = fwd.next_size(fwd_residual, cfg.eps_noise_forward.at(step) > 0)
        x = _forward_step(p, cfg, e, bar, step, h, fwd_rng)

    # reverse equilibration from the forward equilibrium ensemble
    # (the reverse density starts equal to the forward one)
    rev = _PseudoTime(hcfg, "reverse")
    y = x.copy()
    tilde_prev = None
    rev_residual = np.inf
    tilde_cov_history = []
    for step in itertools.count():
        with _located(step, rev.time):
            tilde = moments(Ensemble._unchecked(y), cfg.inflation)
            tilde_cov_history.append(tilde.cov.copy())
            if tilde_prev is not None:
                rev_residual = _moment_residual(tilde_prev, tilde)
                if rev.settled(rev_residual):
                    break
            tilde_prev = tilde
            gain = enkf.gain_from_moments(bar, tilde)
            eps = cfg.eps_noise_reverse.at(step)
            drift = enkf._reverse_drift(
                p, y, bar, tilde, eps,
                g_tilde_kf_discounted(p, y, tilde, gain, hcfg.gamma))
            h = rev.next_size(rev_residual, eps > 0)
            y = _euler_step(p, y, drift, eps, h, rev_rng.standard_normal)
    gain = enkf.gain_from_moments(bar, tilde)
    diagnostics = {
        "forward_steps": len(fwd.sizes),
        "reverse_steps": len(rev.sizes),
        "forward_residual": fwd_residual,
        "reverse_residual": rev_residual,
        "bar_eq": bar,
        "tilde_eq": tilde,
        "tilde_cov_history": np.array(tilde_cov_history),
        "forward_step_sizes": np.array(fwd.sizes),
        "reverse_step_sizes": np.array(rev.sizes),
    }
    return gain, diagnostics
