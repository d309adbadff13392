"""Gaussian-closure (EnKF-type) drift approximations and control gains.

These are the moment-based approximations of the interaction terms in
the forward and reverse mean-field SDEs: the running-cost drift
correction, the grad-log-density groups evaluated through empirical
covariances, the stochastic EnKF update applied at the final time, and
the extraction of the affine gain pair (A_t, c_t) from forward and
reverse moments.

The drift terms take a (d, M) particle block (or one (d,) state), so a
sweep step calls each once, and evaluate the model maps on the block
through ``ControlProblem.evaluate``.  ``_reverse_drift`` takes the
cost-of-control correction as an input, so the split-step and
discounted sweeps reuse it.

Sign convention for the reverse drift: the reverse sweep applies

    X_{n-1} = X_n + dt * reverse_drift(X_n) + sqrt(eps * dt) * sigma * noise,

and with b(x) = -x/2, Sigma = 1, G = R = 1 and unit Gaussian forward
moments the reverse drift equals -x/2 at eps = 1 (the classical
reverse-time Ornstein-Uhlenbeck sampler) and vanishes at eps = 0 for
matching stationary moments.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalBlowupError
from .problem import ControlProblem
from .stats import (Ensemble, EmpiricalMoments, _require_size, block_or_state,
                    cross_cov, map_moments, matvec_columns)


@dataclass
class GainPair:
    """Affine feedback gain A (symmetric) and shift c."""

    A: np.ndarray
    c: np.ndarray


def _grad_log_group(sig, div, mom: EmpiricalMoments, x):
    """div Sigma - Sigma C^-1 (x - m) on a (d, M) block, given the
    ``p.stack`` of Sigma and div Sigma (d, M) at the block."""
    return div - matvec_columns(sig, mom.solve(x - mom.mean[:, None]))


@block_or_state
def g_bar_kf(p: ControlProblem, x, Cxh, mh, h=None):
    """Running-cost drift correction (1/2) C^{xh} S^-1 (h(x) + m^h).
    ``h`` is the (dim_h, M) value of h at a block, when the caller has
    it."""
    if h is None:
        h = p.evaluate("running_map", x)
    Cxh = np.atleast_2d(np.asarray(Cxh, dtype=float))
    return 0.5 * Cxh @ p.solve_s(h + np.asarray(mh, dtype=float)[:, None])


def _forward_drift(p: ControlProblem, x, grad_log, Cxh, mh, eps_noise,
                   h=None):
    """b(x) - (1-eps)/2 * grad_log - g_bar_kf(x) on a (d, M) block."""
    return (p.evaluate("drift", x)
            - 0.5 * (1.0 - eps_noise) * grad_log
            - g_bar_kf(p, x, Cxh, mh, h))


@block_or_state
def forward_drift(p: ControlProblem, x, bar: EmpiricalMoments, Cxh, mh,
                  eps_noise: float, h=None):
    """Drift of the forward mean-field SDE under the Gaussian closure.

    b(x) - (1-eps)/2 * (div Sigma - Sigma C^-1 (x - m)) - g_bar_kf(x),
    with ``h`` passed on to ``g_bar_kf``.
    """
    group = _grad_log_group(p.stack("sigma_sq", x),
                            p.evaluate("div_sigma", x), bar, x)
    return _forward_drift(p, x, group, Cxh, mh, eps_noise, h)


def terminal_update(p: ControlProblem, e: Ensemble, delta: float, rng
                    ) -> Ensemble:
    """Stochastic EnKF update turning the forward ensemble at T into the
    terminal reverse ensemble:

        X~ = X - C^{x xi} (C^{xi xi} + V)^-1 (xi(X) + V^{1/2} Noise).

    The inversion is regularised by V itself; ``delta`` is the
    inflation used elsewhere and is not added here.
    """
    _require_size(e)
    x = e.particles
    xi_vals = p.evaluate("terminal_map", x)
    C_xxi = cross_cov(e, xi_vals)
    _, C_xixi = map_moments(e, xi_vals)
    K = np.linalg.solve((C_xixi + p.terminal_weight).T, C_xxi.T).T
    noise = rng.standard_normal((p.dim_xi, e.size))
    updated = x - K @ (xi_vals + p.v_sqrt @ noise)
    if not np.all(np.isfinite(updated)):
        raise NumericalBlowupError("non-finite terminal EnKF update")
    return Ensemble._unchecked(updated, e.time)


def gain_from_moments(bar: EmpiricalMoments, tilde: EmpiricalMoments
                      ) -> GainPair:
    """A = Cbar^-1 - Ctilde^-1 (symmetrized), c = Ctilde^-1 m~ - Cbar^-1 m."""
    bar_inv = bar.inv()
    tilde_inv = tilde.inv()
    A = bar_inv - tilde_inv
    A = 0.5 * (A + A.T)
    c = tilde_inv @ tilde.mean - bar_inv @ bar.mean
    return GainPair(A=A, c=c)


def _frozen_core(p: ControlProblem, m):
    """Sigma(m) - G(m) R G(m)^T at the single state ``m``."""
    col = m[:, None]
    g = p.evaluate("gain", col)[..., 0]
    return p.evaluate("sigma_sq", col)[..., 0] - g @ p.control_weight @ g.T


@block_or_state
def g_tilde_kf(p: ControlProblem, x, tilde: EmpiricalMoments, gain: GainPair):
    """Reverse-sweep cost-of-control drift term

        (1/2) Ctilde A (Sigma(m~) - G(m~) R G(m~)^T) (A x + A m~ + 2 c),

    with Sigma and G frozen at the reverse mean m~.
    """
    m = tilde.mean
    core = _frozen_core(p, m)
    v = matvec_columns(gain.A, x + m[:, None]) + 2.0 * gain.c[:, None]
    return matvec_columns(0.5 * tilde.cov @ gain.A @ core, v)


def _reverse_drift(p: ControlProblem, x, bar, tilde: EmpiricalMoments,
                   eps_noise: float, correction):
    """``reverse_drift`` of a (d, M) block with ``correction`` in place of
    g_tilde_kf(x).  ``bar=None`` drops the forward group, which the
    split-step sweep replaces by its hull projection."""
    sig = p.stack("sigma_sq", x)
    div = p.evaluate("div_sigma", x)
    out = -p.evaluate("drift", x)
    if bar is not None:
        out = out + _grad_log_group(sig, div, bar, x)
    return (out - 0.5 * (1.0 - eps_noise) * _grad_log_group(sig, div, tilde, x)
            - correction)


@block_or_state
def reverse_drift(p: ControlProblem, x, bar: EmpiricalMoments,
                  tilde: EmpiricalMoments, gain: GainPair, eps_noise: float):
    """Drift of the reverse mean-field SDE under the Gaussian closure.

    -b(x) + (div Sigma - Sigma Cbar^-1 (x - m))
          - (1-eps)/2 * (div Sigma - Sigma Ctilde^-1 (x - m~))
          - g_tilde_kf(x).
    """
    return _reverse_drift(p, x, bar, tilde, eps_noise,
                          g_tilde_kf(p, x, tilde, gain))
