"""Per-particle reference of the sweep and path loops, for equivalence
tests.

This is the loop-per-particle formulation the block engine in
``mkvcontrol.solver`` replaced: every drift term, control and cost is
evaluated one state at a time, and controlled paths are stepped one
path at a time.  It is kept here, outside the package, only so that
tests can check that the block engine reproduces it.
"""

import itertools

import numpy as np

from mkvcontrol import dmap, horizon
from mkvcontrol.enkf import gain_from_moments, terminal_update
from mkvcontrol.stats import (Ensemble, EmpiricalMoments, cross_cov,
                              map_moments, moments)


def _f(v):
    return np.asarray(v, dtype=float)


def grad_log_group(p, x, mom):
    return p.div_sigma(x) - p.sigma_sq(x) @ mom.solve(x - mom.mean)


def g_bar_kf(p, x, cxh, mh):
    h = _f(p.running_map(x)).reshape(-1)
    return 0.5 * np.atleast_2d(cxh) @ p.solve_s(h + mh)


def g_tilde_kf(p, x, tilde, gain, gamma=None):
    """Finite-horizon correction, or the discounted one given ``gamma``."""
    m = tilde.mean
    g = _f(p.gain(m))
    core = p.sigma_sq(m) - g @ p.control_weight @ g.T
    v = gain.A @ (x + m) + 2.0 * gain.c
    if gamma is None:
        return 0.5 * tilde.cov @ gain.A @ core @ v
    return 0.5 * tilde.cov @ (gamma * np.eye(p.dim_x) + gain.A @ core) @ v


def forward_drift(p, x, bar, cxh, mh, eps):
    return (_f(p.drift(x)) - 0.5 * (1.0 - eps) * grad_log_group(p, x, bar)
            - g_bar_kf(p, x, cxh, mh))


def reverse_drift(p, x, bar, tilde, gain, eps, gamma=None):
    return (-_f(p.drift(x)) + grad_log_group(p, x, bar)
            - 0.5 * (1.0 - eps) * grad_log_group(p, x, tilde)
            - g_tilde_kf(p, x, tilde, gain, gamma))


def _noise(p, x, x_new, eps, dt, rng):
    if eps > 0.0:
        noise = rng.standard_normal((p.dim_b, x.shape[1]))
        for i in range(x.shape[1]):
            x_new[:, i] += np.sqrt(eps * dt) * (_f(p.noise(x[:, i]))
                                                @ noise[:, i])
    return x_new


def _init(p, cfg, rng):
    x = np.tile(p.start[:, None], (1, cfg.ensemble_size))
    if cfg.init_cov is not None:
        chol = np.linalg.cholesky(np.atleast_2d(_f(cfg.init_cov)))
        x = x + chol @ rng.standard_normal((p.dim_x, cfg.ensemble_size))
    return x


def _forward_step(p, cfg, x, t, step, rng, residuals=None, dt=None):
    dt = cfg.dt if dt is None else dt
    e = Ensemble(particles=x, time=t)
    bar = moments(e, cfg.inflation)
    eps = cfg.eps_noise_forward.at(step)
    cxh = cross_cov(e, p.running_map)
    mh, _ = map_moments(e, p.running_map)
    drift = np.zeros_like(x)
    if residuals is not None and eps < 1.0:
        op = dmap.build_operator(x, p.sigma_sq, cfg.kernel_scale(),
                                 tol=cfg.sinkhorn_tol,
                                 max_iter=cfg.sinkhorn_max_iter)
        residuals.append(max(op.row_residual, op.col_residual))
        for i in range(x.shape[1]):
            xi = x[:, i]
            drift[:, i] = (_f(p.drift(xi))
                           - 0.5 * (1.0 - eps) * dmap.grad_log_estimate(op, xi)
                           - g_bar_kf(p, xi, cxh, mh))
    else:
        for i in range(x.shape[1]):
            drift[:, i] = forward_drift(p, x[:, i], bar, cxh, mh, eps)
    return bar, _noise(p, x, x + dt * drift, eps, dt, rng)


def solve(p, cfg):
    """Forward sweep, terminal update and reverse sweep; returns a dict
    of the recorded moments, gains and shifts."""
    streams = np.random.SeedSequence(cfg.seed).spawn(3)
    fwd_rng, term_rng, rev_rng = (np.random.default_rng(s) for s in streams)
    n = cfg.n_steps(p.horizon)
    times = np.arange(n + 1) * cfg.dt
    split = cfg.backend == "dmap_enkf"
    residuals = [] if split else None
    bars, ensembles = [], []
    x = _init(p, cfg, fwd_rng)
    for step in range(n):
        ensembles.append(x.copy())
        bar, x = _forward_step(p, cfg, x, times[step], step, fwd_rng,
                               residuals)
        bars.append(bar)
    ensembles.append(x.copy())
    bars.append(moments(Ensemble(particles=x), cfg.inflation))
    x = terminal_update(p, Ensemble(particles=x, time=p.horizon),
                        cfg.inflation, term_rng).particles

    out = {k: [None] * (n + 1) for k in
           ("tilde_means", "tilde_covs", "gains", "shifts")}
    for back, step in enumerate(range(n, -1, -1)):
        tilde = moments(Ensemble(particles=x), cfg.inflation)
        bar = EmpiricalMoments(mean=bars[step].mean, cov=bars[step].cov)
        gain = gain_from_moments(bar, tilde)
        out["tilde_means"][step], out["tilde_covs"][step] = tilde.mean, tilde.cov
        out["gains"][step], out["shifts"][step] = gain.A, gain.c
        if step == 0:
            break
        eps = cfg.eps_noise_reverse.at(back)
        new = np.zeros_like(x)
        for i in range(x.shape[1]):
            xi = x[:, i]
            if split:
                drift = (-_f(p.drift(xi)) - g_tilde_kf(p, xi, tilde, gain)
                         - 0.5 * (1.0 - eps) * grad_log_group(p, xi, tilde))
            else:
                drift = reverse_drift(p, xi, bar, tilde, gain, eps)
            new[:, i] = xi + cfg.dt * drift
        x = _noise(p, x, new, eps, cfg.dt, rev_rng)
        if split:
            op = dmap.build_operator(ensembles[step - 1], p.sigma_sq,
                                     cfg.kernel_scale(), tol=cfg.sinkhorn_tol,
                                     max_iter=cfg.sinkhorn_max_iter)
            x = np.column_stack([op.anchors @ dmap.membership_weights(
                op, x[:, i]) for i in range(x.shape[1])])
    out = {k: np.array(v) for k, v in out.items()}
    out["bar_means"] = np.array([b.mean for b in bars])
    out["bar_covs"] = np.array([b.cov for b in bars])
    return out


def stationary_solve(p, hcfg):
    """Forward then discounted reverse equilibration in pseudo-time;
    returns the stationary gain and the forward/reverse step counts."""
    cfg, dt = hcfg.base, hcfg.base.dt
    tol = hcfg.equilibrium_tol
    streams = np.random.SeedSequence(cfg.seed).spawn(2)
    fwd_rng, rev_rng = (np.random.default_rng(s) for s in streams)
    x = _init(p, cfg, fwd_rng)
    bar_prev, h, rate = None, dt, np.inf
    for fwd_steps in itertools.count():
        bar = moments(Ensemble(particles=x), cfg.inflation)
        if bar_prev is not None:
            res = _residual(bar_prev, bar)
            if fwd_steps > cfg.eps_noise_forward.n_first and res < tol * h:
                break
            noisy = cfg.eps_noise_forward.at(fwd_steps) > 0
            h, rate = _next_size(hcfg, h, res / h, rate, noisy)
        bar_prev = bar
        _, x = _forward_step(p, cfg, x, 0.0, fwd_steps, fwd_rng, dt=h)
    bar_eq = moments(Ensemble(particles=x), cfg.inflation)
    tilde_prev, h, rate = None, dt, np.inf
    for rev_steps in itertools.count():
        tilde = moments(Ensemble(particles=x), cfg.inflation)
        eps = cfg.eps_noise_reverse.at(rev_steps)
        if tilde_prev is not None:
            res = _residual(tilde_prev, tilde)
            if res < tol * h:
                break
            h, rate = _next_size(hcfg, h, res / h, rate, eps > 0)
        tilde_prev = tilde
        gain = gain_from_moments(bar_eq, tilde)
        new = np.column_stack([
            x[:, i] + h * reverse_drift(p, x[:, i], bar_eq, tilde, gain,
                                        eps, hcfg.gamma)
            for i in range(x.shape[1])])
        x = _noise(p, x, new, eps, h, rev_rng)
    tilde_eq = moments(Ensemble(particles=x), cfg.inflation)
    return gain_from_moments(bar_eq, tilde_eq), (fwd_steps, rev_steps)


def _next_size(hcfg, h, rate, prev_rate, noisy):
    """Switched evolution relaxation: grow 1.2x while the residual rate
    falls, halve otherwise, within [dt, max(dt, horizon._MAX_STEP)]; a
    noisy step keeps dt.  Returns the next size and the rate to compare
    with."""
    dt = hcfg.base.dt
    if noisy:
        return dt, rate
    h = h * 1.2 if rate < prev_rate else h / 2
    return min(max(h, dt), max(dt, horizon._MAX_STEP)), rate


def _residual(prev, cur):
    return (np.abs(cur.mean - prev.mean).max()
            + np.abs(cur.cov - prev.cov).max())


# ---------------------------------------------------------------------------
# controlled paths and their cost, one path and one state at a time


def apply_control(p, sched, t, x):
    A, c = sched.at(t)
    return p.control_weight @ (np.asarray(p.gain(x)).T @ (A @ x + c))


def running_cost(p, x):
    h = _f(p.running_map(x)).reshape(-1)
    return 0.5 * float(h @ p.solve_s(h))


def terminal_cost(p, x):
    xi = _f(p.terminal_map(x)).reshape(-1)
    return 0.5 * float(xi @ p.solve_v(xi))


def control_cost(p, u):
    u = _f(u).reshape(-1)
    return 0.5 * float(u @ p.solve_r(u))


def simulate_controlled(p, sched, rho, n_paths, rng):
    """Euler-Maruyama paths under the feedback law, stepped one path at
    a time with one normal draw per step from the path's own stream."""
    times = sched.times
    n = len(times) - 1
    states = np.zeros((n_paths, n + 1, p.dim_x))
    controls = np.zeros((n_paths, n + 1, p.dim_u))
    path_rngs = [np.random.default_rng(s)
                 for s in rng.bit_generator.seed_seq.spawn(n_paths)]
    for k in range(n_paths):
        x = p.start.copy()
        for step in range(n + 1):
            u = apply_control(p, sched, times[step], x)
            states[k, step] = x
            controls[k, step] = u
            if step == n:
                break
            dt = times[step + 1] - times[step]
            x_new = x + dt * (_f(p.drift(x)) + _f(p.gain(x)) @ u)
            if rho != 0.0:
                xi = path_rngs[k].standard_normal(p.dim_b)
                x_new = x_new + rho * np.sqrt(dt) * (_f(p.noise(x)) @ xi)
            x = x_new
    return times, states, controls


def estimate_cost(p, sched, rho, n_paths, rng):
    """Mean and standard error of the left-endpoint path costs."""
    times, states, controls = simulate_controlled(p, sched, rho, n_paths, rng)
    dts = np.diff(times)
    costs = np.zeros(n_paths)
    for k in range(n_paths):
        acc = 0.0
        for step in range(len(dts)):
            acc += dts[step] * (running_cost(p, states[k, step])
                                + control_cost(p, controls[k, step]))
        acc += terminal_cost(p, states[k, -1])
        costs[k] = acc
    stderr = costs.std(ddof=1) / np.sqrt(n_paths) if n_paths > 1 else 0.0
    return float(costs.mean()), float(stderr)
