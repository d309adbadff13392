"""Forward/reverse sweeps, schedule assembly, simulation and cost.

The solver integrates an interacting-particle approximation of the
forward mean-field SDE from t = 0 to T, applies the stochastic EnKF
update at the final time, then integrates the reverse mean-field SDE
back to t = 0.  Per-step gain pairs (A_t, c_t) extracted from the
forward and reverse moments form the affine control schedule.

Two reverse backends are available: ``enkf`` (all interaction terms
through Gaussian moment closures) and ``dmap_enkf`` (grad-log density
terms through each forward ensemble's diffusion map, built once and
queried in blocks, which projects reverse particles into its hull).

Each step is written once and acts on the whole (d, M) particle
block: ``_forward_step`` and ``_reverse_sweep`` call their drift once
per step and share ``_euler_step``, which names the first non-finite
particle.  ``horizon.stationary_solve`` reuses them, and
``simulate_controlled`` steps its block of paths with ``_euler_step``.
Since ``_euler_step`` checks every new block, the sweeps wrap their
blocks in ``Ensemble`` without its finiteness scan; the initial
particles are scanned once, in ``_init_particles``.
"""

import contextlib
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import dmap, enkf
from .errors import DimensionError, NumericalBlowupError
from .problem import (AffineControlSchedule, ControlProblem, apply_control,
                      control_cost, running_cost, terminal_cost)
from .stats import (Ensemble, EmpiricalMoments, cross_cov, map_moments,
                    matvec_columns, moments)

BACKENDS = ("enkf", "dmap_enkf")


@dataclass
class NoiseSchedule:
    """Step-indexed noise level: ``first`` for the initial ``n_first``
    steps, ``rest`` afterwards.  All values must lie in [0, 1]."""

    first: float = 0.0
    n_first: int = 0
    rest: float = 0.0

    def __post_init__(self):
        for v in (self.first, self.rest):
            if not 0.0 <= v <= 1.0:
                raise DimensionError("noise levels must lie in [0, 1]")
        if self.n_first < 0:
            raise DimensionError("n_first must be nonnegative")

    def at(self, n: int) -> float:
        return self.first if n < self.n_first else self.rest

    @classmethod
    def constant(cls, value: float):
        return cls(first=value, n_first=0, rest=value)


@dataclass
class SolverConfig:
    dt: float = 1e-2
    ensemble_size: int = 64
    eps_noise_forward: NoiseSchedule = field(
        default_factory=lambda: NoiseSchedule(first=1.0, n_first=1, rest=0.0))
    eps_noise_reverse: NoiseSchedule = field(default_factory=NoiseSchedule)
    inflation: float = 1e-6
    backend: str = "enkf"
    eps_dm: Optional[float] = None   # kernel scale; defaults to dt
    seed: int = 0
    record_every: int = 1
    init_cov: Optional[np.ndarray] = None  # optional initial particle spread
    sinkhorn_tol: float = dmap.DEFAULT_SINKHORN_TOL
    sinkhorn_max_iter: int = dmap.DEFAULT_SINKHORN_MAX_ITER

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise DimensionError("dt must be positive and finite")
        if self.ensemble_size < 2:
            raise DimensionError("ensemble_size must be at least 2")
        if not (np.isfinite(self.inflation) and self.inflation >= 0):
            raise DimensionError("inflation must be nonnegative and finite")
        if self.eps_dm is not None and not (np.isfinite(self.eps_dm)
                                            and self.eps_dm > 0):
            raise DimensionError("eps_dm must be positive and finite")
        if self.backend not in BACKENDS:
            raise DimensionError(f"backend must be one of {BACKENDS}")
        if self.record_every < 1:
            raise DimensionError("record_every must be a positive integer")

    def n_steps(self, horizon: float) -> int:
        n = int(round(horizon / self.dt))
        if n < 1:
            raise DimensionError(
                f"horizon {horizon} is shorter than half of dt {self.dt}")
        return n

    def kernel_scale(self) -> float:
        return self.dt if self.eps_dm is None else self.eps_dm


@dataclass
class SweepRecord:
    """Per-grid-point moments, gains, and solver diagnostics.  The reverse
    sweep reuses the forward sweep's inverses of ``bar_covs``, kept in
    ``bar_invs``, and releases them and ``forward_operators`` at its end."""

    times: np.ndarray
    bar_means: np.ndarray = None
    bar_covs: np.ndarray = None
    bar_invs: Optional[np.ndarray] = None
    tilde_means: np.ndarray = None
    tilde_covs: np.ndarray = None
    gains: np.ndarray = None
    shifts: np.ndarray = None
    forward_ensembles: Optional[List[np.ndarray]] = None
    forward_operators: Optional[List[dmap.DiffusionMapOperator]] = None
    sinkhorn_residuals: List[float] = field(default_factory=list)
    hull_min_weight: List[float] = field(default_factory=list)
    hull_sum_deviation: List[float] = field(default_factory=list)

    def thinned(self, stride: int):
        """Copy with per-grid-point arrays and forward ensembles thinned to
        every ``stride``-th entry (the final entry always kept).  The
        Sinkhorn residuals and hull certificates are kept whole: they are
        per use of a diffusion map, not per grid point."""
        idx = np.arange(len(self.times))
        keep = (idx % stride == 0) | (idx == len(self.times) - 1)
        out = SweepRecord(times=self.times[keep])
        for name in ("bar_means", "bar_covs", "tilde_means", "tilde_covs",
                     "gains", "shifts"):
            arr = getattr(self, name)
            if arr is not None:
                setattr(out, name, arr[keep])
        if self.forward_ensembles is not None:
            out.forward_ensembles = [e for e, k in
                                     zip(self.forward_ensembles, keep) if k]
        for name in ("sinkhorn_residuals", "hull_min_weight",
                     "hull_sum_deviation"):
            setattr(out, name, list(getattr(self, name)))
        return out


def _init_particles(p: ControlProblem, cfg: SolverConfig, rng):
    """The initial (d, M) block, scanned once for non-finite values."""
    x = np.tile(p.start[:, None], (1, cfg.ensemble_size))
    if cfg.init_cov is not None:
        chol = np.linalg.cholesky(np.atleast_2d(np.asarray(cfg.init_cov,
                                                           dtype=float)))
        x = x + chol @ rng.standard_normal((p.dim_x, cfg.ensemble_size))
    return Ensemble(particles=x).particles


@contextlib.contextmanager
def _located(step, time):
    """Attach a sweep step's grid point to a blow-up raised in the block."""
    try:
        yield
    except NumericalBlowupError as exc:
        exc.step, exc.time = step, time
        exc.args = (f"step {step} (t={time:.6g}): {exc}",)
        raise


def _euler_step(p: ControlProblem, x, drift, eps, dt, normal):
    """One Euler-Maruyama step x + dt drift + sqrt(eps dt) sigma(x) dW of
    a (d, M) block, with dW from ``normal((dim_b, M))`` when eps > 0; a
    non-finite result names its first bad particle."""
    x_new = x + dt * drift
    if eps > 0.0:
        noise = normal((p.dim_b, x.shape[1]))
        x_new += np.sqrt(eps * dt) * np.einsum(
            "ijm,jm->im", p.evaluate("noise", x), noise)
    if not np.all(np.isfinite(x_new)):
        bad = int(np.argwhere(~np.isfinite(x_new).all(axis=0))[0, 0])
        raise NumericalBlowupError(f"non-finite particle {bad}", particle=bad)
    return x_new


def _forward_step(p: ControlProblem, cfg: SolverConfig, e: Ensemble,
                  bar: EmpiricalMoments, step: int, dt: float, rng, op=None,
                  residuals=None):
    """Advance the forward ensemble ``e`` (moments ``bar``) by one step
    of size ``dt``.

    Given the ensemble's diffusion map ``op``, a step that is not fully
    noisy takes the grad-log group from it instead of the Gaussian
    closure, and appends the map's Sinkhorn residual to ``residuals``.
    """
    x = e.particles
    eps = cfg.eps_noise_forward.at(step)
    with _located(step, e.time):
        h = p.evaluate("running_map", x)
        cxh = cross_cov(e, h)
        mh, _ = map_moments(e, h)
        if op is not None and eps < 1.0:
            residuals.append(max(op.row_residual, op.col_residual))
            drift = enkf._forward_drift(p, x, dmap.grad_log_estimate(op, x),
                                        cxh, mh, eps, h)
        else:
            drift = enkf.forward_drift(p, x, bar, cxh, mh, eps, h)
        return _euler_step(p, x, drift, eps, dt, rng.standard_normal)


def forward_sweep(p: ControlProblem, cfg: SolverConfig, rng):
    """Integrate the forward mean-field SDE from x0 over [0, T].

    Returns ``(record, ensemble_at_T)``.  With ``dmap_enkf`` the record
    keeps the raw forward ensembles and the diffusion maps of those
    before T for the split-step reverse sweep, else only moments.
    """
    n = cfg.n_steps(p.horizon)
    d = p.dim_x
    times = np.arange(n + 1) * cfg.dt
    record = SweepRecord(times=times,
                         bar_means=np.zeros((n + 1, d)),
                         bar_covs=np.zeros((n + 1, d, d)),
                         bar_invs=np.zeros((n + 1, d, d)))
    if cfg.backend == "dmap_enkf":
        record.forward_ensembles, record.forward_operators = [], []

    x = _init_particles(p, cfg, rng)
    for step in range(n + 1):
        e = Ensemble._unchecked(x, times[step])
        with _located(step, times[step]):
            bar = moments(e, cfg.inflation)
            record.bar_invs[step] = bar.inv()
        record.bar_means[step] = bar.mean
        record.bar_covs[step] = bar.cov
        if record.forward_ensembles is not None:
            record.forward_ensembles.append(x.copy())
        if step == n:
            break
        op = None
        if record.forward_operators is not None:
            op = dmap.build_operator(
                record.forward_ensembles[step], p.sigma_sq,
                cfg.kernel_scale(), cfg.sinkhorn_tol, cfg.sinkhorn_max_iter,
                p.block_maps)
            record.forward_operators.append(op)
        x = _forward_step(p, cfg, e, bar, step, cfg.dt, rng, op,
                          record.sinkhorn_residuals)
    return record, Ensemble._unchecked(x, p.horizon)


def _reverse_sweep(p: ControlProblem, cfg: SolverConfig, record: SweepRecord,
                   terminal: Ensemble, rng, split: bool) -> SweepRecord:
    """Integrate the reverse mean-field SDE from T down to 0 against the
    frozen forward moments, recording moments and a gain pair per grid
    point.  ``split`` selects the split-step variant: the forward
    grad-log group leaves the drift and each step ends with a
    diffusion-map projection onto the forward ensemble it arrives at."""
    n = len(record.times) - 1
    d = p.dim_x
    record.tilde_means = np.zeros((n + 1, d))
    record.tilde_covs = np.zeros((n + 1, d, d))
    record.gains = np.zeros((n + 1, d, d))
    record.shifts = np.zeros((n + 1, d))

    invs = record.bar_invs
    x = terminal.particles.copy()
    for back, step in enumerate(range(n, -1, -1)):
        with _located(step, record.times[step]):
            tilde = moments(Ensemble._unchecked(x), cfg.inflation)
            bar = EmpiricalMoments(
                mean=record.bar_means[step], cov=record.bar_covs[step],
                cov_inv=None if invs is None else invs[step])
            gain = enkf.gain_from_moments(bar, tilde)
            record.tilde_means[step] = tilde.mean
            record.tilde_covs[step] = tilde.cov
            record.gains[step] = gain.A
            record.shifts[step] = gain.c
            if step == 0:
                break
            eps = cfg.eps_noise_reverse.at(back)
            if split:
                drift = enkf._reverse_drift(p, x, None, tilde, eps,
                                            enkf.g_tilde_kf(p, x, tilde, gain))
            else:
                drift = enkf.reverse_drift(p, x, bar, tilde, gain, eps)
            x = _euler_step(p, x, drift, eps, cfg.dt, rng.standard_normal)
            if split:
                x = _project(record, step - 1, x)
    record.forward_operators = record.bar_invs = None
    return record


def _project(record: SweepRecord, step: int, x):
    """Project ``x`` into the hull of the forward ensemble at ``step``."""
    op = record.forward_operators[step]
    record.sinkhorn_residuals.append(max(op.row_residual, op.col_residual))
    w = dmap.membership_weights(op, x)
    record.hull_min_weight.extend(w.min(axis=0).tolist())
    record.hull_sum_deviation.extend(np.abs(w.sum(axis=0) - 1.0).tolist())
    return matvec_columns(op.anchors, w)


def reverse_sweep_enkf(p: ControlProblem, cfg: SolverConfig,
                       record: SweepRecord, terminal: Ensemble, rng
                       ) -> SweepRecord:
    """Integrate the reverse mean-field SDE from T down to 0 using the
    frozen per-step forward moments, emitting a gain pair per step."""
    return _reverse_sweep(p, cfg, record, terminal, rng, split=False)


def reverse_sweep_splitstep(p: ControlProblem, cfg: SolverConfig,
                            record: SweepRecord, terminal: Ensemble, rng
                            ) -> SweepRecord:
    """Split-step reverse sweep: a drift/noise half step followed by a
    diffusion-map projection onto the forward ensemble of the target
    grid point, which keeps every reverse particle inside the convex
    hull of the forward anchors; the record then drops the forward maps."""
    if record.forward_operators is None:
        raise DimensionError("split-step sweep needs forward diffusion maps")
    return _reverse_sweep(p, cfg, record, terminal, rng, split=True)


def solve(p: ControlProblem, cfg: SolverConfig):
    """Run the full pipeline and return (schedule, record).

    Identical configurations and seeds produce identical results; the
    forward sweep, terminal update and reverse sweep each consume an
    independent child stream of the seed.
    """
    streams = np.random.SeedSequence(cfg.seed).spawn(3)
    fwd_rng, term_rng, rev_rng = (np.random.default_rng(s) for s in streams)

    record, e_T = forward_sweep(p, cfg, fwd_rng)
    terminal = enkf.terminal_update(p, e_T, cfg.inflation, term_rng)
    if cfg.backend == "dmap_enkf":
        record = reverse_sweep_splitstep(p, cfg, record, terminal, rev_rng)
    else:
        record = reverse_sweep_enkf(p, cfg, record, terminal, rev_rng)

    sched = AffineControlSchedule(times=record.times.copy(),
                                  gains=record.gains.copy(),
                                  shifts=record.shifts.copy())
    if cfg.record_every > 1:
        record = record.thinned(cfg.record_every)
    return sched, record


def simulate_controlled(p: ControlProblem, sched: AffineControlSchedule,
                        rho: float = 1.0, n_paths: int = 1, rng=None,
                        x0=None):
    """Euler-Maruyama simulation of the controlled dynamics under the
    schedule's feedback law.

    ``rho`` scales the diffusion (0 gives a deterministic run).
    Returns ``(times, states, controls)`` with shapes (N+1,),
    (n_paths, N+1, d_x) and (n_paths, N+1, d_u).  All paths step as one
    (d_x, n_paths) block through ``_euler_step`` at noise level rho^2.
    Each path draws its normals in bulk from its own spawned stream, so
    results do not depend on evaluation order.  A blow-up names the
    earliest bad step and, as ``particle``, the lowest bad path there.
    """
    if n_paths < 1:
        raise DimensionError("n_paths must be at least 1")
    if not (np.isfinite(rho) and rho >= 0):
        raise DimensionError("rho must be nonnegative and finite")
    start = p.start if x0 is None else p.check_state(np.ravel(x0))
    if rng is None:
        rng = np.random.default_rng(0)
    times = sched.times
    n = len(times) - 1
    states = np.zeros((n_paths, n + 1, p.dim_x))
    controls = np.zeros((n_paths, n + 1, p.dim_u))
    normals = None
    if rho != 0.0:
        normals = np.stack([np.random.default_rng(s).standard_normal(
            (n, p.dim_b)) for s in rng.bit_generator.seed_seq.spawn(n_paths)],
            axis=-1)

    x = np.tile(start[:, None], (1, n_paths))
    for step in range(n + 1):
        with _located(step, times[step]):
            gains = p.stack("gain", x)
            u = apply_control(p, sched, times[step], x, gains)
            states[:, step] = x.T
            controls[:, step] = u.T
            if step == n:
                break
            drift = p.evaluate("drift", x) + matvec_columns(gains, u)
            x = _euler_step(p, x, drift, rho ** 2,
                            times[step + 1] - times[step],
                            lambda shape: normals[step])
    return times, states, controls


def estimate_cost(p: ControlProblem, sched: AffineControlSchedule,
                  n_paths: int = 100, rng=None, rho: float = 1.0):
    """Monte-Carlo estimate of the expected cost under the schedule.

    Left-endpoint rectangle rule on the schedule grid, consistent with
    the Euler-Maruyama stepping, summed over all paths step by step.
    Returns ``(mean, standard_error)``.
    """
    times, states, controls = simulate_controlled(
        p, sched, rho=rho, n_paths=n_paths, rng=rng)
    costs = np.zeros(n_paths)
    for step, dt in enumerate(np.diff(times)):
        costs += dt * (running_cost(p, states[:, step].T)
                       + control_cost(p, controls[:, step].T))
    costs += terminal_cost(p, states[:, -1].T)
    mean = float(costs.mean())
    stderr = float(costs.std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
    return mean, stderr
