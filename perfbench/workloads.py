"""Benchmark workloads: built-in scenarios at their default sizes.

Each workload solves one scenario through the public API and then
evaluates the resulting feedback law with ``estimate_cost``.  The seed
given on the command line sets both ``SolverConfig.seed`` and the path
stream of ``estimate_cost``; nothing else about the inputs varies.
Problem sizes (``dt``, ensemble size, horizon, backend) are the
scenario defaults and are fixed here, because they decide which layer
dominates a run.
"""

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

import mkvcontrol as mkv

LQ_DRIFT = -0.5          # drift coefficient of the built-in ``lq`` scenario
STATIONARY_GAMMA = 0.5
STATIONARY_ENSEMBLE = 16
HULL_SUM_TOL = 1e-9
GAIN_WINDOW = (0.1, 0.9)  # Riccati comparison window on lq_enkf


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    why: str
    n_paths: int        # paths per estimate_cost call
    # Solve calls per timed run, budget permitting.  A second solve
    # checks that a repeat with the same seed is bitwise identical;
    # only langevin_dmap's is cheap enough to fit a run of about 25 s.
    # Every traced run checks a repeat on every workload.
    max_solves: int
    stationary: bool = False


WORKLOADS = {w.name: w for w in (
    Workload(
        "lq_enkf", "lq",
        "lq defaults (d=1, M=64, enkf): per-particle drift and 1-column "
        "Cholesky solves dominate; dmap is never called, so it is the "
        "bypass for diffusion-map changes",
        n_paths=40, max_solves=1),
    Workload(
        "langevin_dmap", "langevin",
        "langevin defaults (d=1, M=8, dmap_enkf): the only workload that "
        "builds diffusion-map kernels, runs Sinkhorn and keeps the forward "
        "ensembles",
        n_paths=16, max_solves=2),
    Workload(
        "pendulum_policy", "pendulum",
        "pendulum defaults (d=2, M=3, N=1e4, enkf): per-step fixed work "
        "outweighs per-particle work and the path simulator is the "
        "heaviest phase; the only d>1 workload",
        n_paths=12, max_solves=1),
    Workload(
        "lq_stationary", "lq",
        "stationary_solve on lq at M=16, gamma=0.5: the only workload "
        "that runs the horizon module's own step loops",
        n_paths=28, max_solves=1, stationary=True),
)}


@dataclass
class Case:
    """Inputs of one run, generated from the seed."""

    problem: mkv.ControlProblem
    config: object      # SolverConfig, or HorizonConfig when stationary
    path_entropy: tuple  # seeds the path streams of estimate_cost


@dataclass
class Solution:
    law: mkv.AffineControlSchedule
    arrays: Dict[str, np.ndarray]   # compared bitwise between repeats
    record: Optional[mkv.SweepRecord] = None
    diagnostics: Optional[dict] = None


def build(w: Workload, seed: int) -> Case:
    sc = mkv.get_scenario(w.scenario)
    problem = sc.make_problem()
    cfg = sc.default_config()
    cfg.seed = seed
    config = cfg
    if w.stationary:
        cfg.ensemble_size = STATIONARY_ENSEMBLE
        config = mkv.HorizonConfig(gamma=STATIONARY_GAMMA, base=cfg)
    return Case(problem=problem, config=config, path_entropy=(seed, 1))


def solve(w: Workload, case: Case) -> Solution:
    """The call that produces the control law."""
    p = case.problem
    if not w.stationary:
        sched, record = mkv.solve(p, case.config)
        arrays = {"gains": sched.gains, "shifts": sched.shifts}
        for name in ("bar_means", "bar_covs", "tilde_means", "tilde_covs"):
            arrays[name] = getattr(record, name)
        return Solution(law=sched, arrays=arrays, record=record)

    gain, diag = mkv.stationary_solve(p, case.config)
    # hold the stationary law constant over the scenario's own horizon so
    # that it is evaluated like the finite-horizon laws
    base = case.config.base
    n = base.n_steps(p.horizon)
    law = mkv.AffineControlSchedule(
        times=np.arange(n + 1) * base.dt,
        gains=np.broadcast_to(gain.A, (n + 1,) + gain.A.shape),
        shifts=np.broadcast_to(gain.c, (n + 1,) + gain.c.shape))
    arrays = {"A": gain.A, "c": gain.c,
              "steps": np.array([diag["forward_steps"],
                                 diag["reverse_steps"]]),
              "bar_mean": diag["bar_eq"].mean, "bar_cov": diag["bar_eq"].cov,
              "tilde_mean": diag["tilde_eq"].mean,
              "tilde_cov": diag["tilde_eq"].cov}
    return Solution(law=law, arrays=arrays, diagnostics=diag)


def evaluate(w: Workload, case: Case, sol: Solution) -> float:
    """Monte-Carlo cost of the law.  The stream is created afresh, so
    every call draws the same paths."""
    rng = np.random.default_rng(np.random.SeedSequence(case.path_entropy))
    mean, _ = mkv.estimate_cost(case.problem, sol.law, n_paths=w.n_paths,
                                rng=rng, rho=1.0)
    return mean


def check(case: Case, sol: Solution):
    """Return the list of violated output invariants (empty when fine)."""
    bad = [f"{name} is not finite" for name, a in sol.arrays.items()
           if not np.all(np.isfinite(a))]
    rec = sol.record
    if rec is not None and rec.forward_ensembles is not None:
        tol = case.config.sinkhorn_tol
        if not rec.sinkhorn_residuals:
            bad.append("no Sinkhorn residuals recorded")
        elif max(rec.sinkhorn_residuals) > tol:
            bad.append(f"Sinkhorn residual {max(rec.sinkhorn_residuals):.3g}"
                       f" > {tol:g}")
        if not rec.hull_min_weight or min(rec.hull_min_weight) < 0.0:
            bad.append("hull weights missing or negative")
        if not rec.hull_sum_deviation or \
                max(rec.hull_sum_deviation) > HULL_SUM_TOL:
            bad.append("hull weights do not sum to one")
    return bad


def identical(a: Solution, b: Solution) -> bool:
    """Bitwise equality of every compared output array."""
    return a.arrays.keys() == b.arrays.keys() and all(
        a.arrays[k].shape == b.arrays[k].shape
        and a.arrays[k].tobytes() == b.arrays[k].tobytes()
        for k in a.arrays)


def riccati_gain(times, substeps=10):
    """Reference A_t = -P_t for ``lq``: -dP/dt = 2aP + 1 - P^2, P(T) = 1,
    integrated with classical RK4 in reversed time."""
    f = lambda P: 2.0 * LQ_DRIFT * P + 1.0 - P ** 2
    p = 1.0
    out = [p]
    for k in range(len(times) - 1):
        h = (times[k + 1] - times[k]) / substeps
        for _ in range(substeps):
            k1 = f(p)
            k2 = f(p + h / 2 * k1)
            k3 = f(p + h / 2 * k2)
            k4 = f(p + h * k3)
            p += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(p)
    return -np.array(out[::-1])


def gain_rel_err(w: Workload, sol: Solution) -> Optional[float]:
    """Gain error against the closed-form reference, where one exists."""
    if w.stationary:
        b = STATIONARY_GAMMA - 2.0 * LQ_DRIFT
        q = (-b + np.sqrt(b * b + 4.0)) / 2.0   # algebraic Riccati root
        return float(abs(sol.arrays["A"][0, 0] + q) / q)
    if w.scenario != "lq":
        return None
    t = sol.law.times
    ref = riccati_gain(t)
    mask = (t >= GAIN_WINDOW[0]) & (t <= GAIN_WINDOW[1])
    rel = np.abs(sol.law.gains[:, 0, 0] - ref) / np.abs(ref)
    return float(rel[mask].max())
