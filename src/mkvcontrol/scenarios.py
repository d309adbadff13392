"""Built-in benchmark scenarios.

Each scenario bundles a problem constructor and solver defaults:

* ``pendulum``  -- swing-up of a noisy pendulum to its inverted
  equilibrium over T = 1 with a stiff terminal cost.
* ``langevin``  -- stabilisation of the unstable equilibrium of
  double-well Langevin dynamics over T = 30 with the diffusion-map
  reverse backend.
* ``lq``        -- scalar linear-quadratic validation problem whose
  optimal gain has a closed Riccati characterisation.
* ``ou_diffusion`` -- zero-running-cost Ornstein-Uhlenbeck process
  started from its stationary Gaussian; the reverse sweep reduces to a
  classical reverse-time sampler.

Every scenario's model maps take one state or a (d, M) block of states
(``block_maps=True``), giving at each column the bits of the one-state
call.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .problem import ControlProblem
from .solver import NoiseSchedule, SolverConfig


def _constant(value):
    """The model map with constant ``value``, stacked along a last axis
    over the columns of a block."""
    value = np.asarray(value, dtype=float)
    return lambda x: np.multiply.outer(value, np.ones(np.shape(x)[1:]))


@dataclass
class Scenario:
    name: str
    description: str
    make_problem: Callable[[], ControlProblem]
    default_config: Callable[[], SolverConfig]


def _pendulum_problem():
    return ControlProblem(
        dim_x=2, dim_u=1, dim_b=1, dim_h=1, dim_xi=2,
        drift=lambda x: np.array([x[1], np.sin(x[0])]),
        gain=lambda x: np.array([[np.zeros_like(x[0])], [-np.cos(x[0])]]),
        noise=_constant([[0.0], [1.0]]),
        running_map=lambda x: np.array([x[1]]),
        running_weight=np.array([[0.1]]),
        terminal_map=lambda x: np.asarray(x, dtype=float),
        terminal_weight=1e-3 * np.eye(2),
        control_weight=np.array([[10.0]]),
        horizon=1.0,
        start=np.array([np.pi, 0.1]),
        block_maps=True,
    )


def _pendulum_config():
    return SolverConfig(
        dt=1e-4, ensemble_size=3,
        eps_noise_forward=NoiseSchedule(first=0.01, n_first=1, rest=0.0),
        eps_noise_reverse=NoiseSchedule.constant(0.0),
        inflation=1e-4, backend="enkf", seed=0)


def _scalar_problem(drift, running_map, running_weight, horizon, start):
    """A 1-D problem with G = sigma = 1, xi(x) = x and R = V = 1."""
    return ControlProblem(
        dim_x=1, dim_u=1, dim_b=1, dim_h=1, dim_xi=1,
        drift=drift,
        gain=_constant([[1.0]]),
        noise=_constant([[1.0]]),
        running_map=running_map,
        running_weight=np.array([[running_weight]]),
        terminal_map=lambda x: np.asarray(x, dtype=float),
        terminal_weight=np.array([[1.0]]),
        control_weight=np.array([[1.0]]),
        horizon=horizon,
        start=np.array([start]),
        block_maps=True,
    )


def _langevin_problem():
    # the control penalty weight is a modelling choice here; unit
    # weight keeps the closed loop comfortably stabilising
    return _scalar_problem(lambda x: -(x ** 3 - x),
                           lambda x: np.asarray(x, dtype=float),
                           running_weight=0.01, horizon=30.0, start=1.0)


def _langevin_config():
    return SolverConfig(
        dt=0.01, ensemble_size=8,
        eps_noise_forward=NoiseSchedule(first=1.0, n_first=10, rest=0.0),
        eps_noise_reverse=NoiseSchedule.constant(0.0),
        inflation=1e-4, backend="dmap_enkf", eps_dm=0.01, seed=0)


def _lq_problem(a=-0.5):
    return _scalar_problem(lambda x: a * np.asarray(x, dtype=float),
                           lambda x: np.asarray(x, dtype=float),
                           running_weight=1.0, horizon=1.0, start=1.0)


def _lq_config():
    return SolverConfig(
        dt=1e-3, ensemble_size=64,
        eps_noise_forward=NoiseSchedule(first=1.0, n_first=1, rest=0.0),
        eps_noise_reverse=NoiseSchedule.constant(0.0),
        inflation=1e-6, backend="enkf", seed=0)


def _ou_problem():
    return _scalar_problem(lambda x: -0.5 * np.asarray(x, dtype=float),
                           _constant([0.0]),
                           running_weight=1.0, horizon=1.0, start=0.0)


def _ou_config():
    return SolverConfig(
        dt=0.01, ensemble_size=128,
        eps_noise_forward=NoiseSchedule.constant(0.0),
        eps_noise_reverse=NoiseSchedule.constant(1.0),
        inflation=1e-4, backend="enkf", seed=0,
        init_cov=np.array([[1.0]]))


REGISTRY = {sc.name: sc for sc in (
    Scenario("pendulum",
             "Swing-up of a noisy pendulum to the inverted equilibrium "
             "over T=1 (2D state, EnKF backend, M=3).",
             _pendulum_problem, _pendulum_config),
    Scenario("langevin",
             "Stabilisation of the unstable equilibrium of double-well "
             "Langevin dynamics over T=30 (diffusion-map backend, M=8).",
             _langevin_problem, _langevin_config),
    Scenario("lq",
             "Scalar linear-quadratic validation problem with a Riccati "
             "reference solution.",
             _lq_problem, _lq_config),
    Scenario("ou_diffusion",
             "Ornstein-Uhlenbeck process with zero running cost started "
             "from its stationary Gaussian.",
             _ou_problem, _ou_config),
)}


def get_scenario(name: str) -> Scenario:
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown scenario {name!r}; known: {known}") from None
