"""Control problem data, quadratic costs, and affine feedback laws.

A :class:`ControlProblem` bundles the model functions of the controlled
diffusion

    dX_t = b(X_t) dt + G(X_t) u_t dt + sigma(X_t) dB_t

together with the quadratic running cost (1/2) h(x)^T S^-1 h(x), the
terminal cost (1/2) xi(x)^T V^-1 xi(x), the control penalty weight R,
the horizon T and the start point x0.  Feedback laws are affine,
u_t(x) = R G(x)^T (A_t x + c_t), and are stored on a time grid by
:class:`AffineControlSchedule`.

The solver evaluates every model map on a (dim_x, M) block of states
through ``ControlProblem.evaluate``: in one call when the problem
declares ``block_maps``, else one state at a time.  The cost and
control functions take one state, or a (dim_x, P) block of states, for
which they return one value per column, bitwise what the one-state
call gives.  The weights S, V and R are inverted once, from their
Cholesky factors, and applied through ``stats.matvec``, so a block's
columns round as one state's vector does.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError, TimeOutOfRangeError
from .stats import map_block, matvec, matvec_columns, spd_inverse

Vector = np.ndarray
Matrix = np.ndarray

# model map -> (symbol in messages, dimensions of one state's value)
MAP_SHAPES = {
    "drift": ("b", ("dim_x",)),
    "gain": ("G", ("dim_x", "dim_u")),
    "noise": ("sigma", ("dim_x", "dim_b")),
    "div_sigma": ("div Sigma", ("dim_x",)),
    "sigma_sq": ("Sigma", ("dim_x", "dim_x")),
    "running_map": ("h", ("dim_h",)),
    "terminal_map": ("xi", ("dim_xi",)),
}


def _weight_inverse(name, w):
    w = np.atleast_2d(np.asarray(w, dtype=float))
    if w.shape[0] != w.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise DimensionError(f"{name} must be finite")
    if not np.allclose(w, w.T, atol=1e-12 * (1.0 + np.abs(w).max())):
        raise DimensionError(f"{name} must be symmetric")
    try:
        return w, spd_inverse(w)
    except np.linalg.LinAlgError as exc:
        raise DimensionError(f"{name} must be positive definite") from exc


@dataclass
class ControlProblem:
    """Immutable description of a finite-horizon control problem.

    By default the map-valued fields take a single state x of shape
    (dim_x,) and return numpy arrays of the declared shapes.  With
    ``block_maps=True`` the maps take a (dim_x, M) block of states
    instead and return their values stacked along a last axis:
    (dim_x, M) for ``drift``, (dim_x, dim_u, M) for ``gain``, and so
    on, column i being the value at state i; the solver then calls
    each map once per block instead of once per state.  The flag is
    never inferred from a map's output, because a one-state map such as
    ``lambda x: np.array([[1.0]])`` returns a plausible array on a
    block too.  ``div_sigma`` is the analytic divergence of
    Sigma = sigma sigma^T (row-wise divergence, a vector field); leave
    it ``None`` for constant sigma, in which case the zero map is used.
    """

    dim_x: int
    dim_u: int
    dim_b: int
    dim_h: int
    dim_xi: int
    drift: Callable[[Vector], Vector]
    gain: Callable[[Vector], Matrix]
    noise: Callable[[Vector], Matrix]
    running_map: Callable[[Vector], Vector]
    running_weight: Matrix
    terminal_map: Callable[[Vector], Vector]
    terminal_weight: Matrix
    control_weight: Matrix
    horizon: float
    start: Vector
    div_sigma: Optional[Callable[[Vector], Vector]] = None
    block_maps: bool = False

    def __post_init__(self):
        for name in ("dim_x", "dim_u", "dim_b", "dim_h", "dim_xi"):
            if getattr(self, name) < 1:
                raise DimensionError(f"{name} must be a positive integer")
        if self.horizon <= 0:
            raise DimensionError("horizon must be positive")
        self.start = np.asarray(self.start, dtype=float).reshape(-1)
        if self.start.shape != (self.dim_x,):
            raise DimensionError(
                f"start has shape {self.start.shape}, expected ({self.dim_x},)")

        self.running_weight, self._s_inv = _weight_inverse(
            "running_weight S", self.running_weight)
        self.terminal_weight, self._v_inv = _weight_inverse(
            "terminal_weight V", self.terminal_weight)
        self.control_weight, self._r_inv = _weight_inverse(
            "control_weight R", self.control_weight)
        if self.running_weight.shape != (self.dim_h, self.dim_h):
            raise DimensionError("running_weight shape does not match dim_h")
        if self.terminal_weight.shape != (self.dim_xi, self.dim_xi):
            raise DimensionError("terminal_weight shape does not match dim_xi")
        if self.control_weight.shape != (self.dim_u, self.dim_u):
            raise DimensionError("control_weight shape does not match dim_u")

        if self.div_sigma is None:
            self.div_sigma = lambda x: np.zeros(np.shape(x))

        # symmetric square root of V, used by the stochastic EnKF update
        vals, vecs = np.linalg.eigh(self.terminal_weight)
        self.v_sqrt = (vecs * np.sqrt(vals)) @ vecs.T

        # probe the model maps once at the start point
        for name in MAP_SHAPES:
            self.evaluate(name, self.start[:, None])

    def evaluate(self, name, x):
        """Model map ``name`` (a key of MAP_SHAPES) at each column of the
        (dim_x, M) block ``x``, stacked along a last axis: one call on
        the block with ``block_maps``, else one call per column.  A
        value of the wrong shape raises DimensionError."""
        try:
            out = map_block(getattr(self, name), x, self.block_maps)
        except DimensionError as exc:
            raise DimensionError(f"{name}: {exc}") from None
        symbol, dims = MAP_SHAPES[name]
        shape = tuple(getattr(self, dim) for dim in dims)
        if out.shape[:-1] != shape:
            raise DimensionError(f"{name}: {symbol}(x) has shape "
                                 f"{out.shape[:-1]}, expected {shape}")
        return out

    def stack(self, name, x):
        """``evaluate(name, x)`` as a C-ordered stack along a first axis
        over the columns of ``x``: the layout one state's value has."""
        out = self.evaluate(name, x)
        return np.ascontiguousarray(out.transpose(-1, *range(out.ndim - 1)))

    def sigma_sq(self, x):
        """Sigma(x) = sigma(x) sigma(x)^T at one state, or as a
        (dim_x, dim_x, M) stack at the columns of a (dim_x, M) block."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            s = self.stack("noise", x)
            return (s @ s.transpose(0, 2, 1)).transpose(1, 2, 0)
        s = np.asarray(self.noise(x), dtype=float)
        return s @ s.T

    def solve_s(self, y):
        """S^-1 y for a vector or each column of a block, by the cached
        inverse."""
        return matvec(self._s_inv, y)

    def solve_v(self, y):
        return matvec(self._v_inv, y)

    def solve_r(self, y):
        return matvec(self._r_inv, y)

    def check_state(self, x):
        """``x`` as a (dim_x,) state, or as a (dim_x, P) block when 2-D."""
        x = np.asarray(x, dtype=float)
        x = x if x.ndim == 2 else x.reshape(-1)
        if x.shape[0] != self.dim_x:
            raise DimensionError(
                f"state has shape {x.shape}, expected ({self.dim_x},)"
                f" or ({self.dim_x}, P)")
        return x


@dataclass
class AffineControlSchedule:
    """Per-grid-point feedback gains (A_t, c_t) on a strictly increasing
    time grid covering [0, T].

    Lookup is piecewise constant and left closed: t in [t_n, t_{n+1})
    uses entry n, and t = t_N uses the last entry.
    """

    times: np.ndarray
    gains: np.ndarray   # (N+1, d, d), each symmetric
    shifts: np.ndarray  # (N+1, d)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float).reshape(-1)
        self.gains = np.asarray(self.gains, dtype=float)
        self.shifts = np.asarray(self.shifts, dtype=float)
        n = len(self.times)
        if np.any(np.diff(self.times) <= 0):
            raise DimensionError("schedule times must be strictly increasing")
        if self.gains.shape[0] != n or self.shifts.shape[0] != n:
            raise DimensionError("times, gains and shifts must have equal length")
        sym_err = np.abs(self.gains - np.transpose(self.gains, (0, 2, 1))).max()
        scale = 1.0 + np.abs(self.gains).max()
        if sym_err > 1e-8 * scale:
            raise DimensionError("schedule gains must be symmetric")

    def at(self, t):
        """(A_t, c_t) selected by the left-closed lookup rule."""
        t0, t1 = self.times[0], self.times[-1]
        slack = 1e-9 * max(1.0, abs(t1))
        if t < t0 - slack or t > t1 + slack:
            raise TimeOutOfRangeError(
                f"t={t} outside schedule window [{t0}, {t1}]")
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        idx = min(max(idx, 0), len(self.times) - 1)
        return self.gains[idx], self.shifts[idx]


def _half_quad(solve, v, one):
    """(1/2) v^T W^-1 v per column of the (k, P) block ``v``, given
    ``solve`` = W^-1; a float for ``one`` state.  Contiguous vectors
    make each column round as one state's vector does."""
    rows = np.ascontiguousarray(v.T)
    q = 0.5 * matvec_columns(rows[:, None, :], solve(rows.T))[0]
    return float(q[0]) if one else q


def _state_cost(p, name, solve, x):
    """(1/2) f(x)^T W^-1 f(x) at a state or at each column of a block,
    for the map ``name`` and ``solve`` = W^-1."""
    x = p.check_state(x)
    v = p.evaluate(name, x.reshape(p.dim_x, -1))
    return _half_quad(solve, v, x.ndim == 1)


def running_cost(p: ControlProblem, x):
    """Running cost c(x) = (1/2) h(x)^T S^-1 h(x); always >= 0."""
    return _state_cost(p, "running_map", p.solve_s, x)


def terminal_cost(p: ControlProblem, x):
    """Terminal cost f(x) = (1/2) xi(x)^T V^-1 xi(x); always >= 0."""
    return _state_cost(p, "terminal_map", p.solve_v, x)


def control_cost(p: ControlProblem, u):
    """Control penalty (1/2) u^T R^-1 u."""
    u = np.asarray(u, dtype=float)
    one = u.ndim != 2
    return _half_quad(p.solve_r, u.reshape(-1, 1) if one else u, one)


def apply_control(p: ControlProblem, sched: AffineControlSchedule, t, x,
                  gains=None):
    """Evaluate u_t(x) = R G(x)^T (A_t x + c_t).  ``gains`` is
    ``p.stack("gain", x)`` of a block ``x``, when the caller has it."""
    x = p.check_state(x)
    block = x.reshape(p.dim_x, -1)
    A, c = sched.at(t)
    v = matvec_columns(A, block) + c[:, None]
    if gains is None:
        gains = p.stack("gain", block)
    gt = gains.transpose(0, 2, 1)
    u = matvec_columns(p.control_weight, matvec_columns(gt, v))
    return u if x.ndim == 2 else u[:, 0]
