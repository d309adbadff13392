"""Ensembles and inflated empirical moments.

Particles are stored column-wise: an ensemble of M particles in d
dimensions is a (d, M) array.  All covariances use the unbiased
1/(M-1) normalisation, and the state covariance is regularised by an
additive inflation ``delta * I`` so that it stays invertible even for
very small ensembles.

``EmpiricalMoments`` inverts its covariance once, from the Cholesky
factor, and solves by multiplying with that inverse through ``matvec``,
so each column of a (d, M) block rounds as the same vector does.  A
covariance that is not finite or not positive definite raises
``NumericalBlowupError``.

``map_block`` is the one place where a model map meets a block of
states.  A map written for one state is evaluated column by column
through ``map_columns``; a map declared to take a (d, M) block is
called once on it.  The declaration is explicit, never probed: a
one-state map such as ``lambda x: np.array([[1.0]])`` returns a
plausible array on a block too and would go wrong silently.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionError, InsufficientEnsembleError,
                     NumericalBlowupError)


def map_columns(f, x):
    """Evaluate the one-state map ``f`` on each column of the (d, M)
    block ``x``; results are stacked along a new last axis, so a vector
    map gives (k, M) and a matrix map (r, c, M)."""
    values = [np.atleast_1d(np.asarray(f(x[:, i]), dtype=float))
              for i in range(x.shape[1])]
    try:
        return np.stack(values, axis=-1)
    except ValueError:
        shapes = sorted({v.shape for v in values})
        raise DimensionError(
            f"map output shape changes between states: {shapes}") from None


def map_block(f, x, block=False):
    """``f`` at each column of the (d, M) block ``x``, stacked along a
    new last axis as ``map_columns`` stacks it.  A block map
    (``block=True``) takes the whole block in one call and must return
    one value per column along its last axis; its result is made
    C-contiguous, the layout ``map_columns`` gives, and may share
    memory with ``x``."""
    if not block:
        return map_columns(f, x)
    out = np.ascontiguousarray(f(x), dtype=float)
    if out.shape[-1:] != (x.shape[1],):
        raise DimensionError(
            f"block map returned shape {out.shape} for {x.shape[1]} states")
    return out


def matvec_columns(m, v):
    """``m`` times each column of the (c, P) block ``v``, for one (r, c)
    matrix or a (P, r, c) stack.  These stacked products round as one
    column's product of the same layout does; ``m @ v`` does not."""
    return np.matmul(m, v.T[..., None])[..., 0].T


def matvec(m, y):
    """``m @ y`` for a vector ``y``, or ``m`` times each column of a
    (c, P) block ``y``; a column rounds as the same vector does."""
    y = np.asarray(y, dtype=float)
    return matvec_columns(m, y.reshape(y.shape[0], -1)).reshape(y.shape)


def spd_inverse(c):
    """Inverse L^-T L^-1 of the symmetric positive-definite ``c`` from its
    Cholesky factor L; raises ``np.linalg.LinAlgError`` when ``c`` is not
    positive definite."""
    inv_l = np.linalg.inv(np.linalg.cholesky(c))
    return inv_l.T @ inv_l


def block_or_state(fn):
    """Let ``fn(p, x, ...)``, written for a (d, M) block ``x``, also take
    a single (d,) state, for which it returns a (d,) result."""

    @functools.wraps(fn)
    def wrapper(p, x, *args, **kwargs):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return fn(p, x, *args, **kwargs)
        return fn(p, x.reshape(-1, 1), *args, **kwargs)[:, 0]

    return wrapper


@dataclass
class Ensemble:
    """M particles in R^d at a common time stamp, stored as (d, M)."""

    particles: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.particles = np.atleast_2d(np.asarray(self.particles, dtype=float))
        if self.particles.ndim != 2:
            raise DimensionError("particles must be a (d, M) array")
        if not np.all(np.isfinite(self.particles)):
            raise DimensionError("particles must be finite")

    @classmethod
    def _unchecked(cls, particles, time=0.0):
        """A (d, M) float block known to be finite, without the scan."""
        e = cls.__new__(cls)
        e.particles, e.time = particles, time
        return e

    @property
    def dim(self):
        return self.particles.shape[0]

    @property
    def size(self):
        return self.particles.shape[1]


@dataclass
class EmpiricalMoments:
    """Empirical mean/covariance of an ensemble; ``cov`` already includes
    any additive inflation.  ``cov_inv`` is cov^-1 when the caller
    already has it, else it is computed on first use."""

    mean: np.ndarray
    cov: np.ndarray
    cov_inv: np.ndarray = field(default=None, repr=False, compare=False)

    def _inverse(self):
        if self.cov_inv is None:
            if not np.all(np.isfinite(self.cov)):
                raise NumericalBlowupError("covariance is not finite")
            try:
                self.cov_inv = spd_inverse(self.cov)
            except np.linalg.LinAlgError as exc:
                raise NumericalBlowupError(
                    "covariance is not positive definite; raise the "
                    "inflation or the ensemble size") from exc
        return self.cov_inv

    def solve(self, y):
        """cov^-1 y for a vector or each column of a (d, M) block."""
        return matvec(self._inverse(), y)

    def inv(self):
        """cov^-1, the cached array itself."""
        return self._inverse()


def _row_means(a):
    """``a.mean(axis=1)``, bitwise, without np.mean's Python overhead."""
    return a.sum(axis=1) / a.shape[1]


def _require_size(e: Ensemble):
    if e.size < 2:
        raise InsufficientEnsembleError(
            f"need at least 2 particles, got {e.size}")


def moments(e: Ensemble, delta: float = 0.0) -> EmpiricalMoments:
    """Empirical mean and delta-inflated covariance of an ensemble."""
    _require_size(e)
    if delta < 0:
        raise DimensionError("inflation must be nonnegative")
    x = e.particles
    m = _row_means(x)
    dx = x - m[:, None]
    cov = (dx @ dx.T) / (e.size - 1)
    cov.ravel()[::e.dim + 1] += delta
    return EmpiricalMoments(mean=m, cov=cov)


def _map_values(e: Ensemble, f):
    """(k, M) values of ``f`` at the particles: ``f`` is a one-state map,
    or already those values."""
    if callable(f):
        return map_columns(f, e.particles)
    return np.asarray(f, dtype=float)


def cross_cov(e: Ensemble, f) -> np.ndarray:
    """Empirical cross-covariance (1/(M-1)) sum (X^i - m)(f(X^i) - m^f)^T.

    ``f`` is a one-state map or its (k, M) values at the particles.  No
    inflation is applied to cross-covariances.
    """
    _require_size(e)
    x = e.particles
    fx = _map_values(e, f)
    dx = x - _row_means(x)[:, None]
    df = fx - _row_means(fx)[:, None]
    return (dx @ df.T) / (e.size - 1)


def map_moments(e: Ensemble, f):
    """Mean and (uninflated) auto-covariance of f over the ensemble; ``f``
    is a one-state map or its (k, M) values at the particles."""
    _require_size(e)
    fx = _map_values(e, f)
    mf = _row_means(fx)
    df = fx - mf[:, None]
    return mf, (df @ df.T) / (e.size - 1)
