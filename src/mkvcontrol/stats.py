"""Ensembles and inflated empirical moments.

Particles are stored column-wise: an ensemble of M particles in d
dimensions is a (d, M) array.  All covariances use the unbiased
1/(M-1) normalisation, and the state covariance is regularised by an
additive inflation ``delta * I`` so that it stays invertible even for
very small ensembles.

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
from scipy.linalg import cho_factor, cho_solve

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

    @property
    def dim(self):
        return self.particles.shape[0]

    @property
    def size(self):
        return self.particles.shape[1]


@dataclass
class EmpiricalMoments:
    """Empirical mean/covariance of an ensemble; ``cov`` already includes
    any additive inflation."""

    mean: np.ndarray
    cov: np.ndarray
    _factor: tuple = field(default=None, repr=False, compare=False)

    def solve(self, y):
        """cov^-1 y via a cached Cholesky factorization; ``y`` may be a
        vector or a (d, M) block."""
        if self._factor is None:
            try:
                self._factor = cho_factor(self.cov, lower=True)
            except np.linalg.LinAlgError as exc:
                raise NumericalBlowupError(
                    "covariance is not positive definite; raise the "
                    "inflation or the ensemble size") from exc
        return cho_solve(self._factor, np.asarray(y, dtype=float))

    def inv(self):
        d = self.cov.shape[0]
        return self.solve(np.eye(d))


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
    m = x.mean(axis=1)
    dx = x - m[:, None]
    cov = (dx @ dx.T) / (e.size - 1) + delta * np.eye(e.dim)
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
    dx = x - x.mean(axis=1)[:, None]
    df = fx - fx.mean(axis=1)[:, None]
    return (dx @ df.T) / (e.size - 1)


def map_moments(e: Ensemble, f):
    """Mean and (uninflated) auto-covariance of f over the ensemble; ``f``
    is a one-state map or its (k, M) values at the particles."""
    _require_size(e)
    fx = _map_values(e, f)
    mf = fx.mean(axis=1)
    df = fx - mf[:, None]
    return mf, (df @ df.T) / (e.size - 1)
