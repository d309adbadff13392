"""Diffusion-map approximation of the generator semigroup.

Given an anchor ensemble X^(1..M) and the state-dependent noise
covariance Sigma, the kernel

    R_ij = exp(-(X^i - X^j)^T (Sigma(X^i) + Sigma(X^j))^-1 (X^i - X^j)
               / (2 eps))

is scaled by a Sinkhorn vector v so that P = D(v) R D(v) has all row
and column sums equal to 1/M.  Out-of-sample evaluation of a (d, Q)
block through the probability vectors p(x) = D(v) r(x) / (v^T r(x))
gives the semigroup action on the identity map, and

    (semigroup_apply(x) - x) / eps  ~  div Sigma(x) + Sigma(x) grad log pi(x)

estimates the grad-log density group from samples alone.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, FullRankViolationError
from .stats import map_block, matvec_columns

DEFAULT_SINKHORN_TOL = 1e-8
DEFAULT_SINKHORN_MAX_ITER = 10_000


@dataclass(slots=True)
class DiffusionMapOperator:
    """Anchor ensemble with its Sinkhorn-normalised kernel data."""

    anchors: np.ndarray            # (d, M)
    sigma_at_anchors: np.ndarray   # (M, d, d), its own array, not a view
    bandwidth: float
    scaling: np.ndarray            # (M,), strictly positive
    sigma_fn: Callable             # Sigma(x) for out-of-sample points
    block_sigma: bool = False      # sigma_fn takes a (d, Q) block
    row_residual: float = 0.0      # max |row sum of P - 1/M| at convergence
    col_residual: float = 0.0

    @property
    def size(self):
        return self.anchors.shape[1]


def build_kernel(anchors, sigma_at_anchors, eps_dm):
    """Pairwise Gaussian kernel matrix with state-dependent metric."""
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    sigma_at_anchors = np.asarray(sigma_at_anchors, dtype=float)
    d, m = anchors.shape
    if m < 2:
        raise FullRankViolationError("need at least 2 anchors")
    diffs = anchors.T[:, None, :] - anchors.T[None, :, :]        # (M, M, d)
    ssum = sigma_at_anchors[:, None] + sigma_at_anchors[None, :]  # (M, M, d, d)
    try:
        sol = np.linalg.solve(ssum, diffs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        dets = np.linalg.det(ssum)
        bad = np.argwhere(np.abs(dets) < np.finfo(float).tiny)
        pair = tuple(bad[0]) if len(bad) else ("?", "?")
        raise FullRankViolationError(
            f"singular pairwise Sigma sum at anchor pair {pair}") from exc
    quad = np.einsum("ijk,ijk->ij", diffs, sol)
    return np.exp(-0.5 * quad / eps_dm)


def sinkhorn(kernel, tol=DEFAULT_SINKHORN_TOL,
             max_iter=DEFAULT_SINKHORN_MAX_ITER, return_history=False):
    """Symmetric Sinkhorn scaling: find v > 0 with row sums of
    D(v) K D(v) within ``tol`` of 1/M.

    Uses the fixed-point iteration v <- sqrt(v / (M K v)).
    """
    kernel = np.asarray(kernel, dtype=float)
    m = kernel.shape[0]
    v = np.full(m, 1.0 / np.sqrt(m * kernel.sum() / m))
    history = []
    for _ in range(max_iter):
        rowsums = v * (kernel @ v)
        residual = np.abs(rowsums - 1.0 / m).max()
        history.append(residual)
        if residual <= tol:
            if return_history:
                return v, history
            return v
        v = np.sqrt(v / (m * (kernel @ v)))
    raise ConvergenceError(
        f"sinkhorn did not converge in {max_iter} iterations "
        f"(residual {history[-1]:.3e})", residual=history[-1])


def build_operator(anchors, sigma_fn, eps_dm, tol=DEFAULT_SINKHORN_TOL,
                   max_iter=DEFAULT_SINKHORN_MAX_ITER, block_sigma=False
                   ) -> DiffusionMapOperator:
    """Build the normalised operator from an anchor ensemble and Sigma,
    a one-state map or, with ``block_sigma``, a block map (as
    ``stats.map_block`` takes them)."""
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    m = anchors.shape[1]
    sigmas = np.moveaxis(map_block(sigma_fn, anchors, block_sigma),
                         -1, 0).copy()
    kernel = build_kernel(anchors, sigmas, eps_dm)
    v = sinkhorn(kernel, tol=tol, max_iter=max_iter)
    p = (v[:, None] * kernel) * v[None, :]
    row_res = np.abs(p.sum(axis=1) - 1.0 / m).max()
    col_res = np.abs(p.sum(axis=0) - 1.0 / m).max()
    return DiffusionMapOperator(anchors=anchors, sigma_at_anchors=sigmas,
                                bandwidth=eps_dm, scaling=v,
                                row_residual=row_res, col_residual=col_res,
                                sigma_fn=sigma_fn, block_sigma=block_sigma)


def membership_weights(op: DiffusionMapOperator, x):
    """Probability vectors p(x) = D(v) r(x) / (v^T r(x)): one column of
    the (M, Q) result per query point, or an (M,) vector for one point.
    Entries are nonnegative and sum to one, so ``anchors @ p`` lies in
    the convex hull of the anchors.  Sigma is evaluated at each point."""
    block = np.asarray(x, dtype=float).reshape(len(x), -1)
    sigma_x = np.moveaxis(map_block(op.sigma_fn, block, op.block_sigma),
                          -1, 0)
    # (Q, M) layout: each query's sums add in a single query's order
    diffs = op.anchors.T[None] - block.T[:, None]          # (Q, M, d)
    ssum = op.sigma_at_anchors[None] + sigma_x[:, None]    # (Q, M, d, d)
    sol = np.linalg.solve(ssum, diffs[..., None])[..., 0]
    expo = -0.5 * np.einsum("qij,qij->qi", diffs, sol) / op.bandwidth
    # shift exponents before exponentiating; p is scale invariant in r
    r = np.exp(expo - expo.max(axis=1, keepdims=True))
    w = op.scaling * r
    w = (w / w.sum(axis=1, keepdims=True)).T
    return w if np.ndim(x) == 2 else w[:, 0]


def semigroup_apply(op: DiffusionMapOperator, x):
    """Approximate semigroup action on the identity map at x."""
    return matvec_columns(op.anchors, membership_weights(op, x))


def grad_log_estimate(op: DiffusionMapOperator, x):
    """Estimate of div Sigma(x) + Sigma(x) grad log pi(x)."""
    return (semigroup_apply(op, x) - x) / op.bandwidth
