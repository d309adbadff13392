"""Tests for the diffusion-map semigroup approximation and Sinkhorn
normalisation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkvcontrol import (ConvergenceError, build_kernel, build_operator,
                        grad_log_estimate, membership_weights,
                        semigroup_apply, sinkhorn)
from mkvcontrol.dmap import FullRankViolationError

UNIT_SIGMA = lambda x: np.eye(1)


def test_kernel_identical_anchors_all_ones():
    anchors = np.full((1, 4), 1.3)
    sigmas = np.stack([np.eye(1)] * 4)
    k = build_kernel(anchors, sigmas, 0.5)
    assert np.allclose(k, 1.0)


def test_kernel_two_anchor_substitution():
    # d=1, Sigma=1, eps=1, anchors {0, 2} -> off-diagonal exp(-1)
    anchors = np.array([[0.0, 2.0]])
    sigmas = np.stack([np.eye(1)] * 2)
    k = build_kernel(anchors, sigmas, 1.0)
    assert k[0, 1] == pytest.approx(np.exp(-1.0))
    assert k[1, 0] == pytest.approx(np.exp(-1.0))


def test_kernel_unit_diagonal_and_symmetry():
    rng = np.random.default_rng(2)
    anchors = rng.standard_normal((2, 6))
    sigmas = np.stack([np.eye(2)] * 6)
    k = build_kernel(anchors, sigmas, 0.3)
    assert np.allclose(np.diag(k), 1.0)
    assert np.allclose(k, k.T)


def test_kernel_singular_sigma_pair_rejected():
    anchors = np.array([[0.0, 1.0]])
    sigmas = np.zeros((2, 1, 1))
    with pytest.raises(FullRankViolationError):
        build_kernel(anchors, sigmas, 1.0)


def test_sinkhorn_all_ones_kernel():
    k = np.ones((2, 2))
    v = sinkhorn(k)
    assert np.allclose(v, 0.5, atol=1e-6)
    p = (v[:, None] * k) * v[None, :]
    assert np.allclose(p, 0.25, atol=1e-6)


def test_sinkhorn_doubly_stochastic():
    rng = np.random.default_rng(4)
    anchors = rng.standard_normal((1, 8))
    sigmas = np.stack([np.eye(1)] * 8)
    k = build_kernel(anchors, sigmas, 0.5)
    v = sinkhorn(k)
    p = (v[:, None] * k) * v[None, :]
    assert np.abs(p.sum(axis=1) - 1 / 8).max() <= 1e-8
    assert np.abs(p.sum(axis=0) - 1 / 8).max() <= 1e-8


def test_sinkhorn_residual_nonincreasing():
    rng = np.random.default_rng(9)
    anchors = rng.standard_normal((1, 12))
    sigmas = np.stack([np.eye(1)] * 12)
    k = build_kernel(anchors, sigmas, 0.2)
    _, history = sinkhorn(k, return_history=True)
    diffs = np.diff(history)
    assert np.all(diffs <= 1e-12 * (1.0 + np.abs(history[:-1])))


def test_sinkhorn_iteration_cap():
    rng = np.random.default_rng(4)
    anchors = rng.standard_normal((1, 8))
    sigmas = np.stack([np.eye(1)] * 8)
    k = build_kernel(anchors, sigmas, 0.5)
    with pytest.raises(ConvergenceError):
        sinkhorn(k, tol=1e-16, max_iter=3)


def test_operator_permutation_equivariance():
    rng = np.random.default_rng(6)
    anchors = rng.standard_normal((1, 7))
    op = build_operator(anchors, UNIT_SIGMA, 0.3)
    perm = rng.permutation(7)
    op_p = build_operator(anchors[:, perm], UNIT_SIGMA, 0.3)
    x = np.array([0.4])
    assert semigroup_apply(op, x)[0] == pytest.approx(
        semigroup_apply(op_p, x)[0], rel=1e-6)


def test_membership_weights_are_convex():
    rng = np.random.default_rng(8)
    anchors = rng.standard_normal((2, 10))
    op = build_operator(anchors, lambda x: np.eye(2), 0.1)
    for _ in range(5):
        w = membership_weights(op, rng.standard_normal(2) * 3)
        assert np.all(w >= 0)
        assert w.sum() == pytest.approx(1.0)


def test_semigroup_stays_in_hull():
    anchors = np.array([[0.0, 1.0]])
    op = build_operator(anchors, UNIT_SIGMA, 0.5)
    for x in (-5.0, -0.2, 0.5, 1.4, 7.0):
        out = semigroup_apply(op, np.array([x]))[0]
        assert 0.0 <= out <= 1.0


def test_far_point_snaps_to_nearest_anchor():
    anchors = np.array([[0.0, 1.0]])
    op = build_operator(anchors, UNIT_SIGMA, 0.1)
    out = semigroup_apply(op, np.array([30.0]))[0]
    assert out == pytest.approx(1.0, abs=1e-10)


def test_degenerate_cluster_estimate():
    # all anchors at a: the estimate is forced to (a - x) / eps
    a, eps = 0.7, 0.25
    anchors = np.full((1, 5), a)
    op = build_operator(anchors, UNIT_SIGMA, eps)
    x = np.array([0.2])
    est = grad_log_estimate(op, x)
    assert est[0] == pytest.approx((a - x[0]) / eps)


def test_semigroup_gaussian_anchor_oracle():
    # standard normal anchors: the semigroup moves x = 0 by roughly
    # eps * score(0) = 0 (frozen seed chosen in the acceptance suite)
    rng = np.random.default_rng(342)
    anchors = rng.standard_normal((1, 512))
    op = build_operator(anchors, UNIT_SIGMA, 0.01)
    out = semigroup_apply(op, np.zeros(1))[0]
    assert abs(out) <= 0.15 * 0.01 + 0.0025  # |out - 0| small on eps scale


def test_state_dependent_sigma_used_out_of_sample():
    # a non-constant Sigma map must be evaluated at the query point:
    # freezing it at the query changes nothing, freezing it elsewhere does
    sigma_fn = lambda x: np.array([[1.0 + x[0] ** 2]])
    anchors = np.array([[0.0, 1.0, 2.0]])
    op = build_operator(anchors, sigma_fn, 0.5)
    x = np.array([2.0])
    at_query = dataclasses.replace(op, sigma_fn=lambda _: sigma_fn(x))
    at_anchor = dataclasses.replace(
        op, sigma_fn=lambda _: sigma_fn(anchors[:, 0]))
    w = membership_weights(op, x)
    assert np.allclose(w, membership_weights(at_query, x))
    assert not np.allclose(w, membership_weights(at_anchor, x))


# ---------------------------------------------------------------------------
# block queries

def _random_operator(seed, d, m, n_queries):
    """Operator on random anchors with a state-dependent Sigma, plus a
    (d, Q) block of queries, some of them far outside the anchors."""
    rng = np.random.default_rng(seed)
    sigma_fn = lambda x: (1.0 + 0.1 * float(x @ x)) * np.eye(d) + 0.05
    op = build_operator(rng.standard_normal((d, m)), sigma_fn,
                        rng.uniform(0.05, 1.0))
    return op, rng.standard_normal((d, n_queries)) * rng.uniform(0.5, 5.0)


operator_cases = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 2),
                           st.integers(2, 12), st.integers(1, 7))


@settings(max_examples=40, deadline=None)
@given(operator_cases)
def test_block_query_equals_its_columns(case):
    op, x = _random_operator(*case)
    w = membership_weights(op, x)
    g = grad_log_estimate(op, x)
    assert w.shape == (op.size, x.shape[1]) and g.shape == x.shape
    for i in range(x.shape[1]):
        assert w[:, i].tobytes() == membership_weights(op, x[:, i]).tobytes()
        assert g[:, i].tobytes() == grad_log_estimate(op, x[:, i]).tobytes()


@settings(max_examples=40, deadline=None)
@given(operator_cases, st.randoms(use_true_random=False))
def test_block_query_permutation_equivariance(case, random):
    op, x = _random_operator(*case)
    perm = list(range(x.shape[1]))
    random.shuffle(perm)
    w = membership_weights(op, x)
    assert membership_weights(op, x[:, perm]).tobytes() == \
        np.ascontiguousarray(w[:, perm]).tobytes()
    assert semigroup_apply(op, x[:, perm]).tobytes() == \
        np.ascontiguousarray(semigroup_apply(op, x)[:, perm]).tobytes()


@settings(max_examples=40, deadline=None)
@given(operator_cases)
def test_block_weights_are_convex(case):
    op, x = _random_operator(*case)
    w = membership_weights(op, x)
    assert np.all(w >= 0.0)
    assert np.abs(w.sum(axis=0) - 1.0).max() <= 1e-12
