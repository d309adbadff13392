"""Tests for ensembles and inflated empirical moments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkvcontrol import (DimensionError, Ensemble, EmpiricalMoments,
                        InsufficientEnsembleError, NumericalBlowupError,
                        cross_cov, moments)
from mkvcontrol.stats import map_block, map_columns, map_moments


def test_moments_two_particles():
    e = Ensemble(particles=np.array([[0.0, 2.0]]))
    mom = moments(e, 0.0)
    assert mom.mean[0] == pytest.approx(1.0)
    assert mom.cov[0, 0] == pytest.approx(2.0)


def test_moments_identical_particles_inflated():
    e = Ensemble(particles=np.full((2, 5), 3.0))
    mom = moments(e, 1e-4)
    assert np.allclose(mom.mean, 3.0)
    assert np.allclose(mom.cov, 1e-4 * np.eye(2))


def test_moments_monte_carlo():
    rng = np.random.default_rng(7)
    e = Ensemble(particles=rng.standard_normal((2, 10000)))
    mom = moments(e, 0.0)
    assert np.abs(mom.cov - np.eye(2)).max() < 0.1


def test_moments_requires_two_particles():
    e = Ensemble(particles=np.array([[1.0]]))
    with pytest.raises(InsufficientEnsembleError):
        moments(e)


def test_moments_rejects_negative_inflation():
    e = Ensemble(particles=np.array([[0.0, 1.0]]))
    with pytest.raises(DimensionError):
        moments(e, -1e-3)


def test_ensemble_rejects_nonfinite():
    with pytest.raises(DimensionError):
        Ensemble(particles=np.array([[0.0, np.nan]]))


def test_cov_minus_inflation_is_psd():
    rng = np.random.default_rng(3)
    e = Ensemble(particles=rng.standard_normal((3, 20)))
    mom = moments(e, 0.5)
    vals = np.linalg.eigvalsh(mom.cov - 0.5 * np.eye(3))
    assert vals.min() > -1e-12
    assert np.allclose(mom.cov, mom.cov.T)


def test_cross_cov_identity_matches_cov():
    rng = np.random.default_rng(11)
    e = Ensemble(particles=rng.standard_normal((2, 50)))
    assert np.allclose(cross_cov(e, lambda x: x), moments(e, 0.0).cov)


def test_cross_cov_constant_map_is_zero():
    rng = np.random.default_rng(5)
    e = Ensemble(particles=rng.standard_normal((2, 30)))
    assert np.allclose(cross_cov(e, lambda x: np.array([4.2])), 0.0)


def test_cross_cov_odd_symmetry():
    e = Ensemble(particles=np.array([[-1.0, 1.0]]))
    assert np.allclose(cross_cov(e, lambda x: x ** 2), 0.0)


def test_translation_equivariance():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2, 40))
    v = np.array([1.5, -2.0])
    e = Ensemble(particles=x)
    e_shift = Ensemble(particles=x + v[:, None])
    m0, m1 = moments(e, 0.0), moments(e_shift, 0.0)
    assert np.allclose(m1.mean, m0.mean + v)
    assert np.allclose(m1.cov, m0.cov)
    assert np.allclose(cross_cov(e_shift, lambda y: y), cross_cov(e, lambda y: y))


def test_moments_solve_matches_direct_inverse():
    rng = np.random.default_rng(17)
    e = Ensemble(particles=rng.standard_normal((3, 25)))
    mom = moments(e, 1e-6)
    y = rng.standard_normal(3)
    assert np.allclose(mom.solve(y), np.linalg.solve(mom.cov, y))
    assert np.allclose(mom.inv(), np.linalg.inv(mom.cov))


def test_empirical_moments_direct_construction():
    mom = EmpiricalMoments(mean=np.zeros(1), cov=np.array([[4.0]]))
    assert mom.solve(np.array([2.0]))[0] == pytest.approx(0.5)


def test_cross_cov_and_map_moments_take_map_values():
    rng = np.random.default_rng(19)
    e = Ensemble(particles=rng.standard_normal((2, 9)))
    f = lambda x: np.array([x[0] * x[1], np.sin(x[0])])
    fx = map_columns(f, e.particles)
    assert cross_cov(e, fx).tobytes() == cross_cov(e, f).tobytes()
    for got, want in zip(map_moments(e, fx), map_moments(e, f)):
        assert got.tobytes() == want.tobytes()


def test_ragged_one_state_map_raises_dimension_error():
    # size 1 at x = 0 and size 2 elsewhere
    ragged = lambda x: np.zeros(1 if x[0] == 0.0 else 2)
    with pytest.raises(DimensionError, match="changes between states"):
        map_columns(ragged, np.array([[0.0, 1.0]]))
    with pytest.raises(DimensionError):
        map_block(ragged, np.array([[0.0, 1.0]]))


def test_block_map_needs_one_value_per_column():
    x = np.arange(6.0).reshape(2, 3)
    assert map_block(lambda y: 2.0 * y, x, block=True).tobytes() == \
        (2.0 * x).tobytes()
    # a one-state constant map declared as a block map
    for f in (lambda y: np.array([[1.0]]), lambda y: y[:, 0]):
        with pytest.raises(DimensionError, match="block map returned shape"):
            map_block(f, x, block=True)


def test_map_block_result_is_c_contiguous():
    x = np.arange(6.0).reshape(3, 2).T     # a (2, 3) view, not C-ordered
    out = map_block(lambda y: y, x, block=True)
    assert out.flags.c_contiguous and out.tobytes() == \
        map_columns(lambda y: y, x).tobytes()


def test_moments_inflate_the_diagonal_only():
    x = np.random.default_rng(23).standard_normal((3, 5))
    plain = moments(Ensemble(particles=x), 0.0).cov
    assert np.array_equal(moments(Ensemble(particles=x), 0.25).cov,
                          plain + 0.25 * np.eye(3))


def test_non_finite_covariance_raises_numerical_blowup():
    with pytest.raises(NumericalBlowupError, match="not finite"):
        EmpiricalMoments(mean=np.zeros(1), cov=np.array([[np.inf]])).inv()
    with pytest.raises(NumericalBlowupError, match="not finite"):
        EmpiricalMoments(mean=np.zeros(2),
                         cov=np.array([[1.0, np.nan], [np.nan, 1.0]])).solve(
            np.ones(2))
    # finite particles whose covariance overflows
    e = Ensemble(particles=np.array([[-1e200, 1e200]]))
    with np.errstate(over="ignore"):
        mom = moments(e, 1e-6)
    with pytest.raises(NumericalBlowupError, match="not finite"):
        mom.solve(np.ones((1, 2)))


def test_inverse_is_computed_once_and_given_inverse_is_used():
    mom = moments(Ensemble(particles=np.array([[0.0, 1.0, 3.0]])), 0.0)
    assert mom.inv() is mom.inv()
    given_inv = np.array([[5.0]])
    mom = EmpiricalMoments(mean=np.zeros(1), cov=np.array([[1.0]]),
                           cov_inv=given_inv)
    assert mom.solve(np.array([2.0]))[0] == 10.0


def _spd(d, entries, floor):
    """A symmetric positive-definite d x d matrix from d*d numbers."""
    a = np.array(entries[:d * d]).reshape(d, d)
    return a @ a.T + floor * np.eye(d)


spd_cases = st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.just(d),
    st.lists(st.floats(-3.0, 3.0), min_size=d * d, max_size=d * d),
    st.sampled_from([1e-6, 1e-2, 1.0]),
    st.integers(1, 6)))


@settings(max_examples=60, deadline=None)
@given(case=spd_cases, seed=st.integers(0, 2 ** 16))
def test_block_solve_equals_its_columns(case, seed):
    d, entries, floor, m = case
    mom = EmpiricalMoments(mean=np.zeros(d), cov=_spd(d, entries, floor))
    y = np.random.default_rng(seed).standard_normal((d, m))
    block = mom.solve(y)
    columns = np.column_stack([mom.solve(y[:, i]) for i in range(m)])
    assert block.shape == (d, m)
    assert block.tobytes() == np.ascontiguousarray(columns).tobytes()


@settings(max_examples=60, deadline=None)
@given(case=spd_cases, seed=st.integers(0, 2 ** 16))
def test_solve_matches_numpy_solve(case, seed):
    # backward error of the explicit inverse: a few ulps times cond(C)
    d, entries, floor, m = case
    cov = _spd(d, entries, floor)
    mom = EmpiricalMoments(mean=np.zeros(d), cov=cov)
    y = np.random.default_rng(seed).standard_normal((d, m))
    want = np.linalg.solve(cov, y)
    tol = 1e-13 * np.linalg.cond(cov) * np.abs(want).max()
    assert np.abs(mom.solve(y) - want).max() <= tol
    assert np.array_equal(mom.inv(), mom.inv().T)


@settings(max_examples=60, deadline=None)
@given(case=spd_cases, shift=st.floats(1e-6, 1.0))
def test_non_positive_definite_covariance_raises(case, shift):
    # move the smallest eigenvalue to -shift times the largest one
    d, entries, floor, _ = case
    cov = _spd(d, entries, floor)
    vals = np.linalg.eigvalsh(cov)
    cov -= (vals[0] + shift * vals[-1]) * np.eye(d)
    with pytest.raises(NumericalBlowupError, match="not positive definite"):
        EmpiricalMoments(mean=np.zeros(d), cov=cov).solve(np.ones(d))
