"""Tests of the block sweep engine: equivalence with the per-particle
and per-path reference loops, block-versus-column properties of the
drift, control and cost terms, the block model maps of the built-in
scenarios, and the location carried by blow-up errors."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_sweeps as ref
from mkvcontrol import (AffineControlSchedule, ControlProblem, DimensionError,
                        Ensemble, HorizonConfig, NoiseSchedule,
                        NumericalBlowupError, SolverConfig, apply_control,
                        control_cost, estimate_cost, forward_drift, g_bar_kf,
                        g_tilde_kf, g_tilde_kf_discounted, gain_from_moments,
                        get_scenario, moments, reverse_drift, running_cost,
                        simulate_controlled, solve, stationary_solve, stats,
                        terminal_cost)
from mkvcontrol import horizon
from mkvcontrol.problem import MAP_SHAPES
from mkvcontrol.solver import forward_sweep, reverse_sweep_enkf
from mkvcontrol.stats import map_columns

# scenario -> (horizon, relative tolerance against the reference); the
# d = 2 pendulum is bitwise too, because every matrix-vector product of
# a sweep step goes through stats.matvec_columns, which rounds each
# column as the reference's product at one particle does
SHORT = {"lq": (0.02, 0.0), "langevin": (0.2, 0.0),
         "ou_diffusion": (0.2, 0.0), "pendulum": (0.01, 0.0)}


def _assert_match(got, want, rtol):
    if rtol == 0.0:
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)


@pytest.mark.parametrize("name", list(SHORT))
def test_solve_matches_per_particle_reference(name):
    horizon, rtol = SHORT[name]
    sc = get_scenario(name)
    p = sc.make_problem()
    assert p.block_maps   # the block maps against the one-state oracle
    p.horizon = horizon
    cfg = sc.default_config()
    sched, rec = solve(p, cfg)
    want = ref.solve(p, cfg)
    got = {"gains": sched.gains, "shifts": sched.shifts}
    for key in ("bar_means", "bar_covs", "tilde_means", "tilde_covs"):
        got[key] = getattr(rec, key)
    for key, value in got.items():
        _assert_match(value, want[key], rtol)


def test_stationary_solve_matches_per_particle_reference():
    p = get_scenario("lq").make_problem()
    assert p.block_maps
    base = get_scenario("lq").default_config()
    base.ensemble_size = 16
    hcfg = HorizonConfig(gamma=0.5, base=base, equilibrium_tol=1e-3)
    gain, diag = stationary_solve(p, hcfg)
    want_gain, want_steps = ref.stationary_solve(p, hcfg)
    assert (diag["forward_steps"], diag["reverse_steps"]) == want_steps
    _assert_match(gain.A, want_gain.A, 0.0)
    _assert_match(gain.c, want_gain.c, 0.0)


def test_stationary_solve_at_max_step_dt_takes_fixed_steps(monkeypatch):
    # a largest step of dt turns the step-size controller off: the step
    # counts and the gain of the fixed-step loops, bit for bit
    p = get_scenario("lq").make_problem()
    base = get_scenario("lq").default_config()
    base.ensemble_size = 16
    monkeypatch.setattr(horizon, "_MAX_STEP", base.dt)
    hcfg = HorizonConfig(gamma=0.5, base=base, equilibrium_tol=1e-3)
    gain, diag = stationary_solve(p, hcfg)
    assert (diag["forward_steps"], diag["reverse_steps"]) == (6574, 2346)
    assert gain.A[0, 0].hex() == "-0x1.fe32ebb77dd40p-2"
    assert gain.c[0].hex() == "0x1.146ce0aa80b96p-10"
    assert np.all(diag["forward_step_sizes"] == base.dt)
    assert np.all(diag["reverse_step_sizes"] == base.dt)


def test_sweeps_invert_each_covariance_once_and_scan_only_the_start(
        monkeypatch):
    # n + 1 forward covariances, inverted in the forward sweep and reused
    # by the reverse one, and n + 1 reverse covariances
    inversions, scans = [], []
    spd_inverse, post_init = stats.spd_inverse, Ensemble.__post_init__
    monkeypatch.setattr(stats, "spd_inverse",
                        lambda c: inversions.append(1) or spd_inverse(c))
    monkeypatch.setattr(Ensemble, "__post_init__",
                        lambda e: scans.append(1) or post_init(e))
    p = get_scenario("lq").make_problem()
    p.horizon = 0.02
    sched, rec = solve(p, get_scenario("lq").default_config())
    assert len(sched.times) == 21
    assert (len(inversions), len(scans)) == (42, 1)
    assert rec.bar_invs is None


def test_non_finite_start_is_a_dimension_error():
    p = dataclasses.replace(get_scenario("lq").make_problem(),
                            start=np.array([np.nan]))
    with pytest.raises(DimensionError, match="particles must be finite"):
        solve(p, get_scenario("lq").default_config())


# ---------------------------------------------------------------------------
# block model maps of the built-in scenarios

SCENARIOS = ["pendulum", "langevin", "lq", "ou_diffusion"]


@pytest.mark.parametrize("name", SCENARIOS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_scenario_block_maps_equal_one_state_maps(name, data):
    p = get_scenario(name).make_problem()
    one_state = dataclasses.replace(p, block_maps=False)
    m = data.draw(st.integers(1, 9))
    x = np.array(data.draw(st.lists(
        st.floats(-50.0, 50.0), min_size=p.dim_x * m,
        max_size=p.dim_x * m))).reshape(p.dim_x, m)
    for map_name in MAP_SHAPES:
        want = map_columns(getattr(p, map_name), x)
        for got in (p.evaluate(map_name, x), one_state.evaluate(map_name, x)):
            assert got.shape == want.shape, map_name
            assert got.tobytes() == want.tobytes(), map_name


def _recording(p):
    """``p`` with every model map recording the shape it is called on."""
    seen = {}

    def record(name, f):
        return lambda x: seen.setdefault(name, []).append(np.shape(x)) or f(x)

    for name in MAP_SHAPES:
        if name != "sigma_sq":
            setattr(p, name, record(name, getattr(p, name)))
    return seen


@pytest.mark.parametrize("block_maps", [True, False])
def test_each_map_is_called_once_per_block_only_when_declared(block_maps):
    sc = get_scenario("lq")
    p = dataclasses.replace(sc.make_problem(), horizon=0.02,
                            block_maps=block_maps)
    cfg = sc.default_config()
    seen = _recording(p)
    sched, _ = solve(p, cfg)
    n, m = cfg.n_steps(p.horizon), cfg.ensemble_size
    if block_maps:
        # forward and reverse steps map the whole (1, M) block once;
        # G and Sigma frozen at the reverse mean see one column
        assert seen["drift"] == [(1, m)] * (2 * n)
        assert seen["running_map"] == [(1, m)] * n
        assert seen["terminal_map"] == [(1, m)]
        assert set(seen["gain"]) == {(1, 1)}
    else:
        assert {s for shapes in seen.values() for s in shapes} == {(1,)}
        assert len(seen["drift"]) == 2 * n * m
        assert len(seen["running_map"]) == n * m
    twin, _ = solve(dataclasses.replace(p, block_maps=not block_maps), cfg)
    assert sched.gains.tobytes() == twin.gains.tobytes()
    assert sched.shifts.tobytes() == twin.shifts.tobytes()


# ---------------------------------------------------------------------------
# block drifts against their column-by-column evaluation

def _nonlinear_problem():
    return ControlProblem(
        dim_x=2, dim_u=1, dim_b=2, dim_h=1, dim_xi=2,
        drift=lambda x: np.array([x[1], np.sin(x[0]) - 0.3 * x[1]]),
        gain=lambda x: np.array([[0.0], [1.0 + 0.5 * np.cos(x[0])]]),
        noise=lambda x: np.array([[1.0 + 0.2 * np.sin(x[1]), 0.0],
                                  [0.1 * x[0], 0.8]]),
        running_map=lambda x: np.array([x[0] * x[1]]),
        running_weight=np.array([[0.5]]),
        terminal_map=lambda x: np.asarray(x, dtype=float),
        terminal_weight=np.eye(2),
        control_weight=np.array([[2.0]]),
        horizon=1.0,
        start=np.array([0.3, -0.2]),
        div_sigma=lambda x: np.array([0.1 * np.cos(x[1]), 0.02 * x[0]]))


PROBLEM = _nonlinear_problem()

blocks = st.integers(min_value=2, max_value=7).flatmap(
    lambda m: st.lists(st.floats(-2.0, 2.0), min_size=2 * m,
                       max_size=2 * m).map(
        lambda v: np.array(v).reshape(2, m)))


def _closure(x):
    """Moments, gain and cross-covariance terms of an ensemble near x."""
    rng = np.random.default_rng(0)
    e = Ensemble(particles=rng.standard_normal((2, 6)) + x.mean(axis=1)[:, None])
    bar = moments(e, 1e-2)
    tilde = moments(Ensemble(particles=0.7 * e.particles), 1e-2)
    gain = gain_from_moments(bar, tilde)
    return bar, tilde, gain, np.array([[0.4], [-0.2]]), np.array([0.3])


DRIFTS = {
    "forward_drift": lambda x, bar, tilde, gain, cxh, mh:
        forward_drift(PROBLEM, x, bar, cxh, mh, 0.3),
    "reverse_drift": lambda x, bar, tilde, gain, cxh, mh:
        reverse_drift(PROBLEM, x, bar, tilde, gain, 0.3),
    "g_bar_kf": lambda x, bar, tilde, gain, cxh, mh:
        g_bar_kf(PROBLEM, x, cxh, mh),
    "g_tilde_kf": lambda x, bar, tilde, gain, cxh, mh:
        g_tilde_kf(PROBLEM, x, tilde, gain),
    "g_tilde_kf_discounted": lambda x, bar, tilde, gain, cxh, mh:
        g_tilde_kf_discounted(PROBLEM, x, tilde, gain, 0.5),
}


@pytest.mark.parametrize("name", list(DRIFTS))
@settings(max_examples=25, deadline=None)
@given(x=blocks)
def test_block_drift_equals_columnwise(name, x):
    f, args = DRIFTS[name], _closure(x)
    block = f(x, *args)
    assert block.shape == x.shape
    columns = np.column_stack([f(x[:, i], *args) for i in range(x.shape[1])])
    np.testing.assert_allclose(block, columns, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("name", list(DRIFTS))
@settings(max_examples=25, deadline=None)
@given(x=blocks, seed=st.integers(0, 2 ** 16))
def test_block_drift_is_permutation_equivariant(name, x, seed):
    f, args = DRIFTS[name], _closure(x)
    perm = np.random.default_rng(seed).permutation(x.shape[1])
    np.testing.assert_allclose(f(x[:, perm], *args), f(x, *args)[:, perm],
                               rtol=1e-12, atol=1e-13)


# ---------------------------------------------------------------------------
# blow-up location

def _walker(threshold):
    """Unit drift below ``threshold``, NaN at or above it."""
    return ControlProblem(
        dim_x=1, dim_u=1, dim_b=1, dim_h=1, dim_xi=1,
        drift=lambda x: np.array([1.0 if x[0] < threshold else np.nan]),
        gain=lambda x: np.array([[1.0]]),
        noise=lambda x: np.array([[1.0]]),
        running_map=lambda x: np.zeros(1),
        running_weight=np.array([[1.0]]),
        terminal_map=lambda x: np.asarray(x, dtype=float),
        terminal_weight=np.array([[1.0]]),
        control_weight=np.array([[1.0]]),
        horizon=2.0,
        start=np.array([0.0]))


def _quiet_config(**kw):
    return SolverConfig(dt=0.25, ensemble_size=4,
                        eps_noise_forward=NoiseSchedule.constant(0.0),
                        inflation=1e-6, **kw)


def test_forward_blowup_reports_first_bad_particle():
    # spread start: only the rightmost particle is past the threshold
    cfg = _quiet_config(init_cov=np.array([[1.0]]))
    x0 = np.random.default_rng(5).standard_normal(4)
    top = int(np.argmax(x0))
    threshold = 0.5 * (np.sort(x0)[-1] + np.sort(x0)[-2])
    with pytest.raises(NumericalBlowupError) as info:
        forward_sweep(_walker(threshold), cfg, np.random.default_rng(5))
    err = info.value
    assert top == 3   # not the first column
    assert (err.step, err.time, err.particle) == (0, 0.0, top)


def test_forward_blowup_reports_step_and_time():
    # identical particles move by exactly dt per step and reach the
    # threshold 1.0 at step 4
    with pytest.raises(NumericalBlowupError) as info:
        forward_sweep(_walker(1.0), _quiet_config(), np.random.default_rng(0))
    err = info.value
    assert (err.step, err.time, err.particle) == (4, 1.0, 0)


def test_stationary_blowup_reports_location():
    hcfg = HorizonConfig(gamma=0.5, base=_quiet_config())
    with pytest.raises(NumericalBlowupError) as info:
        stationary_solve(_walker(1.0), hcfg)
    err = info.value
    assert (err.step, err.time, err.particle) == (4, 1.0, 0)


def _explosive():
    """dx = 10 x^3 dt + dB from x = 1: overflows within a few steps."""
    return ControlProblem(
        dim_x=1, dim_u=1, dim_b=1, dim_h=1, dim_xi=1,
        drift=lambda x: 10.0 * x ** 3,
        gain=lambda x: np.array([[1.0]]),
        noise=lambda x: np.array([[1.0]]),
        running_map=lambda x: np.zeros(1),
        running_weight=np.array([[1.0]]),
        terminal_map=lambda x: np.asarray(x, dtype=float),
        terminal_weight=np.array([[1.0]]),
        control_weight=np.array([[1.0]]),
        horizon=1.0,
        start=np.array([1.0]))


def test_controlled_blowup_reports_step_time_and_path():
    p = _explosive()
    sched = AffineControlSchedule(times=np.arange(21) * 0.05,
                                  gains=np.zeros((21, 1, 1)),
                                  shifts=np.zeros((21, 1)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalBlowupError) as info:
            simulate_controlled(p, sched, rho=0.0, n_paths=3)
        err = info.value
        assert (err.step, err.time, err.particle) == (8, sched.times[8], 0)
        assert str(err).startswith("step 8 (t=0.4): ")
        # with noise, path 4 is the only one to overflow in step 7; the
        # earlier paths, path 0 included, overflow in step 8
        _, xs, _ = ref.simulate_controlled(p, sched, 1.0, 6,
                                           np.random.default_rng(4))
        first_bad = np.argmax(~np.isfinite(xs[:, 1:, 0]), axis=1)
        assert first_bad.tolist() == [8, 8, 8, 8, 7, 8]
        with pytest.raises(NumericalBlowupError) as info:
            simulate_controlled(p, sched, rho=1.0, n_paths=6,
                                rng=np.random.default_rng(4))
    err = info.value
    assert (err.step, err.time, err.particle) == (7, sched.times[7], 4)
    assert str(err).startswith("step 7 (t=0.35): ")


def test_reverse_blowup_reports_location():
    # the reverse drift is -b: NaN for the one terminal particle past 3
    p = _walker(3.0)
    cfg = _quiet_config()
    record, _ = forward_sweep(_walker(np.inf), cfg, np.random.default_rng(0))
    terminal = Ensemble(particles=np.array([[0.0, 5.0, 1.0, 2.0]]), time=2.0)
    with pytest.raises(NumericalBlowupError) as info:
        reverse_sweep_enkf(p, cfg, record, terminal, np.random.default_rng(0))
    err = info.value
    assert (err.step, err.time, err.particle) == (8, 2.0, 1)


# ---------------------------------------------------------------------------
# controlled paths against the per-path reference

@functools.cache
def _short_law(name):
    horizon, _ = SHORT[name]
    sc = get_scenario(name)
    p = sc.make_problem()
    p.horizon = horizon
    sched, _ = solve(p, sc.default_config())
    return p, sched


@pytest.mark.parametrize("rho", [0.0, 1.0, 0.3])
@pytest.mark.parametrize("name", ["lq", "langevin", "pendulum"])
def test_paths_and_cost_match_per_path_reference(name, rho):
    # the block step scales the noise by sqrt(rho^2 dt), the reference by
    # rho sqrt(dt): equal for rho in {0, 1}, within an ulp at rho = 0.3
    p, sched = _short_law(name)
    _, xs, us = simulate_controlled(p, sched, rho=rho, n_paths=5,
                                    rng=np.random.default_rng(3))
    _, want_xs, want_us = ref.simulate_controlled(
        p, sched, rho, 5, np.random.default_rng(3))
    cost = estimate_cost(p, sched, n_paths=5, rng=np.random.default_rng(3),
                         rho=rho)
    want_cost = ref.estimate_cost(p, sched, rho, 5, np.random.default_rng(3))
    if rho in (0.0, 1.0):
        assert xs.tobytes() == want_xs.tobytes()
        assert us.tobytes() == want_us.tobytes()
        assert cost == want_cost
    else:
        for got, want in ((xs, want_xs), (us, want_us), (cost, want_cost)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(2, 6), k=st.integers(1, 6), seed=st.integers(0, 2 ** 16))
def test_first_paths_do_not_depend_on_path_count(n, k, seed):
    p, sched = _short_law("pendulum")
    k = min(k, n)
    _, xs, us = simulate_controlled(p, sched, n_paths=n,
                                    rng=np.random.default_rng(seed))
    _, xk, uk = simulate_controlled(p, sched, n_paths=k,
                                    rng=np.random.default_rng(seed))
    assert xs[:k].tobytes() == xk.tobytes()
    assert us[:k].tobytes() == uk.tobytes()


def _wide_problem():
    """d = 2 with two controls and five running-cost features, so that
    every product in the control and cost terms sums several terms."""
    return ControlProblem(
        dim_x=2, dim_u=2, dim_b=2, dim_h=5, dim_xi=2,
        drift=lambda x: np.array([x[1], -np.sin(x[0])]),
        gain=lambda x: np.array([[1.0 + 0.3 * x[1], 0.2],
                                 [np.cos(x[0]), 0.7 - 0.1 * x[0]]]),
        noise=lambda x: np.eye(2),
        running_map=lambda x: np.array([x[0], x[0] * x[1], np.sin(x[1]),
                                        x[1] ** 2, np.cos(x[0] - x[1])]),
        running_weight=np.eye(5) + 0.3 * np.ones((5, 5)),
        terminal_map=lambda x: np.array([x[0] + x[1], x[0] - 2.0 * x[1]]),
        terminal_weight=np.array([[0.6, 0.1], [0.1, 0.9]]),
        control_weight=np.array([[1.3, 0.4], [0.4, 0.8]]),
        horizon=1.0,
        start=np.array([0.3, -0.2]))


WIDE = _wide_problem()
WIDE_SCHED = AffineControlSchedule(
    times=[0.0, 1.0], gains=np.array([[[1.7, -0.6], [-0.6, 0.9]]] * 2),
    shifts=np.array([[0.3, -1.1], [0.3, -1.1]]))

STATE_TERMS = {
    "apply_control": (lambda x: apply_control(WIDE, WIDE_SCHED, 0.5, x),
                      lambda x: ref.apply_control(WIDE, WIDE_SCHED, 0.5, x)),
    "running_cost": (lambda x: running_cost(WIDE, x),
                     lambda x: ref.running_cost(WIDE, x)),
    "terminal_cost": (lambda x: terminal_cost(WIDE, x),
                      lambda x: ref.terminal_cost(WIDE, x)),
    "control_cost": (lambda u: control_cost(WIDE, u),
                     lambda u: ref.control_cost(WIDE, u)),
}


@pytest.mark.parametrize("name", list(STATE_TERMS))
@settings(max_examples=25, deadline=None)
@given(x=blocks)
def test_block_control_and_costs_equal_one_state_calls(name, x):
    f, oracle = STATE_TERMS[name]
    block = np.asarray(f(x))
    one = [f(x[:, i]) for i in range(x.shape[1])]
    want = [oracle(x[:, i]) for i in range(x.shape[1])]
    assert block.shape[-1] == x.shape[1]
    columns = np.column_stack(one).reshape(block.shape)
    assert block.tobytes() == columns.tobytes()
    assert [type(v) for v in one] == [type(v) for v in want]
    assert np.array(one).tobytes() == np.array(want).tobytes()
