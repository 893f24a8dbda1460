"""Fixed-step RK4 integrator and closed-loop simulation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from oracles import DOUBLE_INT_ACL, chain_rk4, double_int_flow, integrate, matrix_exp_series

from demostab.errors import DivergenceError
from demostab.learner import (
    LearnedController,
    build_basis,
    simulate_chain_batch,
    simulate_chain_closed_loop,
)
from demostab.plant import chain_preset
from demostab.sim import (
    HalfGrid,
    Trajectory,
    check_divergence,
    interval_index,
    rk4,
    simulate_closed_loop,
    time_grid,
    whole_steps,
)


def test_chain_equilibrium_stays_constant():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    traj = integrate(lambda t, z: A @ z, np.array([1.0, 0.0]), 0.0, 1.0, 1e-2)
    assert_allclose(traj.states[-1], [1.0, 0.0], atol=1e-14)


def test_exponential_decay_accuracy():
    traj = integrate(lambda t, x: -np.asarray(x), np.array([1.0]), 0.0, 1.0, 1e-3)
    assert abs(traj.states[-1, 0] - math.exp(-1.0)) < 1e-8


def test_fourth_order_convergence():
    def err(dt):
        traj = integrate(lambda t, x: -np.asarray(x), np.array([1.0]), 0.0, 1.0, dt)
        return abs(traj.states[-1, 0] - math.exp(-1.0))

    ratio = err(2e-2) / err(1e-2)
    assert 12.0 < ratio < 20.0


def test_linear_system_matches_matrix_exponential():
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=2)
    traj = integrate(lambda t, x: DOUBLE_INT_ACL @ x, x0, 0.0, 1.0, 1e-3)
    assert_allclose(traj.states[-1], matrix_exp_series(DOUBLE_INT_ACL, 1.0) @ x0, atol=1e-8)


def test_grid_lands_exactly_on_t1():
    # 3 * 0.1 is 0.30000000000000004: the last point is snapped to t1.
    grid = time_grid(0.0, 0.3, 0.1)
    assert grid[-1] == 0.3 and len(grid) == 4
    assert grid[:-1].tolist() == (0.1 * np.arange(3)).tolist()
    # 10.5 steps: no grid ends in a shortened step.
    with pytest.raises(ValueError, match=r"0\.0105 is not a whole multiple of dt=0\.001"):
        time_grid(0.0, 0.0105, 1e-3)


@pytest.mark.parametrize("span, dt, steps", [(40.0, 1e-3, 40000), (0.3, 0.1, 3), (18.0, 0.01, 1800),
                                             (2.0 / 3.0, 1.0 / 3.0, 2)])
def test_whole_steps_counts_the_steps_of_a_span_on_the_grid(span, dt, steps):
    assert whole_steps(span, dt) == steps and type(whole_steps(span, dt)) is int


@pytest.mark.parametrize("span, dt, message", [
    (0.0105, 1e-3, "whole multiple"),
    (1.0 + 2e-9 * 1e-3, 1e-3, "whole multiple"),
    (4e-4, 1e-3, "whole multiple"),
    (1e7, 1e-2, "step budget"),
    (1.0, 1e-320, "step budget"),
], ids=["half_step", "just_off", "under_one_step", "over_budget", "overflow"])
def test_whole_steps_refuses_a_span_off_the_grid(span, dt, message):
    with pytest.raises(ValueError, match=message):
        whole_steps(span, dt)


def test_closed_loop_lqr_matches_closed_form():
    plant = chain_preset(2)
    traj = simulate_closed_loop(
        plant, lambda t, z: -z[0] - 2.0 * z[1], np.array([1.0, 0.0]), 2.0, 1e-3
    )
    expected = double_int_flow(2.0) @ np.array([1.0, 0.0])
    assert_allclose(expected, math.exp(-2.0) * np.array([3.0, -2.0]), atol=1e-15)
    assert_allclose(traj.states[-1], expected, atol=1e-10)


def test_zero_controller_at_origin_stays_zero():
    plant = chain_preset(2)
    traj = simulate_closed_loop(plant, lambda t, z: 0.0, np.zeros(2), 1.0, 1e-2)
    assert np.all(traj.states == 0.0)
    assert np.all(traj.inputs == 0.0)


def test_interval_controller_anchored_at_committed_state(double_int_set):
    # The stage-by-stage reference anchors a learned controller once per
    # interval, at the committed state, exactly like the chain simulator.
    # Anchoring at the RK4 predictor state at t = (p+1)T instead puts it
    # ~2e-9 off.
    ctrl = LearnedController(build_basis(double_int_set), feedback_mode="open_loop")
    z0 = np.array([0.4, -0.2])
    chain = simulate_chain_closed_loop(ctrl, z0, 6.0)
    times, states, inputs = chain_rk4(ctrl, z0, 6.0, 1e-3)
    generic = Trajectory(times=times, states=states[:, :, 0], inputs=inputs[:, 0, 0])
    assert np.max(np.abs(generic.states - chain.states)) < 1e-12
    assert np.max(np.abs(generic.inputs - chain.inputs)) < 1e-12


def test_divergence_reports_time():
    with pytest.raises(DivergenceError) as err:
        integrate(lambda t, x: np.asarray(x)**3, np.array([2.0]), 0.0, 5.0, 1e-3)
    assert err.value.time is not None and 0.0 < err.value.time < 5.0


def test_check_divergence_names_the_column_as_rk4_does():
    # A (G, 4, 2) block: column 1 passes the norm bound at times[3] while
    # column 0 stays small; later, column 0 turns non-finite.
    times = np.linspace(0.0, 0.5, 6)
    states = np.full((6, 4, 2), 0.5)
    states[3:, 0, 1] = 2e6
    states[5, 2, 0] = np.nan
    with pytest.raises(DivergenceError) as err:
        check_divergence(states, times)
    assert (err.value.time, err.value.column) == (times[3], 1)
    states[2, 1, 0] = np.inf
    with pytest.raises(DivergenceError) as err:
        check_divergence(states, times)
    assert (err.value.time, err.value.column) == (times[2], 0)
    # rk4 names the same column for the same batch, one step in.
    with pytest.raises(DivergenceError) as err:
        rk4(lambda t, y: ((states[3] - states[0]) / 0.1, 0.0), states[0],
            time_grid(0.0, 0.5, 0.1))
    assert (err.value.time, err.value.column) == (0.1, 1)


@pytest.mark.parametrize("y0, column", [(np.array([3e6, 0.0]), None),
                                       (np.array([[0.5, np.nan], [0.5, 0.0]]), 1)],
                         ids=["past_the_bound", "non_finite_column"])
def test_start_is_held_to_the_divergence_bound(y0, column):
    # y0 takes the test of every committed state, before rhs sees it.
    def rhs(t, y):
        raise AssertionError("rhs called on a start past the bound")

    with pytest.raises(DivergenceError, match=r"state diverged at t=0\.250000") as err:
        rk4(rhs, y0, time_grid(0.25, 1.0, 0.05))
    assert (err.value.time, err.value.column) == (0.25, column)


def _linear_rhs(t, y):
    # Row by row, so a column of a batch takes the operations of one state.
    return np.array([y[1], -2.0 * y[0] - 3.0 * y[1] + t]), y[0]


def _cubic_rhs(t, x):
    return np.asarray(x)**3, 0.0


@pytest.mark.parametrize("rhs, y0", [(_linear_rhs, [0.3, -0.2]), (_cubic_rhs, [2.0])],
                         ids=["linear", "cubic"])
def test_single_state_steps_to_the_bits_of_its_batch_column(rhs, y0):
    # A 1-D state is stepped on Python floats, a (d, 1) batch on NumPy rows.
    # x' = x^3 from 2 blows up at t = 1/8: up to 0.1 both paths step it, and
    # to 5.0 both fail at one grid time.
    y0 = np.array(y0)
    times = time_grid(0.0, 0.1, 1e-3)
    single, u_single = rk4(rhs, y0, times)
    batch, u_batch = rk4(rhs, y0[:, None], times)
    assert single.shape == batch.shape[:2] and u_single.shape == u_batch.shape[:1]
    assert np.array_equal(single, batch[:, :, 0])
    assert np.array_equal(u_single, u_batch.reshape(u_single.shape))
    if rhs is _cubic_rhs:
        errors = []
        for start in (y0, y0[:, None]):
            with pytest.raises(DivergenceError) as err:
                rk4(rhs, start, time_grid(0.0, 5.0, 1e-3))
            errors.append((err.value.time, err.value.column))
        assert errors[0] == (errors[1][0], None) and errors[1][1] == 0
        assert 0.1 < errors[0][0] < 0.2


def test_rhs_receives_the_state_rk4_steps():
    # A single state reaches rhs as the list of Python floats rk4 steps, a
    # batch as its (d, k) array.
    seen = []

    def rhs(t, y):
        seen.append(y)
        return y, 0.0

    times = time_grid(0.0, 0.3, 0.1)
    rk4(rhs, np.array([0.5, -0.25]), times)
    assert len(seen) == 13
    assert all(type(y) is list and [type(a) for a in y] == [float, float] for y in seen)
    seen.clear()
    rk4(rhs, np.array([[0.5], [-0.25]]), times)
    assert len(seen) == 13 and all(type(y) is np.ndarray and y.shape == (2, 1) for y in seen)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200])
def test_single_start_that_is_not_finite_or_overflows_fails_at_the_first_grid_time(value):
    # 1e200 squares past the float range: the norm test multiplies, so it
    # reads inf and fails, where a float's ** would raise OverflowError.
    def rhs(t, y):
        raise AssertionError("rhs called on a start past the bound")

    with pytest.raises(DivergenceError, match=r"state diverged at t=0\.250000") as err:
        rk4(rhs, np.array([0.5, value, 0.0]), time_grid(0.25, 1.0, 0.05))
    assert (err.value.time, err.value.column) == (0.25, None)


def test_single_state_norm_is_summed_left_to_right():
    # 1e6 squared is the bound 1e12 exactly, and each 5e-3 squared is less
    # than half an ulp of 1e12: summed left to right from 1e6 the squared
    # norm stays on the bound, which passes.  A compensated sum, or the
    # same entries with 1e6 last, end two ulps above it and fail.
    def rhs(t, y):
        return [0.0] * len(y), 0.0

    times = time_grid(0.0, 0.2, 0.1)
    states, _ = rk4(rhs, np.array([1e6] + [5e-3] * 10), times)
    assert states.shape == (3, 11)
    with pytest.raises(DivergenceError) as err:
        rk4(rhs, np.array([5e-3] * 10 + [1e6]), times)
    assert err.value.time == 0.0


def test_chain_start_is_held_to_the_divergence_bound(double_int_ctrl):
    z0 = np.array([[0.5, 1e200], [0.5, 0.0]])
    with pytest.raises(DivergenceError, match=r"state diverged at t=0\.000000") as err:
        simulate_chain_closed_loop(double_int_ctrl, z0[:, 1], 4.0)
    assert err.value.time == 0.0
    with pytest.raises(DivergenceError) as err:
        simulate_chain_batch(double_int_ctrl, z0, 4.0)
    assert (err.value.time, err.value.column) == (0.0, 1)


def test_domain_exit_raises():
    from demostab.systems import ball_beam_plant

    plant = ball_beam_plant()
    # Constant positive torque rate spins the beam past pi/2.
    with pytest.raises(DivergenceError):
        simulate_closed_loop(plant, lambda t, x: 5.0, np.zeros(4), 5.0, 1e-3)


def test_chain_drift_is_exact_polynomial():
    # With v = 0 the chain solution is polynomial of degree <= n-1; RK4
    # reproduces it exactly because A is nilpotent.
    plant = chain_preset(3)
    a, b, c = 0.4, -0.3, 0.8
    traj = simulate_closed_loop(plant, lambda t, z: 0.0, np.array([a, b, c]), 2.0, 1e-2)
    t = traj.times
    assert_allclose(traj.states[:, 0], a + b * t + 0.5 * c * t**2, atol=1e-12)
    assert_allclose(traj.states[:, 1], b + c * t, atol=1e-12)
    assert_allclose(traj.states[:, 2], c, atol=1e-12)


def test_half_grid_maps_rk4_stage_times_to_slots():
    for grid in (time_grid(0.0, 2.0, 1e-3), time_grid(0.0, 1.0, 1.0 / 3.0),
                 time_grid(0.3, 1.0, 0.07)):
        half = HalfGrid(grid)
        assert [half.index(t) for t in half.times] == list(range(len(half.times)))
        for k, t in enumerate(grid[:-1].tolist()):
            h = grid[k + 1] - t
            assert half.index(t + 0.5 * h) == 2 * k + 1
            assert half.index(t + h) == 2 * k + 2
        dt = grid[1] - grid[0]
        assert half.index(grid[0] + 0.25 * dt) is None
        assert half.index(grid[-1] + 0.5 * dt) is None
        assert half.index(grid[0] - 0.5 * dt) is None


@given(dt=st.sampled_from([1e-3, 2.5e-3, 0.01, 0.1, 0.25, 1.0 / 3.0, 0.7]),
       steps=st.integers(1, 40), intervals=st.integers(0, 6), extra=st.integers(0, 40))
def test_interval_index_of_a_grid_is_the_float_call_at_every_point(dt, steps, intervals,
                                                                    extra):
    # T = steps * dt; the duration runs whole intervals plus whole steps.
    T = steps * dt
    times = time_grid(0.0, intervals * T + extra * dt or dt, dt)
    calls = [interval_index(t, T) for t in times.tolist()]
    assert all((type(q), type(s)) == (int, float) for q, s in calls)
    p, tau = (np.array(col) for col in zip(*calls))
    assert p.shape == tau.shape == times.shape and p.dtype.kind == "i"
    # Grid points at pT start interval p, right-continuous, with tau = 0
    # where the point is pT exactly (every one on the binary dt = 0.25).
    assert p.tolist() == [k // steps for k in range(len(times))]
    exact = times[::steps] == p[::steps] * T
    assert not tau[::steps][exact].any()
    assert exact.all() or dt != 0.25


@given(T=st.floats(1e-3, 100.0), p=st.integers(0, 10_000), back=st.floats(1e-6, 1.0))
def test_interval_index_is_right_continuous(T, p, back):
    # At t = pT the new interval starts with tau = 0; just before it the
    # previous interval runs up to its end.
    assert interval_index(p * T, T) == (p, 0.0)
    if p > 0:
        q, tau = interval_index(p * T - back * T, T)
        assert q == p - 1
        assert abs(tau - (1.0 - back) * T) <= 1e-9 * T * (p + 1)
