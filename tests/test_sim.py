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
)


def test_chain_equilibrium_stays_constant():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    traj = integrate(lambda t, z: A @ z, np.array([1.0, 0.0]), 0.0, 1.0, 1e-2)
    assert_allclose(traj.states[-1], [1.0, 0.0], atol=1e-14)


def test_exponential_decay_accuracy():
    traj = integrate(lambda t, x: -x, np.array([1.0]), 0.0, 1.0, 1e-3)
    assert abs(traj.states[-1, 0] - math.exp(-1.0)) < 1e-8


def test_fourth_order_convergence():
    def err(dt):
        traj = integrate(lambda t, x: -x, np.array([1.0]), 0.0, 1.0, dt)
        return abs(traj.states[-1, 0] - math.exp(-1.0))

    ratio = err(2e-2) / err(1e-2)
    assert 12.0 < ratio < 20.0


def test_linear_system_matches_matrix_exponential():
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=2)
    traj = integrate(lambda t, x: DOUBLE_INT_ACL @ x, x0, 0.0, 1.0, 1e-3)
    assert_allclose(traj.states[-1], matrix_exp_series(DOUBLE_INT_ACL, 1.0) @ x0, atol=1e-8)


def test_grid_lands_exactly_on_t1():
    grid = time_grid(0.0, 0.0105, 1e-3)
    assert grid[-1] == 0.0105
    assert len(grid) == 12  # ten full steps plus the shortened final one


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


def test_driver_rejects_interval_off_the_grid():
    rhs = lambda s, x, anchor: (-x, 0.0)
    for period in (2.5e-3, 0.0, 1e-12):
        with pytest.raises(ValueError, match="whole multiple"):
            rk4(rhs, np.ones(1), 0.0, 1.0, 1e-3, period=period, begin=lambda t, x: None)


def test_interval_controller_anchored_at_committed_state(double_int_set):
    # The RK4 driver anchors a learned controller once per interval, at the
    # committed state, exactly like the chain simulator.  Anchoring at the
    # RK4 predictor state at t = (p+1)T instead puts it ~2e-9 off.
    ctrl = LearnedController(build_basis(double_int_set), feedback_mode="open_loop")
    z0 = np.array([0.4, -0.2])
    chain = simulate_chain_closed_loop(ctrl, z0, 6.0, 1e-3)
    times, states, inputs = chain_rk4(ctrl, z0, 6.0, 1e-3)
    generic = Trajectory(times=times, states=states[:, :, 0], inputs=inputs[:, 0, 0])
    assert np.max(np.abs(generic.states - chain.states)) < 1e-12
    assert np.max(np.abs(generic.inputs - chain.inputs)) < 1e-12


def test_divergence_reports_time():
    with pytest.raises(DivergenceError) as err:
        integrate(lambda t, x: x**3, np.array([2.0]), 0.0, 5.0, 1e-3)
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
        rk4(lambda t, y, _: ((states[3] - states[0]) / 0.1, 0.0), states[0], 0.0, 0.5, 0.1)
    assert (err.value.time, err.value.column) == (0.1, 1)


@pytest.mark.parametrize("y0, column", [(np.array([3e6, 0.0]), None),
                                       (np.array([[0.5, np.nan], [0.5, 0.0]]), 1)],
                         ids=["past_the_bound", "non_finite_column"])
def test_start_is_held_to_the_divergence_bound(y0, column):
    # y0 takes the test of every committed state, before rhs sees it.
    def rhs(t, y, _):
        raise AssertionError("rhs called on a start past the bound")

    with pytest.raises(DivergenceError, match=r"state diverged at t=0\.250000") as err:
        rk4(rhs, y0, 0.25, 1.0, 0.05)
    assert (err.value.time, err.value.column) == (0.25, column)


def test_chain_start_is_held_to_the_divergence_bound(double_int_ctrl):
    z0 = np.array([[0.5, 1e200], [0.5, 0.0]])
    with pytest.raises(DivergenceError, match=r"state diverged at t=0\.000000") as err:
        simulate_chain_closed_loop(double_int_ctrl, z0[:, 1], 4.0, 1e-3)
    assert err.value.time == 0.0
    with pytest.raises(DivergenceError) as err:
        simulate_chain_batch(double_int_ctrl, z0, 4.0, 1e-3)
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
    for grid in (time_grid(0.0, 2.0, 1e-3), time_grid(0.0, 1.0005, 1e-3),
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
       steps=st.integers(1, 40), intervals=st.integers(0, 6), extra=st.integers(0, 40),
       frac=st.sampled_from([0.0, 0.25, 0.5, 0.9]))
def test_interval_index_of_a_grid_is_the_float_call_at_every_point(dt, steps, intervals,
                                                                    extra, frac):
    # T = steps * dt; the duration runs whole intervals plus whole steps, and
    # for frac > 0 a shortened final step.
    T = steps * dt
    times = time_grid(0.0, intervals * T + (extra + frac) * dt or dt, dt)
    p, tau = interval_index(times, T)
    assert p.shape == tau.shape == times.shape and p.dtype.kind == "i"
    for k, t in enumerate(times.tolist()):
        q, s = interval_index(t, T)
        assert (type(q), type(s)) == (int, float)
        assert (int(p[k]), tau[k].tobytes()) == (q, np.float64(s).tobytes())
    # Grid points at pT start interval p, right-continuous, with tau = 0
    # where the point is pT exactly (every one on the binary dt = 0.25).
    full = len(times) - (frac > 0)
    assert p[:full].tolist() == [k // steps for k in range(full)]
    exact = times[:full:steps] == p[:full:steps] * T
    assert not tau[:full:steps][exact].any()
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
