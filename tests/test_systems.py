"""Benchmark presets and reference tracking."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import expm, lqr_gain_scipy, setpoint, track

from demostab.certify import certificate
from demostab.demos import to_zv
from demostab.errors import NotFeedbackLinearizableError
from demostab.learner import LearnedController, build_basis
from demostab.plant import chain_preset
from demostab.systems import (
    BALL_BEAM_B,
    Reference,
    BALL_BEAM_G,
    BALL_BEAM_W,
    ball_beam_preset,
    figure_eight,
    figure_eight_axis,
    flat_quad_demo_set,
    flat_quad_pair,
    simulate_tracking,
)


def test_figure_eight_at_zero():
    ref = figure_eight(0.1)
    z0 = ref.z_of_t(0.0)
    assert_allclose(z0[:3], [0.0, 0.0, 0.7], atol=1e-15)
    # Velocity at t = 0.
    f = 0.1
    assert_allclose(z0[3:6], [4.0 * math.pi * f, 2.0 * math.pi * f, 0.2 * math.pi * f],
                    atol=1e-15)


def test_figure_eight_half_slow_period():
    f = 0.1
    ref = figure_eight(f)
    p = ref.z_of_t(1.0 / (2.0 * f))[:3]
    assert_allclose(p, [0.0, 0.0, 0.7], atol=1e-12)


def test_reference_derivative_consistency():
    # Each stacked block is the derivative of the previous one; the
    # feedforward is the derivative of the last block.
    for ref in (figure_eight(0.1), figure_eight_axis(0.25, axis=1)):
        h = 1e-5
        for t in (0.0, 0.31, 2.7):
            zm, zp = ref.z_of_t(t - h), ref.z_of_t(t + h)
            dz = (zp - zm) / (2.0 * h)
            n3 = ref.n // 3
            z = ref.z_of_t(t)
            assert_allclose(dz[:2 * n3], z[n3:], atol=1e-8)
            assert_allclose(dz[2 * n3:], ref.v_of_t(t), atol=1e-6)


def test_track_zero_error_is_feedforward(quad_set):
    ctrl = LearnedController(build_basis(quad_set), A=quad_set.A, B=quad_set.B)
    ref = figure_eight(0.1)
    t = 1.23
    u = track(ctrl, ref, t, ref.z_of_t(t))
    assert_allclose(u, ref.v_of_t(t), atol=0)


def test_track_zero_reference_is_plain_stabilization(double_int_ctrl):
    ref = setpoint(np.zeros(2), m=1)
    rng = np.random.default_rng(6)
    for _ in range(20):
        t = float(rng.uniform(0.0, 4.0))
        z = rng.normal(size=2)
        assert track(double_int_ctrl, ref, t, z) == double_int_ctrl(t, z)


def test_ball_beam_preset_defaults():
    plant, cfg = ball_beam_preset()
    assert cfg.w == BALL_BEAM_W
    assert_allclose(BALL_BEAM_B, 0.7143)
    assert_allclose(BALL_BEAM_G, 9.81)
    assert_allclose(plant.f(np.zeros(4)), 0.0, atol=0)
    assert_allclose(plant.g(np.zeros(4)), [0.0, 0.0, 0.0, 1.0], atol=0)


def test_ball_beam_rejected_by_chain_pipeline():
    plant, _ = ball_beam_preset()
    from demostab.sim import Trajectory, time_grid

    grid = time_grid(0.0, 0.1, 1e-2)
    batch = Trajectory(times=grid, states=np.zeros((len(grid), 4, 1)),
                       inputs=np.zeros((len(grid), 1)))
    with pytest.raises(NotFeedbackLinearizableError):
        to_zv(plant, batch)


def test_flat_quad_pair_shapes():
    A, B = flat_quad_pair()
    assert A.shape == (9, 9) and B.shape == (9, 3)
    # dz/dt = (dp, ddp, jerk): A shifts blocks, B feeds the last block.
    z = np.arange(9, dtype=float)
    assert_allclose(A @ z, np.concatenate([z[3:], np.zeros(3)]), atol=0)
    assert_allclose(B @ np.array([1.0, 2.0, 3.0]),
                    np.concatenate([np.zeros(6), [1.0, 2.0, 3.0]]), atol=0)


def test_flat_quad_demo_set_counts(quad_set):
    assert quad_set.M == 10 and quad_set.n == 9 and quad_set.m == 3
    assert not quad_set.z[:, :, 0].any() and not quad_set.v[:, :, 0].any()
    starts = quad_set.z0_points()
    assert_allclose(starts[1:], np.eye(9), atol=0)


@pytest.mark.parametrize("dt, rtol", [(1e-3, 1e-15), (0.5, 1e-13)], ids=["readme", "squared"])
def test_flat_quad_step_map_matches_scipy_expm(dt, rtol):
    # From the starts (0 | I) one step gives E itself.  At the README's dt
    # ||A_cl dt||_1 < 1 and the Taylor sum alone forms E; at dt = 0.5 the sum
    # is squared 3 times.  Measured: 1.1e-16 and 9.1e-15 of the largest entry.
    A, B = flat_quad_pair()
    Q = 40.0 * np.eye(9)
    want = expm((A - B @ lqr_gain_scipy(A, B, Q, np.eye(3))) * dt)
    E = flat_quad_demo_set(T=dt, dt=dt, Q=Q, R=1.0).z[1][:, 1:]
    assert np.abs(E - want).max() <= rtol * np.abs(want).max()


def test_flat_quad_demos_follow_chain(quad_set):
    z, v = quad_set.z[:, :, 4], quad_set.v[:, :, 4]
    dz = (z[2:] - z[:-2]) / (2.0 * quad_set.dt)
    assert np.max(np.abs(dz[:, :6] - z[1:-1, 3:])) < 1e-4
    assert np.max(np.abs(dz[:, 6:] - v[1:-1])) < 1e-4


def test_flat_quad_certificate(quad_set):
    cert = certificate(build_basis(quad_set))
    assert cert.verdict
    assert 0.0 < cert.margin < 1.0


def test_axis_tracking_error_decays():
    # Single-axis triple integrator tracking its slice of the figure eight.
    from demostab.demos import record_expert
    from demostab.plant import chain_preset, expert_lqr

    plant = chain_preset(3)
    expert = expert_lqr(plant, 40.0 * np.eye(3), 1.0)
    raw = record_expert(plant, expert, list(np.eye(3)), T=2.0, dt=1e-3)
    dset = to_zv(plant, raw)
    ctrl = LearnedController(build_basis(dset))
    assert certificate(ctrl.basis).verdict
    ref = figure_eight_axis(0.1, axis=0)
    res = simulate_tracking(ctrl, ref, np.zeros(3), duration=20.0)
    period = res.times <= 10.0
    assert res.error_norm[~period].max() < 0.05
    assert res.error_norm[~period].max() < res.error_norm[period].max()


def test_tracking_starts_from_initial_error():
    ctrl_set = flat_quad_demo_set(T=2.0, dt=1e-2, Q=40.0 * np.eye(9), R=1.0)
    ctrl = LearnedController(build_basis(ctrl_set), A=ctrl_set.A, B=ctrl_set.B)
    ref = figure_eight(0.1)
    res = simulate_tracking(ctrl, ref, np.zeros(9), duration=1.0)
    assert_allclose(res.error_norm[0], np.linalg.norm(ref.z_of_t(0.0)), atol=1e-12)
    assert_allclose(res.z[0], 0.0, atol=1e-12)


def test_tracking_inputs_match_track(double_int_ctrl):
    # simulate_tracking evaluates the reference once on the whole grid; its
    # inputs are track()'s, which evaluates it at one time.
    ref = Reference(z_of_t=lambda t: np.stack([np.sin(t), np.cos(t)], axis=-1),
                    v_of_t=lambda t: -np.sin(t)[..., None], n=2, m=1, description="circle")
    res = simulate_tracking(double_int_ctrl, ref, np.array([0.5, -0.3]), duration=5.0)
    for k in range(0, len(res.times), 250):
        u = track(double_int_ctrl, ref, res.times[k], res.z[k])
        assert_allclose(res.u[k, 0], u, rtol=1e-12, atol=1e-14)


def test_figure_eight_rejects_bad_frequency():
    with pytest.raises(ValueError):
        figure_eight(0.0)


@pytest.mark.parametrize("plant", [ball_beam_preset()[0], chain_preset(1), chain_preset(3)],
                         ids=["ball_beam", "chain1", "chain3"])
def test_batched_evaluators_match_per_state_calls(plant):
    # Evaluators take the state on the first axis: one column per state, and
    # a state gives the same bits as its column of a batch.
    rng = np.random.default_rng(3)
    X = rng.uniform(-1.2, 1.2, size=(plant.n, 7))
    X[:, 5] = np.nan
    if plant.n == 4:
        X[2, 6] = 1.6  # beam angle past pi/2
    for evaluator, rows in ((plant.terms, 4 * plant.n + 1), (plant.f, plant.n)):
        batched = evaluator(X)
        assert batched.shape == (rows, 7)
        for j in range(7):
            assert evaluator(X[:, j]).tobytes() == batched[:, j].tobytes()
    inside = plant.domain_check(X)
    assert inside.shape == (7,)
    assert list(inside) == [bool(plant.domain_check(X[:, j])) for j in range(7)]
