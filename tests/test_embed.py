"""Integrator-chain embedding: coordinate change, auxiliary dynamics, transforms."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import routh_stable, transform_demo_per_sample

from demostab.embed import (
    EmbeddingConfig,
    a_w_numeric,
    aux_rhs,
    charpoly,
    companion_from_coeffs,
    dynamic_feedback,
    hurwitz,
    invert_phi_z,
    phi_z,
    r_of_x,
    s_of_x_xi,
    simulate_embedded_closed_loop,
    transform_demos,
)
from demostab.errors import SingularEmbeddingError
from demostab.learner import LearnedController, build_basis
from demostab.plant import chain_preset
from demostab.sim import Trajectory
from demostab.systems import BALL_BEAM_B, BALL_BEAM_G, ball_beam_preset


@pytest.fixture(scope="module")
def bb_cfg():
    return ball_beam_preset()[1]


def test_a_xi_companion_structure(bb_cfg):
    A = bb_cfg.A_xi
    assert_allclose(A, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -3.0, -3.0]])


def test_a_xi_charpoly_is_cubed_binomial(bb_cfg):
    # (s + 1)^3: coefficients 1, 3, 3, 1, so the eigenvalues are -1 (triple).
    assert_allclose(charpoly(bb_cfg.A_xi), [1.0, 3.0, 3.0, 1.0], atol=1e-12)


def test_hurwitz_first_order_cases():
    assert hurwitz(companion_from_coeffs([1.0]))  # eigenvalue -1
    assert not hurwitz(companion_from_coeffs([-1.0]))  # eigenvalue +1


def test_hurwitz_matches_routh_table():
    rng = np.random.default_rng(12)
    for _ in range(60):
        k = int(rng.integers(1, 5))
        w = rng.uniform(-2.0, 4.0, size=k)
        # char poly of the companion: s^k + w_k s^{k-1} + ... + w_1
        coeffs = np.concatenate([[1.0], w[::-1]])
        assert hurwitz(companion_from_coeffs(w)) == routh_stable(coeffs)


def test_config_rejects_non_hurwitz_w():
    plant = chain_preset(2)
    with pytest.raises(ValueError, match="Hurwitz"):
        EmbeddingConfig(plant=plant, w=(-1.0,))


def test_config_rejects_wrong_length():
    plant = chain_preset(3)
    with pytest.raises(ValueError):
        EmbeddingConfig(plant=plant, w=(1.0,))


def test_phi_at_origin(bb_cfg):
    z = phi_z(bb_cfg, np.zeros(4), np.zeros(3))
    assert np.all(z == 0.0)


def test_phi_zero_xi_gives_plain_coordinates(bb_cfg):
    x = np.array([0.4, -0.3, 0.2, 0.6])
    z = phi_z(bb_cfg, x, np.zeros(3))
    plant = bb_cfg.plant
    expected = [plant.lie_f_h[k](x) for k in range(4)]
    assert_allclose(z, expected, atol=1e-14)


def test_phi_ball_beam_third_coordinate(bb_cfg):
    b, g = BALL_BEAM_B, BALL_BEAM_G
    x = np.array([0.7, 0.1, 0.3, 0.5])
    xi = np.array([0.11, -0.2, 0.35])
    z = phi_z(bb_cfg, x, xi)
    assert_allclose(z[2], -b * g * math.sin(x[2]) + b * x[0] * x[3] ** 2 + xi[2], atol=1e-14)
    # Top coordinate subtracts the w-weighted xi.
    w = np.array(bb_cfg.w)
    assert_allclose(z[3], b * (x[1] * x[3] ** 2 - g * x[3] * math.cos(x[2])) - w @ xi,
                    atol=1e-14)


def test_r_at_origin_is_minus_bg(bb_cfg):
    assert_allclose(r_of_x(bb_cfg, np.zeros(4)), -BALL_BEAM_B * BALL_BEAM_G, atol=1e-12)
    assert_allclose(r_of_x(bb_cfg, np.zeros(4)), -7.0073, atol=1e-3)


def test_r_matches_ball_beam_closed_form(bb_cfg):
    b, g = BALL_BEAM_B, BALL_BEAM_G
    w3 = bb_cfg.w[2]
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, size=4)
        expected = 2.0 * b * x[1] * x[3] - b * g * math.cos(x[2]) + 2.0 * w3 * b * x[0] * x[3]
        assert_allclose(r_of_x(bb_cfg, x), expected, atol=1e-12)


def test_s_at_origin_vanishes(bb_cfg):
    assert s_of_x_xi(bb_cfg, np.zeros(4), np.zeros(3)) == 0.0


def test_s_matches_ball_beam_closed_form(bb_cfg):
    # s = -b^2 x4^2 (-g sin x3 + x1 x4^2) - b g x4^2 sin x3
    #     + w1 xi2 + w2 xi3 - w3 (w1 xi1 + w2 xi2 + w3 xi3)
    b, g = BALL_BEAM_B, BALL_BEAM_G
    w1, w2, w3 = bb_cfg.w
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, size=4)
        xi = rng.uniform(-1.0, 1.0, size=3)
        expected = (
            -b * b * x[3] ** 2 * (-g * math.sin(x[2]) + x[0] * x[3] ** 2)
            - b * g * x[3] ** 2 * math.sin(x[2])
            + w1 * xi[1] + w2 * xi[2]
            - w3 * (w1 * xi[0] + w2 * xi[1] + w3 * xi[2])
        )
        assert_allclose(s_of_x_xi(bb_cfg, x, xi), expected, atol=1e-12)


def test_small_w_reduces_r_to_plain_decoupling():
    # With w -> 0 the auxiliary sum drops out of r; tiny Hurwitz coefficients
    # (a+s)^3 with a = 1e-4 approximate that limit.
    plant = ball_beam_preset()[0]
    a = 1e-4
    cfg = EmbeddingConfig(plant=plant, w=(a**3, 3 * a**2, 3 * a))
    x = np.array([0.3, -0.2, 0.1, 0.8])
    assert_allclose(r_of_x(cfg, x), plant.lie_g_lie_f_h[3](x), rtol=1e-3)


def test_aux_rhs_unforced_is_companion(bb_cfg):
    xi = np.array([0.2, -0.4, 0.9])
    assert_allclose(aux_rhs(bb_cfg, np.zeros(4), xi, 0.0), bb_cfg.A_xi @ xi, atol=1e-14)
    assert_allclose(aux_rhs(bb_cfg, np.zeros(4), np.zeros(3), 0.0), 0.0, atol=0)


def test_aux_rhs_ball_beam_input_terms(bb_cfg):
    # Last row: -sum w_i xi_i - L_g L_f^2 h u with L_g L_f^2 h = 2 b x1 x4.
    b = BALL_BEAM_B
    x = np.array([0.5, 0.0, 0.0, 2.0])
    xi = np.array([0.1, 0.2, 0.3])
    u = 1.7
    dxi = aux_rhs(bb_cfg, x, xi, u)
    w = np.array(bb_cfg.w)
    assert_allclose(dxi[2], -w @ xi - 2.0 * b * x[0] * x[3] * u, atol=1e-14)
    # First two rows carry no input (L_g h = L_g L_f h = 0 for this plant).
    assert_allclose(dxi[:2], xi[1:], atol=1e-14)


def test_dynamic_feedback_origin(bb_cfg):
    assert dynamic_feedback(bb_cfg, np.zeros(4), np.zeros(3), 0.0) == 0.0


def test_dynamic_feedback_scales_by_r(bb_cfg):
    v = 2.5
    u = dynamic_feedback(bb_cfg, np.zeros(4), np.zeros(3), v)
    assert_allclose(u, v / (-BALL_BEAM_B * BALL_BEAM_G), atol=1e-12)


def test_dynamic_feedback_cancels_s(bb_cfg):
    x = np.array([0.4, 0.1, 0.2, 0.3])
    xi = np.array([0.05, -0.1, 0.2])
    assert dynamic_feedback(bb_cfg, x, xi, -s_of_x_xi(bb_cfg, x, xi)) == 0.0


def test_dynamic_feedback_singular(bb_cfg):
    # r = 2 b x2 x4 - b g cos x3 + 2 w3 b x1 x4 vanishes at this state.
    g = BALL_BEAM_G
    x = np.array([0.0, g / 2.0, 0.0, 1.0])
    assert abs(r_of_x(bb_cfg, x)) < 1e-9
    with pytest.raises(SingularEmbeddingError):
        dynamic_feedback(bb_cfg, x, np.zeros(3), 1.0)


def test_transform_trivial_demo(ball_beam_fixture):
    emb = ball_beam_fixture["embedded"][0]
    assert np.all(emb.z == 0.0) and np.all(emb.xi == 0.0) and np.all(emb.v == 0.0)


def test_transform_recovers_input(ball_beam_fixture):
    # v = r u - s inverts algebraically: u = (s + v) / r.
    cfg = ball_beam_fixture["cfg"]
    for raw, emb in zip(ball_beam_fixture["raw"], ball_beam_fixture["embedded"]):
        for k in range(0, len(raw.times), 500):
            u_rec = dynamic_feedback(cfg, raw.states[k], emb.xi[k], emb.v[k])
            assert abs(u_rec - raw.inputs[k]) < 1e-6


def test_transformed_demos_satisfy_chain_dynamics(ball_beam_fixture):
    # Central differences: dz_k/dt = z_{k+1}, dz_n/dt = v, within O(dt^2).
    for emb in ball_beam_fixture["embedded"]:
        dt = emb.times[1] - emb.times[0]
        scale = max(1.0, np.abs(emb.z).max(), np.abs(emb.v).max())
        dz = (emb.z[2:] - emb.z[:-2]) / (2.0 * dt)
        defect = np.max(np.abs(dz[:, :3] - emb.z[1:-1, 1:]))
        defect_top = np.max(np.abs(dz[:, 3] - emb.v[1:-1]))
        assert defect < 5e-4 * scale
        assert defect_top < 5e-4 * scale


def test_chain_defect_shrinks_at_second_order():
    # Recording at half the step should cut the finite-difference defect ~4x.
    from demostab.demos import record_expert
    from demostab.systems import ball_beam_expert

    plant, cfg = ball_beam_preset()
    expert = ball_beam_expert(plant)

    def worst_defect(dt):
        raw = record_expert(plant, expert, [np.array([1.0, 0.0, 0.0, 0.0])], T=1.0, dt=dt)
        emb = transform_demos(cfg, raw)[1]
        dz = (emb.z[2:] - emb.z[:-2]) / (2.0 * dt)
        return float(np.max(np.abs(dz[:, 3] - emb.v[1:-1])))

    ratio = worst_defect(2e-3) / worst_defect(1e-3)
    assert 3.0 < ratio < 5.0


def test_invert_phi_z_roundtrip(bb_cfg):
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5, size=4)
        xi = rng.uniform(-0.3, 0.3, size=3)
        z = phi_z(bb_cfg, x, xi)
        x_rec = invert_phi_z(bb_cfg, z, xi, x_guess=x + rng.normal(scale=0.05, size=4))
        assert_allclose(x_rec, x, atol=1e-8)


def test_a_w_zero_for_relative_degree_n():
    # A plant with L_g h = ... = L_g L_f^{n-2} h = 0 has no xi feedthrough.
    plant = chain_preset(3)
    cfg = EmbeddingConfig(plant=plant, w=(1.0, 2.0))
    Aw = a_w_numeric(cfg)
    assert np.max(np.abs(Aw)) < 1e-8


def test_a_w_ball_beam_rows_and_surrogate(bb_cfg):
    Aw = a_w_numeric(bb_cfg)
    # L_g h = L_g L_f h = 0, so the first two rows vanish.
    assert np.max(np.abs(Aw[:2])) < 1e-8
    assert hurwitz(bb_cfg.A_xi + Aw)


def test_a_w_step_size_robustness(bb_cfg):
    mats = [a_w_numeric(bb_cfg, eps=e) for e in (1e-4, 1e-5, 1e-6)]
    for other in mats[1:]:
        assert np.max(np.abs(other - mats[0])) < 1e-3


def test_embedded_closed_loop_zero_stays_zero(ball_beam_fixture):
    ctrl = LearnedController(build_basis(ball_beam_fixture["set"]))
    traj = simulate_embedded_closed_loop(
        ball_beam_fixture["cfg"], ctrl, np.zeros(4), np.zeros(3), duration=1.0, dt=1e-2
    )
    assert np.all(traj.x == 0.0) and np.all(traj.xi == 0.0)
    assert np.all(traj.v == 0.0) and np.all(traj.u == 0.0)


class _ReplayController:
    """Feeds back a recorded chain input (for the round-trip check)."""

    def __init__(self, times, v, A, B):
        self.times = times
        self.v = v
        self.T = float(times[-1])
        self.A, self.B = A, B
        self.m = 1

    def begin_interval(self, z):
        return None

    def eval_in_interval(self, anchor, tau, z):
        return np.array([np.interp(tau, self.times, self.v)])


def test_embedded_replay_reproduces_demonstration(ball_beam_fixture):
    # Feeding the transformed v^i back through the dynamic feedback from the
    # same start reproduces the recorded x^i.
    cfg = ball_beam_fixture["cfg"]
    eset = ball_beam_fixture["set"]
    raw = ball_beam_fixture["raw"][1]
    emb = ball_beam_fixture["embedded"][1]
    ctrl = _ReplayController(emb.times, emb.v, eset.A, eset.B)
    traj = simulate_embedded_closed_loop(cfg, ctrl, raw.states[0], np.zeros(3),
                                         duration=2.0, dt=1e-3)
    # Tolerance reflects the O(dt^2) interpolation of the replayed input.
    k = len(traj.times) - 1
    assert_allclose(traj.x[k], raw.states[k], atol=5e-5)
    assert_allclose(traj.xi[k], emb.xi[k], atol=5e-5)


def test_embedded_set_certificate(ball_beam_fixture):
    from demostab.certify import certificate

    cert = certificate(build_basis(ball_beam_fixture["set"]))
    assert cert.verdict


def test_transform_rejects_recordings_on_different_grids(ball_beam_fixture):
    raw = ball_beam_fixture["raw"]
    short = Trajectory(times=raw[1].times[:-1], states=raw[1].states[:-1],
                       inputs=raw[1].inputs[:-1])
    with pytest.raises(ValueError, match="one time grid"):
        transform_demos(ball_beam_fixture["cfg"], [raw[0], short])


def test_transform_matches_per_sample_formulas():
    # The last step of a 1.0005 s recording at dt = 1e-3 is shortened to 0.5 ms.
    # The three recordings (the trivial one first) are transformed as one
    # batch and compared one by one with the sample-by-sample oracle.
    from demostab.demos import record_expert
    from demostab.systems import ball_beam_expert

    plant, cfg = ball_beam_preset()
    raw = record_expert(plant, ball_beam_expert(plant),
                        [np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.0, 10.0])],
                        T=1.0005, dt=1e-3)
    assert raw[0].times[-1] - raw[0].times[-2] < 0.75e-3
    xi0 = np.array([0.1, -0.2, 0.05])
    for traj, emb in zip(raw, transform_demos(cfg, raw, xi0)):
        z, xi, v = transform_demo_per_sample(plant, cfg.w, traj.times, traj.states,
                                             traj.inputs, xi0)
        for got, want in ((emb.z, z), (emb.xi, xi), (emb.v, v)):
            assert got.shape == want.shape
            assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))
