"""Integrator-chain embedding: coordinate change, auxiliary dynamics, transforms."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from oracles import (aux_dot, charpoly, embedded_rk4, embedding_terms, routh_stable,
                     s_of_x_xi, stage_map, transform_demo_per_sample)

from demostab.embed import (
    R_TOL,
    EmbeddingConfig,
    a_w_numeric,
    aux_rhs,
    companion_from_coeffs,
    dynamic_feedback,
    hurwitz,
    invert_phi_z,
    phi_z,
    r_of_x,
    simulate_embedded_closed_loop,
    transform_demos,
)
from demostab.errors import DomainError, SingularEmbeddingError
from demostab.learner import AffineBasis, LearnedController, build_basis
from demostab.plant import chain_preset
from demostab.sim import time_grid
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
    expected = plant.terms(x)[8:12]  # L_f^k h, k = 0..3
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
    assert_allclose(r_of_x(cfg, x), plant.terms(x)[16], rtol=1e-3)  # L_g L_f^3 h


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
    eset, xi = ball_beam_fixture["set"], ball_beam_fixture["xi"]
    assert xi.shape == (len(eset.grid), 3, eset.M)
    assert np.all(eset.z[:, :, 0] == 0.0) and np.all(xi[:, :, 0] == 0.0)
    assert np.all(eset.v[:, :, 0] == 0.0)


def test_transform_recovers_input(ball_beam_fixture):
    # v = r u - s inverts algebraically: u = (s + v) / r.
    cfg, raw = ball_beam_fixture["cfg"], ball_beam_fixture["raw"]
    eset, xi = ball_beam_fixture["set"], ball_beam_fixture["xi"]
    for i in range(eset.M):
        for k in range(0, len(raw.times), 500):
            u_rec = dynamic_feedback(cfg, raw.states[k, :, i], xi[k, :, i], eset.v[k, 0, i])
            assert abs(u_rec - raw.inputs[k, i]) < 1e-6


def test_transformed_demos_satisfy_chain_dynamics(ball_beam_fixture):
    # Central differences: dz_k/dt = z_{k+1}, dz_n/dt = v, within O(dt^2).
    eset = ball_beam_fixture["set"]
    for i in range(eset.M):
        z, v = eset.z[:, :, i], eset.v[:, 0, i]
        scale = max(1.0, np.abs(z).max(), np.abs(v).max())
        dz = (z[2:] - z[:-2]) / (2.0 * eset.dt)
        defect = np.max(np.abs(dz[:, :3] - z[1:-1, 1:]))
        defect_top = np.max(np.abs(dz[:, 3] - v[1:-1]))
        assert defect < 5e-4 * scale
        assert defect_top < 5e-4 * scale


def test_chain_defect_shrinks_at_second_order():
    # Recording at half the step should cut the finite-difference defect ~4x.
    from demostab.demos import record_expert
    from demostab.cli import PRESETS
    from demostab.systems import ball_beam_expert

    plant, cfg = ball_beam_preset()
    preset = PRESETS["ball_beam"]
    expert = ball_beam_expert(plant, np.diag(preset.Q), preset.R)

    def worst_defect(dt):
        # The preset's starts make a set; the defect is read off (1, 0, 0, 0).
        raw = record_expert(plant, expert, [np.asarray(ic) for ic in preset.starts], T=1.0,
                            dt=dt)
        eset, _ = transform_demos(cfg, raw)
        z, v = eset.z[:, :, 1], eset.v[:, 0, 1]
        dz = (z[2:] - z[:-2]) / (2.0 * dt)
        return float(np.max(np.abs(dz[:, 3] - v[1:-1])))

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
        ball_beam_fixture["cfg"], ctrl, np.zeros(4), np.zeros(3), duration=1.0)
    assert np.all(traj.x == 0.0) and np.all(traj.xi == 0.0)
    assert np.all(traj.v == 0.0) and np.all(traj.u == 0.0)


def _replay_controller(times, v, n):
    """Learned controller that replays the chain input v(tau) on each interval.

    Its basis has Z = I and V = 0, so K = 0 and c = v_base: the law is
    v(tau) whatever the state, read from the K/c table like any basis.
    """
    G = len(times)
    basis = AffineBasis(index_set=tuple(range(n + 1)), times=np.asarray(times, dtype=float),
                        Zs=np.repeat(np.eye(n)[None], G, axis=0), Vs=np.zeros((G, 1, n)),
                        z_base=np.zeros((G, n)), v_base=np.asarray(v, dtype=float)[:, None])
    return LearnedController(basis)


def test_embedded_replay_reproduces_demonstration(ball_beam_fixture):
    # Feeding the transformed v^i back through the dynamic feedback from the
    # same start reproduces the recorded x^i.
    cfg, states = ball_beam_fixture["cfg"], ball_beam_fixture["raw"].states[:, :, 1]
    eset, xi = ball_beam_fixture["set"], ball_beam_fixture["xi"][:, :, 1]
    ctrl = _replay_controller(eset.grid, eset.v[:, 0, 1], 4)
    traj = simulate_embedded_closed_loop(cfg, ctrl, states[0], np.zeros(3),
                                         duration=2.0)
    # Tolerance reflects the O(dt^2) interpolation of the replayed input.
    k = len(traj.times) - 1
    assert_allclose(traj.x[k], states[k], atol=5e-5)
    assert_allclose(traj.xi[k], xi[k], atol=5e-5)


def test_embedded_set_certificate(ball_beam_fixture):
    from demostab.certify import certificate

    cert = certificate(build_basis(ball_beam_fixture["set"]))
    assert cert.verdict


def test_transform_matches_per_sample_formulas():
    # The five recordings (the trivial one first) are transformed as one
    # batch and compared one by one with the sample-by-sample oracle.
    from demostab.demos import record_expert
    from demostab.cli import PRESETS
    from demostab.systems import ball_beam_expert

    plant, cfg = ball_beam_preset()
    preset = PRESETS["ball_beam"]
    raw = record_expert(plant, ball_beam_expert(plant, np.diag(preset.Q), preset.R),
                        [np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.0, 10.0]),
                         np.array([0.0, 1.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.3, 0.0])],
                        T=1.0, dt=1e-3)
    eset, xis = transform_demos(cfg, raw)
    assert np.array_equal(eset.grid, raw.times)
    for i in range(eset.M):
        z, xi, v = transform_demo_per_sample(plant, cfg.w, raw.times, raw.states[:, :, i],
                                             raw.inputs[:, i], np.zeros(3))
        for got, want in ((eset.z[:, :, i], z), (xis[:, :, i], xi), (eset.v[:, 0, i], v)):
            assert got.shape == want.shape
            assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))


# The stage function against the term-by-term oracle and the dense stage map,
# one state or a batch (n, k).  chain2 has one w: xi of length 1, no xi[1:]
# drift rows and no shifted sum in s.
STAGE_CONFIGS = {"ball_beam": ball_beam_preset()[1],
                 "chain2": EmbeddingConfig(plant=chain_preset(2), w=(2.0,)),
                 "chain3": EmbeddingConfig(plant=chain_preset(3), w=(2.0, 3.0))}


def _stage_values(stage_out) -> list[float]:
    """z, r, s, drift and gain of one state's stage, flattened."""
    z, r, s, drift, gain = stage_out
    return [*z, r, s, *drift, *gain]


@pytest.mark.parametrize("name", sorted(STAGE_CONFIGS))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([None, 1, 5]))
def test_stage_function_matches_term_by_term_oracle(name, seed, k):
    cfg = STAGE_CONFIGS[name]
    plant, n = cfg.plant, cfg.n
    rng = np.random.default_rng(seed)
    shape = () if k is None else (k,)
    x = rng.uniform(-2.0, 2.0, (n,) + shape)
    if name == "ball_beam":
        x[2] = rng.uniform(-1.5, 1.5, shape)  # inside the domain |phi| < pi/2
    xi = rng.uniform(-2.0, 2.0, (n - 1,) + shape)
    v = rng.uniform(-5.0, 5.0, shape)
    p = plant.terms(x)
    if k is None:
        out = cfg.stage(p.tolist(), xi.tolist())
        assert all(type(q) is float for q in _stage_values(out))
    else:
        out = cfg.stage(p, xi)
    z, r, s, drift, gain = map(np.array, out)
    u = (s + v) / r
    dy = drift + gain * u
    # The dense map's one product gives the same terms.
    M = stage_map(cfg) @ np.concatenate([p, xi])
    for got, want in ((z, M[:n]), (r, M[n]), (s, M[n + 1]), (drift, M[n + 2:3 * n + 1]),
                      (gain, M[3 * n + 1:])):
        assert_allclose(got, want, rtol=0, atol=1e-13 * max(1.0, np.abs(want).max()))
    columns = [(x, xi, u)] if k is None else [(x[:, j], xi[:, j], u[j]) for j in range(k)]
    for j, (xj, xij, uj) in enumerate(columns):
        at = () if k is None else (slice(None), j)
        z_want, r_want, s_want = embedding_terms(plant, cfg.w, xj, xij)
        dy_want = np.concatenate([plant.rhs(xj, uj), aux_dot(plant, cfg.w, xj, xij, uj)])
        scale = max(1.0, np.abs(z_want).max(), abs(r_want), abs(s_want))
        assert_allclose(z[at], z_want, rtol=0, atol=1e-12 * scale)
        assert_allclose(r[at[1:]], r_want, rtol=0, atol=1e-12 * scale)
        assert_allclose(s[at[1:]], s_want, rtol=0, atol=1e-12 * scale)
        assert_allclose(dy[at], dy_want, rtol=0, atol=1e-12 * max(1.0, np.abs(dy_want).max()))
        if k is not None:  # one state on floats: the bits of its batch column
            single = cfg.stage(plant.terms(xj).tolist(), xij.tolist())
            column = [*z[:, j], r[j], s[j], *drift[:, j], *gain[:, j]]
            assert _stage_values(single) == column
    # The module's accessors read the same function.
    assert np.array_equal(phi_z(cfg, x, xi), z)
    assert np.array_equal(r_of_x(cfg, x), r)
    assert np.array_equal(s_of_x_xi(cfg, x, xi), s)
    assert np.array_equal(aux_rhs(cfg, x, xi, u), dy[n:])
    if k is None and abs(r) > R_TOL:
        assert dynamic_feedback(cfg, x, xi, v) == u


@pytest.mark.parametrize("x0, xi0, message", [
    (np.zeros((4, 2)), None, r"x0 must be shaped \(4,\), got \(4, 2\)"),
    (np.zeros(5), None, r"x0 must be shaped \(4,\), got \(5,\)"),
    (np.zeros(4), np.zeros((3, 2)), r"xi0 must be shaped \(3,\), got \(3, 2\)"),
    (np.zeros(4), np.zeros(4), r"xi0 must be shaped \(3,\), got \(4,\)"),
], ids=["x0_batch", "x0_length", "xi0_batch", "xi0_length"])
def test_embedded_loop_refuses_a_misshaped_start(ball_beam_fixture, x0, xi0, message):
    ctrl = LearnedController(build_basis(ball_beam_fixture["set"]))
    with pytest.raises(ValueError, match=message):
        simulate_embedded_closed_loop(ball_beam_fixture["cfg"], ctrl, x0, xi0, duration=1.0)


def test_readme_loop_interval_matches_term_by_term_rhs(ball_beam_fixture):
    # One 8 s interval from the README simulate start: the embedded loop
    # against the extended rhs evaluated term by term and stepped by the oracle.
    cfg, eset = ball_beam_fixture["cfg"], ball_beam_fixture["set"]
    ctrl = LearnedController(build_basis(eset), A=eset.A, B=eset.B)
    x0, xi0 = np.array([6.0, 0.0, 0.345, 0.0]), np.zeros(3)
    traj = simulate_embedded_closed_loop(cfg, ctrl, x0, xi0, duration=ctrl.T)
    want, _, _ = embedded_rk4(cfg.plant, cfg.w, ctrl, x0, xi0, ctrl.T, 1e-3)
    got = np.hstack([traj.x, traj.xi])
    assert got.shape == want.shape == (8001, 7)
    assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def _varying_chain2_controller(mode):
    """A chain2 controller on intervals of 0.05 s at dt = 0.01 whose law varies with tau.

    Z, V and both base terms are smooth in tau, so K(tau), c(tau) and the
    open-loop replay change within each interval and a misplaced anchor shows.
    """
    t = time_grid(0.0, 0.05, 0.01)
    Zs = (np.array([[1.0, 0.3], [-0.2, 1.0]])
          + np.multiply.outer(t, np.diag([1.0, 0.5])))
    basis = AffineBasis(index_set=(0, 1, 2), times=t, Zs=Zs,
                        Vs=np.stack([-1.0 - 10.0 * t, -2.0 + 20.0 * t], -1)[:, None, :],
                        z_base=np.stack([0.1 * t, np.full_like(t, -0.2)], -1),
                        v_base=np.sin(40.0 * t)[:, None])
    return LearnedController(basis, feedback_mode=mode)


@pytest.mark.parametrize("mode", ["closed_loop", "open_loop"])
@pytest.mark.parametrize("duration", [0.15, 0.17, 0.175],
                         ids=["on_a_boundary", "inside_an_interval", "shortened_step"])
def test_whole_run_matches_the_term_by_term_oracle(mode, duration):
    # Three intervals of the unit-speed chain2 embedding, ending on the
    # boundary 3T (a zero-step interval re-anchors there) or 2 dt later,
    # against the oracle's own interval loop; 2.5 dt later, in a shortened
    # step, is no whole number of steps and is refused.
    cfg, ctrl = _unit_speed_chain2(), _varying_chain2_controller(mode)
    x0, xi0 = np.array([0.4, -0.3]), np.array([0.2])
    if duration == 0.175:
        with pytest.raises(ValueError, match="whole multiple"):
            simulate_embedded_closed_loop(cfg, ctrl, x0, xi0, duration=duration)
        return
    traj = simulate_embedded_closed_loop(cfg, ctrl, x0, xi0, duration=duration)
    states, v, u = embedded_rk4(cfg.plant, cfg.w, ctrl, x0, xi0, duration, 0.01)
    assert len(traj.times) == len(states) == round(duration / 0.01) + 1
    for got, want in ((np.hstack([traj.x, traj.xi]), states), (traj.v, v), (traj.u, u)):
        assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_table_slot_read_matches_value_bit_for_bit(ball_beam_fixture):
    # A run of 0.5005 s would end in a shortened step whose last stages,
    # off the slots, read basis.value(tau, z): it is refused, and every run
    # reads the slots at round(2 tau / dt), so a 0.5 s run is bit for bit
    # the first 501 samples of a 1 s run.
    cfg, ctrl = ball_beam_fixture["cfg"], LearnedController(build_basis(ball_beam_fixture["set"]))
    x0, xi0 = np.array([6.0, 0.0, 0.345, 0.0]), np.zeros(3)
    with pytest.raises(ValueError, match=r"0\.5005 is not a whole multiple of dt=0\.001"):
        simulate_embedded_closed_loop(cfg, ctrl, x0, xi0, duration=0.5005)
    short = simulate_embedded_closed_loop(cfg, ctrl, x0, xi0, duration=0.5)
    long = simulate_embedded_closed_loop(cfg, ctrl, x0, xi0, duration=1.0)
    assert len(short.times) == 501 and len(long.times) == 1001
    for got, want in ((short.x, long.x), (short.xi, long.xi), (short.v, long.v),
                      (short.u, long.u)):
        assert np.array_equal(got, want[:501])


@pytest.mark.parametrize("mode", ["closed_loop", "open_loop"])
@pytest.mark.parametrize("duration", [0.15, 0.17, 0.175],
                         ids=["on_a_boundary", "inside_an_interval", "shortened_step"])
def test_both_laws_are_read_off_the_slot_table(mode, duration, monkeypatch):
    # Both feedback modes read AffineBasis.law's slot table at every stage,
    # and neither calls value or value_from_zeta.  A shortened final step
    # (0.175 s), whose middle stages would fall between two slots, is
    # refused before any stage runs.
    calls = []
    for name in ("value", "value_from_zeta"):
        def counted(self, *args, name=name, original=getattr(AffineBasis, name)):
            calls.append(name)
            return original(self, *args)

        monkeypatch.setattr(AffineBasis, name, counted)
    cfg, ctrl = _unit_speed_chain2(), _varying_chain2_controller(mode)
    x0, xi0 = np.array([0.4, -0.3]), np.array([0.2])
    if duration == 0.175:
        with pytest.raises(ValueError, match="whole multiple"):
            simulate_embedded_closed_loop(cfg, ctrl, x0, xi0, duration=duration)
    else:
        simulate_embedded_closed_loop(cfg, ctrl, x0, xi0, duration=duration)
    assert calls == []


@pytest.mark.parametrize("mode", ["closed_loop", "open_loop"])
def test_multi_controller_group_drives_the_loop_as_its_basis(ball_beam_fixture, mode):
    # n+1 demonstrations triangulate into one simplex: the multi controller's
    # one group is the single-basis controller's basis.
    from demostab.multi import MultiController

    cfg, eset = ball_beam_fixture["cfg"], ball_beam_fixture["set"]
    multi = MultiController(eset, feedback_mode=mode)
    assert multi.P == 1
    x0, xi0 = np.array([6.0, 0.0, 0.345, 0.0]), np.zeros(3)
    runs = [simulate_embedded_closed_loop(cfg, ctrl, x0, xi0, duration=1.0)
            for ctrl in (LearnedController(build_basis(eset), feedback_mode=mode), multi)]
    for name in ("x", "xi", "v", "u"):
        want, got = (getattr(run, name) for run in runs)
        assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


def _zero_controller(T, dt, n=2):
    """Chain input v = 0 on intervals of length T, tabulated at dt."""
    times = time_grid(0.0, T, dt)
    return _replay_controller(times, np.zeros(len(times)), n)


def test_stage_outside_the_domain_carries_its_time(ball_beam_fixture):
    # The start passes rk4's grid-point domain guard at t = 0; dphi/dt = omega = 1 takes
    # the beam angle past pi/2 at the first midpoint stage.
    x0 = np.array([0.0, 0.0, math.pi / 2 - 1e-6, 1.0])
    ctrl = LearnedController(build_basis(ball_beam_fixture["set"]))
    with pytest.raises(DomainError) as err:
        simulate_embedded_closed_loop(ball_beam_fixture["cfg"], ctrl, x0, np.zeros(3),
                                      duration=1.0)
    assert err.value.time == pytest.approx(5e-4, rel=0, abs=1e-15)
    assert "at t=0.000500" in str(err.value)


def _unit_speed_chain2(**changes):
    # chain2 embedded with w = (1,): under v = 0 from x = (0, 1), xi = 0 the
    # input u = (s + v) / r stays 0, so x_1 = t, x_2 = 1 and xi = 0.
    return EmbeddingConfig(plant=dataclasses.replace(chain_preset(2), **changes), w=(1.0,))


def test_stage_failures_carry_the_absolute_time():
    # Intervals of 2 ms: the failures fall in interval 5, which starts at 0.010.
    ctrl, x0 = _zero_controller(2e-3, 1e-3), np.array([0.0, 1.0])
    # x_1 < 0.0104 holds at the grid point 0.010 and fails at its midpoint stage.
    cfg = _unit_speed_chain2(domain_check=lambda x: np.isfinite(x).all(axis=0) & (x[0] < 0.0104))
    with pytest.raises(DomainError) as err:
        simulate_embedded_closed_loop(cfg, ctrl, x0, np.zeros(1), duration=0.02)
    assert err.value.time == pytest.approx(0.0105, rel=0, abs=1e-12)

    # r = L_g L_f h + w L_g h, with L_g L_f h (row 8 of the chain2 terms)
    # replaced by 1 - 100 x_1, vanishes at the grid point 0.010, the first
    # stage of interval 5.
    def terms(x):
        out = chain_preset(2).terms(x)
        out[8] = 1.0 - 100.0 * x[0]
        return out

    with pytest.raises(SingularEmbeddingError) as err:
        simulate_embedded_closed_loop(_unit_speed_chain2(terms=terms), ctrl, x0, np.zeros(1),
                                      duration=0.02)
    assert err.value.time == pytest.approx(0.010, rel=0, abs=1e-12)
    assert "at t=0.010000" in str(err.value)


def _recording_chain2(seen, bound=np.inf):
    """The unit-speed chain2 embedding with x_1 < bound as its domain.

    Every state the domain test sees is appended to seen, and every terms
    call appends None.
    """
    base = chain_preset(2)

    def inside(x):
        seen.append(np.array(x))
        return bool(np.isfinite(x).all() and x[0] < bound)

    def terms(x):
        seen.append(None)
        return base.terms(x)

    return _unit_speed_chain2(domain_check=inside, terms=terms)


def test_embedded_loop_tests_each_stage_and_anchor_state_once():
    # 20 steps in intervals of 2 steps: 4 stages per step, and each of the
    # 11 intervals (the zero-step one at 0.020 among them) adds one stage at
    # its last grid point, each one domain test and one terms call.  The
    # anchor is read off an interval's first stage, and rk4 adds no
    # grid-point test of its own.
    seen = []
    traj = simulate_embedded_closed_loop(_recording_chain2(seen), _zero_controller(2e-3, 1e-3),
                                         np.array([0.0, 1.0]), np.zeros(1), duration=0.02)
    steps, intervals = len(traj.times) - 1, len(range(0, 21, 2))
    tests = [x for x in seen if x is not None]
    assert len(tests) == len(seen) - len(tests) == 4 * steps + intervals == 91
    # Pairs: every domain test is followed by the terms call of the same stage.
    assert all(a is not None and b is None for a, b in zip(seen[0::2], seen[1::2]))


# With v(tau) = 50 - 1000 tau falling through each 0.1 s interval, an RK4
# step of x_1' = x_2, x_2' = v ends beyond every one of its stage states, by
# h^2 (v(tau) - v(tau + h/2)) / 6: a bound between the two is first crossed
# by a committed grid state.
@pytest.mark.parametrize("k", [15, 20], ids=["inside an interval", "interval start"])
def test_committed_state_outside_the_domain_fails_at_its_grid_time(k):
    dt, T = 0.01, 0.1
    times = time_grid(0.0, T, dt)
    ctrl = _replay_controller(times, 50.0 - 1000.0 * times, 2)
    x0, xi0 = np.array([0.0, 1.0]), np.zeros(1)
    seen = []
    free = simulate_embedded_closed_loop(_recording_chain2(seen), ctrl, x0, xi0, duration=0.3)
    tests = [x for x in seen if x is not None]
    first = next(i for i, x in enumerate(tests) if np.array_equal(x, free.x[k]))
    before = max(x[0] for x in tests[:first])
    assert before < free.x[k, 0]
    bound = 0.5 * (before + free.x[k, 0])
    with pytest.raises(DomainError) as err:
        simulate_embedded_closed_loop(_recording_chain2([], bound), ctrl, x0, xi0, duration=0.3)
    t = free.times[k]
    assert err.value.time == pytest.approx(t, rel=0, abs=1e-12)
    # The line rk4's grid-point guard wrote for this state.
    assert str(err.value) == f"state {free.x[k]} is outside the domain of chain2 at t={t:.6f}"
