"""Integrator-chain embedding: coordinate change, auxiliary dynamics, transforms."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from oracles import (aux_dot, aux_states_rk4, charpoly, embedded_rk4, embedding_terms,
                     routh_stable, s_of_x_xi, stage_map, transform_demo_per_sample)
from test_plant import EDGE_ENTRIES

from demostab.embed import (
    R_TOL,
    EmbeddingConfig,
    a_w_numeric,
    companion_from_coeffs,
    hurwitz,
    simulate_embedded_closed_loop,
    transform_demos,
)
from demostab.errors import DomainError, SingularEmbeddingError
from demostab.learner import AffineBasis, LearnedController, build_basis
from demostab.plant import PlantModel, PlantSource, chain_preset
from demostab.sim import time_grid
from demostab.systems import BALL_BEAM_B, BALL_BEAM_G, ball_beam_preset


@pytest.fixture(scope="module")
def bb_cfg():
    return ball_beam_preset()[1]


def chain_plant(n: int, domain: str = "", rows: dict | None = None) -> PlantModel:
    """chain<n> with its terms and domain (every entry finite) stated as a PlantSource.

    domain, if given, is joined to the predicate with &, and rows replaces
    the term rows at the given indices.
    """
    x = [f"x{i}" for i in range(n)]
    terms = x[1:] + ["0.0"] * n + ["1.0"] + x + ["0.0"] * n + ["1.0"]
    for i, row in (rows or {}).items():
        terms[i] = row
    source = PlantSource(state=tuple(x), constants=(), helpers=(), terms=tuple(terms),
                         domain=" & ".join([f"isfinite({v})" for v in x]
                                           + ([f"({domain})"] if domain else [])))
    return dataclasses.replace(chain_preset(n), terms=None, domain_check=None, source=source)


def stage_at(cfg, x, xi):
    """cfg.stage at one state (x, xi): (z, r, s, drift, gain) on Python floats."""
    return cfg.stage(cfg.plant.terms(np.asarray(x, dtype=float)).tolist(),
                     list(map(float, xi)))


def called_field(cfg):
    """cfg.loop_field as a composition of calls: the domain test and plant.terms of x
    as a one-column batch, on NumPy rows, then cfg.stage on that column's rows and xi,
    the law v = Gj y' + gj summed left to right, u = (s + v) / r and drift + gain u,
    all on Python floats."""
    plant, n = cfg.plant, cfg.n

    def field(y, Gj, gj, zeta, begin=None):
        x = np.array(y[:n])[:, None]
        if not plant.domain_check(x)[0]:
            return None, None, None, None
        with np.errstate(all="ignore"):
            p = plant.terms(x)[:, 0].tolist()
        z, r, s, drift, gain = cfg.stage(p, y[n:])
        if begin is not None:
            Gj, gj, zeta = begin(z)
        law = z if zeta is None else zeta
        v = Gj[0] * law[0]
        for G, q in zip(Gj[1:], law[1:]):
            v += G * q
        v += gj
        if abs(r) <= R_TOL:
            return None, r, v, None
        u = (s + v) / r
        return tuple(a + b * u for a, b in zip(drift, gain)), r, v, u

    return field


# The README ball-beam embedding two ways: "inlined", as built, its plant's
# source written into loop_field, and "called", a copy whose loop_field is
# called_field.
BB_PATHS = {"inlined": ball_beam_preset()[1]}
BB_PATHS["called"] = dataclasses.replace(BB_PATHS["inlined"])
object.__setattr__(BB_PATHS["called"], "loop_field", called_field(BB_PATHS["called"]))


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
    plant = chain_plant(2)
    with pytest.raises(ValueError, match="Hurwitz"):
        EmbeddingConfig(plant=plant, w=(-1.0,))


def test_config_rejects_wrong_length():
    plant = chain_plant(3)
    with pytest.raises(ValueError, match="need n-1 = 2 coefficients w, got 1"):
        EmbeddingConfig(plant=plant, w=(1.0,))


def test_config_rejects_a_plant_without_a_source():
    # The embedding writes the plant's terms into its closed-loop field: a
    # plant given only as callables, as chain<N> is, has none to write.
    with pytest.raises(ValueError, match="chain2 has no source"):
        EmbeddingConfig(plant=chain_preset(2), w=(1.0,))


def test_phi_at_origin(bb_cfg):
    z = stage_at(bb_cfg, np.zeros(4), np.zeros(3))[0]
    assert np.all(np.array(z) == 0.0)


def test_phi_zero_xi_gives_plain_coordinates(bb_cfg):
    x = np.array([0.4, -0.3, 0.2, 0.6])
    z = stage_at(bb_cfg, x, np.zeros(3))[0]
    plant = bb_cfg.plant
    expected = plant.terms(x)[8:12]  # L_f^k h, k = 0..3
    assert_allclose(z, expected, atol=1e-14)


def test_phi_ball_beam_third_coordinate(bb_cfg):
    b, g = BALL_BEAM_B, BALL_BEAM_G
    x = np.array([0.7, 0.1, 0.3, 0.5])
    xi = np.array([0.11, -0.2, 0.35])
    z = stage_at(bb_cfg, x, xi)[0]
    assert_allclose(z[2], -b * g * math.sin(x[2]) + b * x[0] * x[3] ** 2 + xi[2], atol=1e-14)
    # Top coordinate subtracts the w-weighted xi.
    w = np.array(bb_cfg.w)
    assert_allclose(z[3], b * (x[1] * x[3] ** 2 - g * x[3] * math.cos(x[2])) - w @ xi,
                    atol=1e-14)


def test_r_at_origin_is_minus_bg(bb_cfg):
    r = stage_at(bb_cfg, np.zeros(4), np.zeros(3))[1]
    assert_allclose(r, -BALL_BEAM_B * BALL_BEAM_G, atol=1e-12)
    assert_allclose(r, -7.0073, atol=1e-3)


def test_r_matches_ball_beam_closed_form(bb_cfg):
    b, g = BALL_BEAM_B, BALL_BEAM_G
    w3 = bb_cfg.w[2]
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, size=4)
        expected = 2.0 * b * x[1] * x[3] - b * g * math.cos(x[2]) + 2.0 * w3 * b * x[0] * x[3]
        assert_allclose(stage_at(bb_cfg, x, np.zeros(3))[1], expected, atol=1e-12)


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
    assert_allclose(stage_at(cfg, x, np.zeros(3))[1], plant.terms(x)[16],
                    rtol=1e-3)  # L_g L_f^3 h


def test_aux_rhs_unforced_is_companion(bb_cfg):
    # Under u = 0 the auxiliary rows of the extended field are drift[4:].
    xi = np.array([0.2, -0.4, 0.9])
    assert_allclose(stage_at(bb_cfg, np.zeros(4), xi)[3][4:], bb_cfg.A_xi @ xi, atol=1e-14)
    assert_allclose(stage_at(bb_cfg, np.zeros(4), np.zeros(3))[3][4:], 0.0, atol=0)


def test_aux_rhs_ball_beam_input_terms(bb_cfg):
    # Last row: -sum w_i xi_i - L_g L_f^2 h u with L_g L_f^2 h = 2 b x1 x4.
    b = BALL_BEAM_B
    x = np.array([0.5, 0.0, 0.0, 2.0])
    xi = np.array([0.1, 0.2, 0.3])
    u = 1.7
    _, _, _, drift, gain = stage_at(bb_cfg, x, xi)
    dxi = np.array(drift[4:]) + np.array(gain[4:]) * u
    w = np.array(bb_cfg.w)
    assert_allclose(dxi[2], -w @ xi - 2.0 * b * x[0] * x[3] * u, atol=1e-14)
    # First two rows carry no input (L_g h = L_g L_f h = 0 for this plant).
    assert_allclose(dxi[:2], xi[1:], atol=1e-14)


def test_dynamic_feedback_origin(bb_cfg):
    _, r, s, _, _ = stage_at(bb_cfg, np.zeros(4), np.zeros(3))
    assert (s + 0.0) / r == 0.0


def test_dynamic_feedback_scales_by_r(bb_cfg):
    v = 2.5
    _, r, s, _, _ = stage_at(bb_cfg, np.zeros(4), np.zeros(3))
    u = (s + v) / r
    assert_allclose(u, v / (-BALL_BEAM_B * BALL_BEAM_G), atol=1e-12)


def test_dynamic_feedback_cancels_s(bb_cfg):
    x = np.array([0.4, 0.1, 0.2, 0.3])
    xi = np.array([0.05, -0.1, 0.2])
    _, r, s, _, _ = stage_at(bb_cfg, x, xi)
    assert (s - s_of_x_xi(bb_cfg, x, xi)) / r == 0.0


@pytest.mark.parametrize("path", sorted(BB_PATHS))
def test_dynamic_feedback_singular(ball_beam_fixture, path):
    # r = 2 b x2 x4 - b g cos x3 + 2 w3 b x1 x4 vanishes at this state: the
    # embedded loop started there fails at its first stage, inlined or called.
    g, cfg = BALL_BEAM_G, BB_PATHS[path]
    x = np.array([0.0, g / 2.0, 0.0, 1.0])
    r = stage_at(cfg, x, np.zeros(3))[1]
    assert abs(r) < 1e-9
    ctrl = LearnedController(build_basis(ball_beam_fixture["set"]))
    with pytest.raises(SingularEmbeddingError) as err:
        simulate_embedded_closed_loop(cfg, ctrl, x, np.zeros(3), duration=1.0)
    assert type(err.value) is SingularEmbeddingError and err.value.time == 0.0
    assert str(err.value) == f"r(x) = {r:.3e} at x={x} at t=0.000000"


def test_transform_trivial_demo(ball_beam_fixture):
    eset, xi = ball_beam_fixture["set"], ball_beam_fixture["xi"]
    assert xi.shape == (len(eset.grid), 3, eset.M)
    assert np.all(eset.z[:, :, 0] == 0.0) and np.all(xi[:, :, 0] == 0.0)
    assert np.all(eset.v[:, :, 0] == 0.0)


def test_aux_states_match_stage_by_stage_rk4(ball_beam_fixture):
    # The composed RK4 maps against rk4 stepping xi stage by stage on the README
    # ball-beam recording, relative to each column's largest magnitude.
    got = ball_beam_fixture["xi"]
    want = aux_states_rk4(ball_beam_fixture["cfg"], ball_beam_fixture["raw"])
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max(axis=0))


def test_transform_domain_failure_names_demonstration_and_sample(ball_beam_fixture):
    # The beam angle phi = 2.0 > pi/2 at sample 40 of recording 3.
    raw = ball_beam_fixture["raw"]
    states = raw.states.copy()
    states[40, 2, 3] = 2.0
    batch = dataclasses.replace(raw, states=states)
    with pytest.raises(DomainError, match="outside the domain of ball_beam") as err:
        transform_demos(ball_beam_fixture["cfg"], batch)
    assert err.value.__notes__ == ["demonstration 3, sample 40"]


def test_transform_recovers_input(ball_beam_fixture):
    # v = r u - s inverts algebraically: u = (s + v) / r.
    cfg, raw = ball_beam_fixture["cfg"], ball_beam_fixture["raw"]
    eset, xi = ball_beam_fixture["set"], ball_beam_fixture["xi"]
    for i in range(eset.M):
        for k in range(0, len(raw.times), 500):
            _, r, s, _, _ = stage_at(cfg, raw.states[k, :, i], xi[k, :, i])
            u_rec = (s + eset.v[k, 0, i]) / r
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


def test_a_w_zero_for_relative_degree_n():
    # A plant with L_g h = ... = L_g L_f^{n-2} h = 0 has no xi feedthrough.
    cfg = EmbeddingConfig(plant=chain_plant(3), w=(1.0, 2.0))
    Aw = a_w_numeric(cfg)
    assert np.max(np.abs(Aw)) < 1e-8


def test_a_w_ball_beam_rows_and_surrogate(bb_cfg):
    Aw = a_w_numeric(bb_cfg)
    # L_g h = L_g L_f h = 0, so the first two rows vanish.
    assert np.max(np.abs(Aw[:2])) < 1e-8
    assert hurwitz(bb_cfg.A_xi + Aw)


def linear_plant(A, b, c) -> PlantModel:
    """dx/dt = A x + b u with output c x: terms stacks A x, b, c A^k x and c A^k b,
    each row written out as its nonzero coefficients times x, plus its constant."""
    A, b, c = (np.asarray(a, dtype=float) for a in (A, b, c))
    n = len(b)
    cA = np.array([c @ np.linalg.matrix_power(A, k) for k in range(n + 1)])
    M = np.vstack([A, np.zeros((n, n)), cA, np.zeros((n, n))])
    const = np.concatenate([np.zeros(n), b, np.zeros(n + 1), cA[:n] @ b])
    x = [f"x{j}" for j in range(n)]
    rows = [" + ".join([f"{float(a)!r} * {v}" for a, v in zip(coeffs, x) if a]
                       + [repr(float(k))]) for coeffs, k in zip(M, const)]
    source = PlantSource(state=tuple(x), constants=(), helpers=(), terms=tuple(rows),
                         domain=" & ".join(f"isfinite({v})" for v in x))
    return PlantModel(n=n, f=lambda x: A @ x,
                      g=lambda x: np.multiply.outer(b, np.ones(x.shape[1:])), name="linear",
                      source=source)


def linear3_cfg() -> EmbeddingConfig:
    # c b = 0 and c A b = 1: relative degree 2 in a 3-state plant.
    A = companion_from_coeffs([1.0, 2.0, 0.5])
    return EmbeddingConfig(plant=linear_plant(A, [0.0, 1.0, 0.3], [1.0, 0.0, 0.0]), w=(2.0, 3.0))


def test_a_w_linear_plant_closed_form():
    # On z = 0: x = (-xi_1, -xi_2, 2 xi_1 + 3 xi_2), s = -6 xi_1 - 7.5 xi_2 and
    # r = c A^2 b + 3 c A b = 3.3.  The first auxiliary row has no input term
    # (c b = 0); the second adds -(c A b) s / r = (20 xi_1 + 25 xi_2) / 11.
    Aw = a_w_numeric(linear3_cfg())
    assert np.max(np.abs(Aw - np.array([[0.0, 0.0], [20.0 / 11.0, 25.0 / 11.0]]))) < 1e-10


def test_a_w_singular_at_the_origin():
    # chain2 with L_g L_f h = 1e-7: r = L_g L_f h + w L_g h is below R_TOL.
    cfg = EmbeddingConfig(plant=chain_plant(2, rows={8: "1e-07"}), w=(1.0,))
    with pytest.raises(SingularEmbeddingError, match="A_w is undefined"):
        a_w_numeric(cfg)


def test_a_w_step_size_robustness(bb_cfg):
    for cfg in (bb_cfg, linear3_cfg()):
        mats = [a_w_numeric(cfg, eps=e) for e in (1e-4, 1e-5, 1e-6)]
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
                 "chain2": EmbeddingConfig(plant=chain_plant(2), w=(2.0,)),
                 "chain3": EmbeddingConfig(plant=chain_plant(3), w=(2.0, 3.0))}


def _stage_values(stage_out) -> list[float]:
    """z, r, s, drift and gain of one state's stage, flattened."""
    z, r, s, drift, gain = stage_out
    return [*z, r, s, *drift, *gain]


def _bits(values) -> list[str]:
    return [float(q).hex() for q in values]


@pytest.mark.parametrize("name", sorted(STAGE_CONFIGS))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([None, 1, 5]), frozen=st.booleans())
def test_stage_function_matches_term_by_term_oracle(name, seed, k, frozen):
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
        p_j = plant.terms(xj).tolist()
        single = cfg.stage(p_j, xij.tolist())
        if k is not None:  # one state on floats: the bits of its batch column
            column = [*z[:, j], r[j], s[j], *drift[:, j], *gain[:, j]]
            assert _stage_values(single) == column
        # The closed-loop field: the stage, the law G y + g summed left to
        # right with y = z or a frozen zeta, u = (s + v) / r and drift + gain u.
        z_j, r_j, s_j, drift_j, gain_j = single
        G, g = rng.uniform(-3.0, 3.0, n).tolist(), float(rng.uniform(-3.0, 3.0))
        zeta = rng.uniform(-2.0, 2.0, n).tolist() if frozen else None
        law = z_j if zeta is None else zeta
        v_j = G[0] * law[0]
        for i in range(1, n):
            v_j += G[i] * law[i]
        v_j += g
        u_j = (s_j + v_j) / r_j
        y = xj.tolist() + xij.tolist()
        dy_j, r_got, v_got, u_got = cfg.loop_field(y, G, g, zeta)
        assert type(dy_j) is tuple
        assert _bits([*dy_j, r_got, v_got, u_got]) == _bits(
            [*(a + b * u_j for a, b in zip(drift_j, gain_j)), r_j, v_j, u_j])
        # With r = 0 (its last term set to minus the sum of the others) the
        # field returns no derivative and no input: a plant whose rows are
        # these terms as constants.
        p_j[4 * n] = 0.0
        p_j[4 * n] = -cfg.stage(p_j, xij.tolist())[1]
        constant = dataclasses.replace(plant.source, helpers=(), terms=tuple(map(repr, p_j)))
        singular = EmbeddingConfig(plant=dataclasses.replace(plant, terms=None, domain_check=None,
                                                             source=constant), w=cfg.w)
        assert singular.loop_field(y, G, g, zeta) == (None, 0.0, v_j, None)


def _field_bits(out) -> list:
    """loop_field's (dy/dt, r, v, u) with each float as its hex and None kept."""
    dy, *rest = out
    return [None if dy is None else _bits(dy), *(None if q is None else float(q).hex()
                                                 for q in rest)]


_PHI_EDGES = [s * np.nextafter(math.pi / 2, e) for s in (1.0, -1.0) for e in (0.0, 4.0)]


@settings(max_examples=150, deadline=None)
@given(y=st.lists(EDGE_ENTRIES, min_size=7, max_size=7),
       law=st.lists(EDGE_ENTRIES, min_size=9, max_size=9), frozen=st.booleans(),
       first=st.booleans())
# phi one ulp inside and outside +-pi/2, the other entries in the domain.
@example(y=[6.0, 0.0, _PHI_EDGES[0], 1.0, 0.1, -0.2, 0.3], law=[1.0] * 9, frozen=False,
         first=True)
@example(y=[6.0, 0.0, _PHI_EDGES[1], 1.0, 0.1, -0.2, 0.3], law=[1.0] * 9, frozen=False,
         first=False)
@example(y=[6.0, 0.0, _PHI_EDGES[2], 1.0, 0.1, -0.2, 0.3], law=[1.0] * 9, frozen=True,
         first=False)
@example(y=[6.0, 0.0, _PHI_EDGES[3], 1.0, 0.1, -0.2, 0.3], law=[1.0] * 9, frozen=True,
         first=True)
# omega = 2.759: pow(2.759, 2) rounds one ulp below 2.759 * 2.759.
@example(y=[6.0, 0.0, 0.345, 2.759, 0.1, -0.2, 0.3], law=[1.0] * 9, frozen=False, first=False)
# Non-finite and huge entries, and -0.0, in x, xi and the law.
@example(y=[math.inf, 0.0, 0.3, 1.0, 0.0, 0.0, 0.0], law=[1.0] * 9, frozen=False, first=True)
@example(y=[0.0, -math.inf, 0.3, 1.0, 0.0, 0.0, 0.0], law=[1.0] * 9, frozen=False, first=False)
@example(y=[0.0, 0.0, math.nan, 1.0, 0.0, 0.0, 0.0], law=[1.0] * 9, frozen=False, first=False)
@example(y=[-0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0], law=[-0.0] * 9, frozen=True,
         first=True)
@example(y=[1e200, -1e200, 0.3, 1e200, 1e200, -1e200, 1e200], law=[1e200] * 9, frozen=False,
         first=False)
@example(y=[1.0, 2.0, 0.3, 1.0, math.inf, math.nan, 0.0], law=[math.inf] * 9, frozen=True,
         first=False)
# u = inf: each zero row of g times u is nan, so f + g u is nan there too.
@example(y=[1.0, 2.0, 0.3, 1.0, 0.1, 0.2, 0.0], law=[math.inf] * 9, frozen=True, first=False)
# r = 0 exactly: 2 b x2 x4 - b g cos x3 with x2 = g / 2, x4 = 1, and x1 = xi = 0.
@example(y=[0.0, BALL_BEAM_G / 2.0, 0.0, 1.0, 0.0, 0.0, 0.0], law=[1.0] * 9, frozen=False,
         first=True)
def test_inlined_loop_field_is_the_called_composition(y, law, frozen, first):
    # The ball-beam loop_field, the plant's source written in and run on
    # Python floats, against called_field, which reads the terms on NumPy
    # rows of a one-column batch: the same derivative, r, v and u to the bit,
    # the same chain state handed to an interval's begin, or the same failure
    # (None for dy/dt and u, and None for r outside the domain).
    y, law = [float(q) for q in y], [float(q) for q in law]  # as rk4 hands them: no NumPy scalars
    G, g, zeta = law[:4], law[4], law[5:] if frozen else None
    got = {}
    for path, cfg in BB_PATHS.items():
        seen = []

        def begin(z):
            seen.append(_bits(z))
            return G, g, zeta

        args = (None, None, None, begin) if first else (G, g, zeta)
        got[path] = _field_bits(cfg.loop_field(y, *args)), seen
    assert got["inlined"] == got["called"]


def test_inlined_field_drops_no_zero_term():
    # g = e_4 and L_g h = L_g L_f h = 0, yet each f_i + g_i u and xi' row keeps
    # its multiply and add: with u = inf those rows are nan (0.0 * inf).
    y = [1.0, 2.0, 0.3, 1.0, 0.1, 0.2, 0.0]
    dy, _, _, u = BB_PATHS["inlined"].loop_field(y, [math.inf] * 4, math.inf, [math.inf] * 4)
    assert u == math.inf and dy[3] == math.inf and dy[6] == -math.inf
    assert all(math.isnan(q) for q in dy[:3] + dy[4:6])


@pytest.mark.parametrize("mode", ["closed_loop", "open_loop"])
def test_readme_interval_is_the_same_bytes_inlined_and_called(ball_beam_fixture, mode):
    # One 8 s interval from the README start, through the inlined loop_field
    # and through called_field: x, xi, v and u byte for byte.
    eset = ball_beam_fixture["set"]
    ctrl = LearnedController(build_basis(eset), A=eset.A, B=eset.B, feedback_mode=mode)
    x0 = np.array([6.0, 0.0, 0.345, 0.0])
    inlined, called = (simulate_embedded_closed_loop(BB_PATHS[path], ctrl, x0, np.zeros(3),
                                                     duration=ctrl.T)
                       for path in ("inlined", "called"))
    assert len(inlined.times) == 8001
    for name in ("x", "xi", "v", "u"):
        assert getattr(inlined, name).tobytes() == getattr(called, name).tobytes(), name


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


@pytest.mark.parametrize("path", sorted(BB_PATHS))
def test_stage_outside_the_domain_carries_its_time(ball_beam_fixture, path):
    # The start passes rk4's grid-point domain guard at t = 0; dphi/dt = omega = 1 takes
    # the beam angle past pi/2 at the first midpoint stage.  The inlined
    # domain test fails there as the called one does: same class, time and line.
    x0 = np.array([0.0, 0.0, math.pi / 2 - 1e-6, 1.0])
    ctrl = LearnedController(build_basis(ball_beam_fixture["set"]))
    failures = []
    for cfg in (BB_PATHS[path], BB_PATHS["called"]):
        with pytest.raises(DomainError) as err:
            simulate_embedded_closed_loop(cfg, ctrl, x0, np.zeros(3), duration=1.0)
        failures.append((type(err.value), err.value.time, str(err.value)))
    assert failures[0] == failures[1]
    assert failures[0][0] is DomainError
    assert failures[0][1] == pytest.approx(5e-4, rel=0, abs=1e-15)
    assert failures[0][2].endswith("is outside the domain of ball_beam at t=0.000500")


def _unit_speed_chain2(domain: str = "", rows: dict | None = None) -> EmbeddingConfig:
    # chain2 embedded with w = (1,): under v = 0 from x = (0, 1), xi = 0 the
    # input u = (s + v) / r stays 0, so x_1 = t, x_2 = 1 and xi = 0.
    return EmbeddingConfig(plant=chain_plant(2, domain, rows), w=(1.0,))


def test_stage_failures_carry_the_absolute_time():
    # Intervals of 2 ms: the failures fall in interval 5, which starts at 0.010.
    ctrl, x0 = _zero_controller(2e-3, 1e-3), np.array([0.0, 1.0])
    # x_1 < 0.0104 holds at the grid point 0.010 and fails at its midpoint stage.
    cfg = _unit_speed_chain2("x0 < 0.0104")
    with pytest.raises(DomainError) as err:
        simulate_embedded_closed_loop(cfg, ctrl, x0, np.zeros(1), duration=0.02)
    assert err.value.time == pytest.approx(0.0105, rel=0, abs=1e-12)

    # r = L_g L_f h + w L_g h, with L_g L_f h (row 8 of the chain2 terms)
    # replaced by 1 - 100 x_1, vanishes at the grid point 0.010, the first
    # stage of interval 5.
    with pytest.raises(SingularEmbeddingError) as err:
        simulate_embedded_closed_loop(_unit_speed_chain2(rows={8: "1.0 - 100.0 * x0"}), ctrl,
                                      x0, np.zeros(1), duration=0.02)
    assert err.value.time == pytest.approx(0.010, rel=0, abs=1e-12)
    assert "at t=0.010000" in str(err.value)


def _recording_chain2(seen, bound=None):
    """The unit-speed chain2 embedding, with x_1 < bound as its domain if a bound is given.

    Every stage state's x that loop_field receives is appended to seen.
    """
    cfg = _unit_speed_chain2("" if bound is None else f"x0 < {float(bound)!r}")
    field = cfg.loop_field

    def recorded(y, *args):
        seen.append(np.array(y[:2]))
        return field(y, *args)

    object.__setattr__(cfg, "loop_field", recorded)
    return cfg


def test_embedded_loop_tests_each_stage_and_anchor_state_once():
    # 20 steps in intervals of 2 steps: 4 stages per step, and each of the
    # 11 intervals (the zero-step one at 0.020 among them) adds one stage at
    # its last grid point, each one loop_field call, which tests the domain
    # and reads the terms.  The anchor is read off an interval's first
    # stage, and rk4 adds no grid-point test of its own.
    seen = []
    traj = simulate_embedded_closed_loop(_recording_chain2(seen), _zero_controller(2e-3, 1e-3),
                                         np.array([0.0, 1.0]), np.zeros(1), duration=0.02)
    steps, intervals = len(traj.times) - 1, len(range(0, 21, 2))
    assert len(seen) == 4 * steps + intervals == 91


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
    first = next(i for i, x in enumerate(seen) if np.array_equal(x, free.x[k]))
    before = max(x[0] for x in seen[:first])
    assert before < free.x[k, 0]
    bound = 0.5 * (before + free.x[k, 0])
    with pytest.raises(DomainError) as err:
        simulate_embedded_closed_loop(_recording_chain2([], bound), ctrl, x0, xi0, duration=0.3)
    t = free.times[k]
    assert err.value.time == pytest.approx(t, rel=0, abs=1e-12)
    # The line rk4's grid-point guard wrote for this state.
    assert str(err.value) == f"state {free.x[k]} is outside the domain of chain2 at t={t:.6f}"
