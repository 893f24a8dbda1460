"""Difference matrices, coefficient solves and the learned chain controllers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from conftest import analytic_double_int_set, save_learned
from oracles import DOUBLE_INT_K, double_int_flow, integrate, reconstruct

from demostab.errors import AffineDependenceError
from demostab.learner import (
    AffineBasis,
    LearnedController,
    build_basis,
    load_controller,
    simulate_chain_closed_loop,
)
from demostab.multi import MultiController


def test_basis_matrices_at_zero(double_int_set):
    basis = build_basis(double_int_set)
    assert_allclose(basis.Zs[0], np.eye(2), atol=1e-15)
    assert_allclose(basis.Vs[0], [[-1.0, -2.0]], atol=1e-12)
    assert np.all(basis.z_base == 0.0) and np.all(basis.v_base == 0.0)


def test_basis_permutation_permutes_columns(double_int_set):
    b012 = build_basis(double_int_set, (0, 1, 2))
    b021 = build_basis(double_int_set, (0, 2, 1))
    assert np.array_equal(b012.Zs[:, :, 0], b021.Zs[:, :, 1])
    assert np.array_equal(b012.Vs[:, :, 0], b021.Vs[:, :, 1])


def test_zeta_zero_state(double_int_set):
    basis = build_basis(double_int_set)
    assert_allclose(basis.zeta(0.7, np.zeros(2)), 0.0, atol=1e-15)


def test_zeta_identity_at_zero(double_int_set):
    basis = build_basis(double_int_set)
    assert_allclose(basis.zeta(0.0, np.array([0.3, 0.7])), [0.3, 0.7], atol=1e-14)


def test_zeta_columns_give_unit_vectors(double_int_set):
    basis = build_basis(double_int_set)
    tau = 0.613
    Z, _, _, _ = basis._interp(tau)
    for j in range(2):
        assert_allclose(basis.zeta(tau, Z[:, j]), np.eye(2)[j], atol=1e-11)


@pytest.fixture(scope="module")
def open_ctrl(double_int_set):
    # Called at (t, z(pT)), the open-loop law anchors its interval at z(pT).
    return LearnedController(build_basis(double_int_set), feedback_mode="open_loop")


def test_open_loop_zero_state(open_ctrl):
    assert open_ctrl(1.3, np.zeros(2)) == 0.0


def test_open_loop_replays_demonstration(open_ctrl):
    # Starting at a demonstration start replays that demonstration's input.
    for t in (0.0, 0.4, 1.7):
        v = open_ctrl(t, np.array([1.0, 0.0]))
        expected = -DOUBLE_INT_K @ (double_int_flow(t) @ np.array([1.0, 0.0]))
        assert_allclose(v, expected, atol=1e-9)


def test_open_loop_affine_combination_value(open_ctrl):
    v0 = open_ctrl(0.0, np.array([0.5, 0.5]))
    assert_allclose(v0, -1.5, atol=1e-12)


def test_closed_loop_on_demonstration(double_int_set, double_int_ctrl):
    tau = 0.9
    z = double_int_set.z[900, :, 2]
    expected = double_int_set.v[900, 0, 2]
    assert_allclose(double_int_ctrl(tau, z), expected, atol=1e-10)


def test_closed_loop_zero_preservation(double_int_ctrl):
    for t in (0.0, 0.3, 1.999, 2.0, 5.41):
        assert double_int_ctrl(t, np.zeros(2)) == 0.0


def test_open_equals_closed_along_disturbance_free_run(double_int_set):
    # Both controller forms apply the same input along the nominal closed loop.
    ctrl = LearnedController(build_basis(double_int_set))
    traj = simulate_chain_closed_loop(ctrl, np.array([0.4, -0.2]), 2.0)
    open_ctrl = LearnedController(build_basis(double_int_set), feedback_mode="open_loop")
    anchor = open_ctrl.begin_interval(traj.states[0])
    for k in range(0, len(traj.times), 250):
        tau = traj.times[k]
        v_closed = ctrl.basis.value(min(tau, 2.0), traj.states[k])[0]
        v_open = open_ctrl.eval_in_interval(anchor, min(tau, 2.0), traj.states[k])[0]
        assert_allclose(v_closed, v_open, atol=1e-6)


def test_reconstruct_unit_coefficients(double_int_set):
    basis = build_basis(double_int_set)
    tau = 1.2
    k = 1200
    assert_allclose(reconstruct(basis, tau, np.array([1.0, 0.0])),
                    double_int_set.z[k, :, 1], atol=1e-12)
    assert_allclose(reconstruct(basis, tau, np.zeros(2)), 0.0, atol=1e-15)


def test_affine_combinations_are_valid_solutions(double_int_set):
    # Simulating dz/dt = Az + B v with v(t) = V(t) zeta from z(0) = Z(0) zeta
    # lands on Z(t) zeta for all t.
    basis = build_basis(double_int_set)
    A, B = double_int_set.A, double_int_set.B
    rng = np.random.default_rng(23)
    for _ in range(5):
        z_coef = rng.normal(size=2)
        z_coef /= max(1.0, np.linalg.norm(z_coef))

        def rhs(t, z):
            return A @ z + B[:, 0] * basis.value_from_zeta(min(t, 2.0), z_coef)[0]

        traj = integrate(rhs, reconstruct(basis, 0.0, z_coef), 0.0, 2.0, 1e-3)
        for k in range(0, len(traj.times), 200):
            assert_allclose(traj.states[k], reconstruct(basis, traj.times[k], z_coef),
                            atol=1e-5)


def test_coefficient_constancy_in_closed_loop(double_int_set):
    ctrl = LearnedController(build_basis(double_int_set))
    traj = simulate_chain_closed_loop(ctrl, np.array([0.5, 0.5]), 2.0)
    zeta0 = ctrl.basis.zeta(0.0, traj.states[0])
    for k in range(0, len(traj.times) - 1, 100):
        zk = ctrl.basis.zeta(traj.times[k], traj.states[k])
        assert np.max(np.abs(zk - zeta0)) < 1e-6


def test_interval_reanchoring_is_right_continuous(double_int_ctrl):
    # At exactly t = pT the new interval's matrices apply.
    z = np.array([0.2, -0.1])
    v_start = double_int_ctrl(0.0, z)
    v_boundary = double_int_ctrl(2.0, z)
    assert_allclose(v_boundary, v_start, atol=1e-12)


def test_duplicate_demonstrations_rejected():
    dup = analytic_double_int_set(
        starts=[np.zeros(2), np.array([1.0, 0.0]), np.array([1.0, 0.0])]
    )
    with pytest.raises(AffineDependenceError):
        build_basis(dup)


def test_serialization_bit_exact(double_int_set, tmp_path):
    ctrl = LearnedController(build_basis(double_int_set))
    save_learned(ctrl, double_int_set, tmp_path / "controller.json")
    rebuilt = load_controller(tmp_path / "controller.json")
    rng = np.random.default_rng(1)
    for _ in range(20):
        t = float(rng.uniform(0.0, 4.0))
        k = rng.integers(0, len(ctrl.basis.times))
        tau = float(ctrl.basis.times[k])
        z = rng.normal(size=2)
        assert ctrl(tau, z) == rebuilt(tau, z)
        assert ctrl(t, z) == rebuilt(t, z)


def test_save_load_controller_file(double_int_set, tmp_path):
    ctrl = LearnedController(build_basis(double_int_set))
    path = tmp_path / "controller.json"
    save_learned(ctrl, double_int_set, path)
    rebuilt = load_controller(path)
    z = np.array([0.3, 0.9])
    assert ctrl(1.234, z) == rebuilt(1.234, z)


def test_vector_input_controller(quad_set):
    ctrl = LearnedController(build_basis(quad_set), A=quad_set.A, B=quad_set.B)
    assert ctrl.m == 3
    v = ctrl(0.0, np.zeros(9))
    assert v.shape == (3,)
    assert_allclose(v, 0.0, atol=1e-15)
    # Replay: a demonstration start returns that demonstration's input.
    z0 = quad_set.z[0, :, 3]
    assert_allclose(ctrl(0.0, z0), quad_set.v[0, :, 3], atol=1e-9)


# ---------------------------------------------------------------------------
# Tabulated gains K(tau), c(tau) against the interpolate-and-solve law
# ---------------------------------------------------------------------------

_SET = analytic_double_int_set(T=2.0, dt=1e-3)
_MULTI = MultiController(analytic_double_int_set(
    T=1.0, dt=1e-2, starts=[np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                            np.array([1.0, 1.0]), np.array([-1.0, 0.5])]))


def interpolate_and_solve(basis, tau, z):
    """The law as evaluated before tabulation: v_base + V Z^{-1} (z - z_base)."""
    Z, V, zb, vb = basis._interp(tau)
    col = (lambda a: a) if z.ndim == 1 else (lambda a: a[:, None])
    return col(vb) + V @ np.linalg.solve(Z, z - col(zb))


@st.composite
def stage_time(draw, times):
    """A grid point, a step midpoint as RK4 forms it, or a time off both."""
    i = draw(st.integers(0, len(times) - 2))
    h = times[i + 1] - times[i]
    kind = draw(st.sampled_from(["grid", "mid", "off"]))
    if kind == "grid":
        return float(times[i + draw(st.integers(0, 1))])
    if kind == "mid":
        return float(times[i] + 0.5 * h)
    return float(times[i] + draw(st.sampled_from([0.1, 0.3, 0.7, 0.9])) * h)


states = st.integers(0, 3).flatmap(
    lambda k: st.lists(st.floats(-5.0, 5.0), min_size=2 * max(k, 1), max_size=2 * max(k, 1))
    .map(lambda v, k=k: np.array(v).reshape(2, k) if k else np.array(v)))


@given(data=st.data(), z=states)
def test_tabulated_value_matches_interpolate_and_solve(data, z):
    dset = _SET
    ctrl = LearnedController(build_basis(dset), A=dset.A, B=dset.B)
    tau = data.draw(stage_time(ctrl.basis.times))
    expected = interpolate_and_solve(ctrl.basis, tau, z)
    got = ctrl.eval_in_interval(None, tau, z)
    assert got.shape == expected.shape
    scale = max(1.0, float(np.abs(expected).max()), float(np.abs(z).max()))
    assert_allclose(got, expected, rtol=0, atol=1e-12 * scale)


@given(data=st.data(), z=states)
def test_tabulated_multi_value_matches_interpolate_and_solve(data, z):
    tau = data.draw(stage_time(_MULTI.dset.grid))
    anchor = _MULTI.begin_interval(z)
    got = _MULTI.eval_in_interval(anchor, tau, z)
    cols = z[:, None] if z.ndim == 1 else z
    expected = np.column_stack([interpolate_and_solve(_MULTI.bases[j], tau, cols[:, k])
                                for k, j in enumerate(anchor[0])])
    scale = max(1.0, float(np.abs(expected).max()), float(np.abs(z).max()))
    assert_allclose(got, expected[:, 0] if z.ndim == 1 else expected, rtol=0,
                    atol=1e-12 * scale)


def test_singular_midpoint_raises_with_time():
    # Z = I and -I at the two grid points: their average at the midpoint is 0.
    times = np.array([0.0, 0.5, 1.0])
    Zs = np.stack([np.eye(2), -np.eye(2), np.eye(2)])
    basis = AffineBasis(index_set=(0, 1, 2), times=times, Zs=Zs, Vs=np.zeros((3, 1, 2)),
                        z_base=np.zeros((3, 2)), v_base=np.zeros((3, 1)))
    with pytest.raises(AffineDependenceError) as err:
        basis.value(0.0, np.ones(2))
    assert err.value.time == 0.25
