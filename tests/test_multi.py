"""Per-simplex controller for more than n+1 demonstrations."""

import numpy as np
from numpy.testing import assert_allclose

from conftest import save_learned
from oracles import double_int_flow, per_simplex_monodromy, pl_interpolate, select_index_set

from demostab.learner import LearnedController, build_basis, load_controller, \
    simulate_chain_closed_loop
from demostab.multi import MultiController


def test_single_simplex_matches_single_controller(double_int_set):
    single = LearnedController(build_basis(double_int_set))
    multi = MultiController(double_int_set)
    assert multi.P == 1
    rng = np.random.default_rng(9)
    for _ in range(200):
        t = float(rng.uniform(0.0, 6.0))
        z = rng.normal(size=2) * 2.0
        assert multi(t, z) == single(t, z)


def test_select_index_set_vertex(multi_point_set):
    ctrl = MultiController(multi_point_set)
    for j in range(multi_point_set.M):
        z0 = multi_point_set.z[0, :, j]
        idx, theta = select_index_set(ctrl, z0)
        assert j in idx
        assert_allclose(theta[idx.index(j)], 1.0, atol=1e-9)
        assert_allclose(theta.sum(), 1.0, atol=1e-10)


def test_select_index_set_centroid(multi_point_set):
    ctrl = MultiController(multi_point_set)
    simplex = ctrl.tri.simplices[0]
    centroid = ctrl.tri.points[list(simplex.vertex_indices)].mean(axis=0)
    idx, theta = select_index_set(ctrl, centroid)
    assert idx == simplex.vertex_indices
    assert_allclose(theta, np.ones(3) / 3.0, atol=1e-9)


def test_select_index_set_outside_hull(multi_point_set):
    ctrl = MultiController(multi_point_set)
    z = np.array([3.0, 3.0])
    idx, theta = select_index_set(ctrl, z)
    assert_allclose(theta.sum(), 1.0, atol=1e-9)
    assert_allclose(theta @ ctrl.tri.points[list(idx)], z, atol=1e-8)
    assert np.any(theta < 0)  # affine extension outside the hull


def test_demonstration_replay(multi_point_set):
    ctrl = MultiController(multi_point_set)
    k = 700
    tau = multi_point_set.grid[k]
    for j in range(multi_point_set.M):
        z = multi_point_set.z[k, :, j]
        idx, _ = select_index_set(ctrl, multi_point_set.z[0, :, j])
        anchor = ctrl.begin_interval(multi_point_set.z[0, :, j])
        got = ctrl.eval_in_interval(anchor, tau, z)[0]
        assert_allclose(got, multi_point_set.v[k, 0, j], atol=1e-9)


def test_interior_value_matches_pl_interpolant(multi_point_set):
    # At the interval start the controller value is the piecewise-linear
    # interpolant of the initial inputs over the initial states.
    ctrl = MultiController(multi_point_set)
    points = multi_point_set.z0_points()
    values = multi_point_set.v[0, 0]
    rng = np.random.default_rng(21)
    for _ in range(30):
        w = rng.dirichlet(np.ones(multi_point_set.M))
        z = w @ points
        got = ctrl(0.0, z)
        expected = pl_interpolate(points, values, ctrl.tri, z)
        assert_allclose(got, expected, atol=1e-10)


def test_per_simplex_monodromy_singleton(double_int_set):
    multi = MultiController(double_int_set)
    psis = per_simplex_monodromy(multi)
    assert len(psis) == 1
    assert_allclose(psis[0], build_basis(double_int_set).monodromy(), atol=0)


def test_per_simplex_monodromy_all_equal_for_linear_flow(multi_point_set):
    # Every demonstration follows the same linear closed loop, so every
    # simplex's interval map equals the flow over one horizon.
    ctrl = MultiController(multi_point_set)
    psis = per_simplex_monodromy(ctrl)
    assert len(psis) == ctrl.P
    expected = double_int_flow(2.0)
    for Psi in psis:
        assert_allclose(Psi, expected, atol=1e-10)


def test_per_simplex_monodromy_at_zero_is_identity(multi_point_set):
    for Psi in per_simplex_monodromy(MultiController(multi_point_set), T=0.0):
        assert_allclose(Psi, np.eye(2), atol=1e-12)


def test_switched_contraction(multi_point_set):
    ctrl = MultiController(multi_point_set)
    psis = per_simplex_monodromy(ctrl)
    max_norm = max(np.linalg.norm(P, 2) for P in psis)
    assert max_norm < 1.0
    rng = np.random.default_rng(31)
    points = multi_point_set.z0_points()
    for _ in range(5):
        w = rng.dirichlet(np.ones(multi_point_set.M))
        z0 = w @ points
        traj = simulate_chain_closed_loop(ctrl, z0, 10 * ctrl.T)
        steps = int(round(ctrl.T / 1e-3))
        samples = np.linalg.norm(traj.states[::steps], axis=1)
        bound = samples[0] * max_norm ** np.arange(len(samples)) * (1.0 + 1e-3)
        assert np.all(samples <= bound + 1e-12)


def test_anchored_coefficients_match_interval_start(multi_point_set):
    # Mid-interval coefficients from the anchored matrices agree with the
    # interval-start coefficients along the nominal trajectory.
    ctrl = MultiController(multi_point_set)
    z0 = np.array([0.6, 0.4])
    traj = simulate_chain_closed_loop(ctrl, z0, 2.0)
    js, _ = ctrl.begin_interval(z0)
    j = js[0]
    basis = ctrl.bases[j]
    zeta0 = basis.zeta(0.0, z0)
    for k in range(0, len(traj.times) - 1, 250):
        zk = basis.zeta(traj.times[k], traj.states[k])
        assert np.max(np.abs(zk - zeta0)) < 1e-6


def test_value_continuous_in_z_within_simplex(multi_point_set):
    ctrl = MultiController(multi_point_set)
    simplex = ctrl.tri.simplices[0]
    verts = ctrl.tri.points[list(simplex.vertex_indices)]
    inside = verts.mean(axis=0)
    anchor = ctrl.begin_interval(inside)
    tau = 0.37
    v_mid = ctrl.eval_in_interval(anchor, tau, inside)[0]
    # Linear map within the simplex: value of a convex combination equals
    # the combination of values.
    vals = [ctrl.eval_in_interval(anchor, tau, v)[0] for v in verts]
    assert_allclose(v_mid, np.mean(vals), atol=1e-10)


def test_multi_serialization_roundtrip(multi_point_set, tmp_path):
    ctrl = MultiController(multi_point_set)
    path = tmp_path / "multi.json"
    save_learned(ctrl, multi_point_set, path)
    rebuilt = load_controller(path)
    assert rebuilt.P == ctrl.P
    rng = np.random.default_rng(2)
    for _ in range(50):
        t = float(rng.uniform(0.0, 4.0))
        z = rng.normal(size=2)
        assert ctrl(t, z) == rebuilt(t, z)


def test_zero_state_zero_input(multi_point_set):
    ctrl = MultiController(multi_point_set)
    for t in (0.0, 0.5, 2.0, 3.25):
        assert ctrl(t, np.zeros(2)) == 0.0
