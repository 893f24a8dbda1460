"""Delaunay triangulation, barycentric queries and hull projection."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from oracles import (
    barycentric,
    circumsphere,
    delaunay_brute_force,
    empty_circumsphere_violations,
    enumerate_triangulations_2d,
    hull_area_2d,
    max_interp_error_2d,
    pl_interpolate,
    project_to_hull_brute_force,
    simplex_volume,
    vertices_of,
)

from demostab.errors import DegenerateGeometryError
from demostab.geometry import (
    delaunay,
    locate,
    project_to_hull,
    triangulation_from_simplices,
)

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.9, 0.9]])


def test_circumsphere_right_triangle():
    center, radius = circumsphere(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert_allclose(center, [0.5, 0.5], atol=1e-12)
    assert_allclose(radius, math.sqrt(0.5), atol=1e-12)


def test_circumsphere_regular_simplex_centered():
    # Equilateral triangle centered at the origin.
    angles = np.array([0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0])
    verts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    center, radius = circumsphere(verts)
    assert_allclose(center, 0.0, atol=1e-12)
    assert_allclose(radius, 1.0, atol=1e-12)


def test_circumsphere_1d_midpoint():
    center, radius = circumsphere(np.array([[0.0], [2.0]]))
    assert_allclose(center, [1.0], atol=1e-14)
    assert_allclose(radius, 1.0, atol=1e-14)


def test_circumsphere_degenerate():
    with pytest.raises(DegenerateGeometryError):
        circumsphere(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))


def test_delaunay_minimal_triangle():
    tri = delaunay(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert len(tri.simplices) == 1
    assert tri.simplices[0].vertex_indices == (0, 1, 2)


def test_delaunay_square_picks_empty_diagonal():
    tri = delaunay(SQUARE)
    assert len(tri.simplices) == 2
    index_sets = {s.vertex_indices for s in tri.simplices}
    # Both triangles share the diagonal {(0,0), (0.9, 0.9)}.
    assert index_sets == {(0, 1, 3), (0, 2, 3)}
    # The rejected diagonal's triangle has (0.9, 0.9) strictly inside its
    # circumcircle: center (0.5, 0.5), radius sqrt(0.5), distance ~0.566.
    assert np.linalg.norm([0.9 - 0.5, 0.9 - 0.5]) < math.sqrt(0.5)


def test_delaunay_single_simplex_any_dimension():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4):
        pts = rng.normal(size=(n + 1, n))
        tri = delaunay(pts)
        assert len(tri.simplices) == 1


def test_delaunay_rejects_hyperplane_points():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(DegenerateGeometryError):
        delaunay(pts)


def test_delaunay_rejects_coincident_points():
    # Qhull would leave the repeated point out of every simplex.
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DegenerateGeometryError):
        delaunay(pts)


def test_delaunay_cocircular_square_deterministic():
    # All four corners lie on one circle, so both diagonals are Delaunay.  The
    # documented policy is Qhull's choice after sorting: the diagonal 0-3.
    unit_square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    tri = delaunay(unit_square)
    simplices = [s.vertex_indices for s in tri.simplices]
    assert simplices == [(0, 1, 3), (0, 2, 3)]
    assert [s.vertex_indices for s in delaunay(unit_square).simplices] == simplices
    assert empty_circumsphere_violations(unit_square, simplices) == 0


def test_delaunay_empty_circumsphere_random_sets():
    rng = np.random.default_rng(17)
    for trial in range(30):
        n = int(rng.integers(2, 4))
        M = int(rng.integers(n + 2, 9))
        pts = rng.uniform(-1.0, 1.0, size=(M, n))
        tri = delaunay(pts)
        simplices = [s.vertex_indices for s in tri.simplices]
        assert empty_circumsphere_violations(pts, simplices) == 0
        # Convex combinations of input points are covered by the tiling.
        for _ in range(20):
            w = rng.dirichlet(np.ones(M))
            assert locate(tri, w @ pts) is not None


def test_barycentric_vertices_and_centroid():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for j in range(3):
        assert_allclose(barycentric(verts, verts[j]), np.eye(3)[j], atol=1e-12)
    assert_allclose(barycentric(verts, verts.mean(axis=0)), np.ones(3) / 3.0, atol=1e-12)


def test_barycentric_hand_value():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert_allclose(barycentric(verts, np.array([0.25, 0.25])), [0.5, 0.25, 0.25],
                    atol=1e-13)


def test_barycentric_affine_extension_sums_to_one():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    theta = barycentric(verts, np.array([2.0, 3.0]))
    assert_allclose(theta.sum(), 1.0, atol=1e-12)
    assert np.any(theta < 0)


def test_locate_vertex_lowest_simplex_wins():
    tri = delaunay(SQUARE)
    assert locate(tri, SQUARE[0]) == 0  # vertex 0 belongs to both simplices


def test_locate_outside_returns_none():
    tri = delaunay(SQUARE)
    assert locate(tri, np.array([2.0, 2.0])) is None
    assert locate(tri, np.array([-0.2, 0.5])) is None


def test_locate_square_interior_point():
    tri = delaunay(SQUARE)
    j = locate(tri, np.array([0.5, 0.1]))
    assert tri.simplices[j].vertex_indices == (0, 1, 3)


def test_project_inside_is_identity():
    xi = np.array([0.2, 0.3])
    xi_star, theta = project_to_hull(SQUARE, xi)
    assert np.array_equal(xi_star, xi)
    assert_allclose(theta.sum(), 1.0, atol=1e-10)


def test_project_onto_edge():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    xi_star, theta = project_to_hull(pts, np.array([1.0, 1.0]))
    assert_allclose(xi_star, [0.5, 0.5], atol=1e-10)
    assert_allclose(theta, [0.0, 0.5, 0.5], atol=1e-10)


def test_project_single_point():
    xi_star, theta = project_to_hull(np.array([[0.3, -0.4]]), np.array([5.0, 5.0]))
    assert_allclose(xi_star, [0.3, -0.4], atol=1e-14)
    assert_allclose(theta, [1.0])


def test_project_square_far_corner_hits_vertex():
    xi_star, _ = project_to_hull(SQUARE, np.array([2.0, 2.0]))
    assert_allclose(xi_star, [0.9, 0.9], atol=1e-10)


@pytest.mark.parametrize("offset", [-1e-7, 1e-7, -1e-9, 1e-9, 3e-8])
def test_project_next_to_normal_cone_boundary(offset):
    # xi = (2, 1 + offset) lies next to the boundary between the normal cones
    # of the vertex (1, 0) and of the edge (1, 0)-(0, 1).  The exact
    # projection is (1 - t, t) with t = max(offset, 0) / 2; a penalised
    # sum-to-one row alone picks the wrong face within about 1e-7 of it.
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    xi = np.array([2.0, 1.0 + offset])
    xi_star, theta = project_to_hull(pts, xi)
    t = max(xi[1] - 1.0, 0.0) / 2.0
    assert_allclose(xi_star, [1.0 - t, t], rtol=0, atol=1e-15)
    assert_allclose(theta, [0.0, 1.0 - t, t], rtol=0, atol=1e-15)
    if offset < 0:
        assert np.array_equal(xi_star, project_to_hull_brute_force(pts, xi)[0])


def test_projection_kkt_certificate_random():
    rng = np.random.default_rng(4)
    for _ in range(25):
        pts = rng.normal(size=(6, 2))
        xi = rng.normal(size=2) * 2.0
        xi_star, theta = project_to_hull(pts, xi)
        assert np.all(theta >= -1e-10)
        assert abs(theta.sum() - 1.0) <= 1e-10
        # Variational inequality at every vertex.
        gaps = (pts - xi_star) @ (xi - xi_star)
        assert np.all(gaps <= 1e-10)
        # And theta actually reproduces the point.
        assert_allclose(theta @ pts, xi_star, atol=1e-9)


def test_pl_interpolate_samples_and_affine():
    tri = delaunay(SQUARE)
    values = 2.0 * SQUARE[:, 0] + 3.0 * SQUARE[:, 1] + 1.0
    for p, y in zip(SQUARE, values):
        assert_allclose(pl_interpolate(SQUARE, values, tri, p), y, atol=1e-12)
    rng = np.random.default_rng(8)
    for _ in range(20):
        w = rng.dirichlet(np.ones(4))
        x = w @ SQUARE
        assert_allclose(pl_interpolate(SQUARE, values, tri, x),
                        2.0 * x[0] + 3.0 * x[1] + 1.0, atol=1e-12)


def test_pl_interpolate_quadratic_matches_oracle():
    tri = delaunay(SQUARE)
    values = np.sum(SQUARE**2, axis=1)
    x = np.array([0.45, 0.45])
    got = pl_interpolate(SQUARE, values, tri, x)
    # Oracle: barycentric blend on the containing triangle {0, 1, 3}.
    verts = SQUARE[[0, 1, 3]]
    A = np.vstack([np.ones(3), verts.T])
    theta = np.linalg.solve(A, np.concatenate([[1.0], x]))
    assert_allclose(got, theta @ values[[0, 1, 3]], atol=1e-12)


def test_pl_interpolate_outside_raises():
    tri = delaunay(SQUARE)
    with pytest.raises(ValueError):
        pl_interpolate(SQUARE, np.zeros(4), tri, np.array([3.0, 3.0]))


def test_user_triangulation_and_volume():
    tri = triangulation_from_simplices(SQUARE, [(0, 1, 2), (1, 2, 3)])
    assert tri.kind == "user"
    vol = sum(simplex_volume(vertices_of(tri, j)) for j in range(2))
    assert_allclose(vol, hull_area_2d(SQUARE), atol=1e-12)


def test_delaunay_minimizes_quadratic_interp_error_small():
    # Desk-scale check of worst-case optimality on one 5-point set: among all
    # tilings, the Delaunay one has the smallest max interpolation error for
    # psi(x) = |x|^2.
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.1, 0.9], [1.1, 1.0], [0.55, 0.4]])
    psi = lambda x: float(x[0] ** 2 + x[1] ** 2)
    values = np.array([psi(p) for p in pts])
    tilings = enumerate_triangulations_2d(pts)
    assert len(tilings) >= 2
    gx, gy = np.meshgrid(np.linspace(-0.1, 1.2, 30), np.linspace(-0.1, 1.1, 30))
    grid_pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    errors = [max_interp_error_2d(pts, values, t, psi, grid_pts) for t in tilings]
    dt_simplices = [s.vertex_indices for s in delaunay(pts).simplices]
    dt_err = max_interp_error_2d(pts, values, dt_simplices, psi, grid_pts)
    assert dt_err <= min(errors) + 1e-9


def general_position_set(seed: int, n: int, M: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((M, n))


point_sets = st.integers(2, 5).flatmap(
    lambda n: st.tuples(st.integers(0, 2**32 - 1), st.just(n), st.integers(n + 1, 12))
)


@given(args=point_sets)
def test_delaunay_matches_brute_force_oracle(args):
    pts = general_position_set(*args)
    expected = delaunay_brute_force(pts)
    assume(expected is not None)
    assert [s.vertex_indices for s in delaunay(pts).simplices] == expected


@given(args=point_sets, radius=st.floats(0.0, 4.0))
def test_project_to_hull_matches_brute_force_oracle(args, radius):
    seed, n, M = args
    pts = general_position_set(seed, n, M)
    direction = np.random.default_rng(seed + 1).standard_normal(n)
    xi = radius * np.abs(pts).max() * direction / np.linalg.norm(direction)
    xi_star, theta = project_to_hull(pts, xi)
    scale = max(1.0, float(np.abs(pts).max()), float(np.abs(xi).max()))
    assert np.linalg.norm(xi_star - project_to_hull_brute_force(pts, xi)[0]) <= 1e-12 * scale
    assert np.all(theta >= 0.0)
    assert abs(theta.sum() - 1.0) <= 1e-12


@settings(max_examples=60)
@given(args=point_sets, pick=st.integers(0, 2**16),
       eps=st.sampled_from([1e-6, 1e-7, 1e-8, 1e-9, 0.0, -1e-9, -1e-8, -1e-7, -1e-6]))
def test_project_to_hull_next_to_face_boundaries(args, pick, eps):
    # Slide the foot of a projection onto the boundary of its face (weight k
    # set to zero), keep the normal offset, then step eps back toward or
    # away from vertex k: xi then sits within eps of a normal-cone boundary.
    seed, n, M = args
    pts = general_position_set(seed, n, M)
    direction = np.random.default_rng(seed + 1).standard_normal(n)
    far = 3.0 * np.abs(pts).max() * direction / np.linalg.norm(direction)
    foot, weights = project_to_hull_brute_force(pts, far)
    face = np.flatnonzero(weights > 1e-9)
    assume(face.size >= 2)
    k = face[pick % face.size]
    rest = np.where(np.arange(M) == k, 0.0, np.maximum(weights, 0.0))
    corner = (rest / rest.sum()) @ pts
    xi = corner + (far - foot) + eps * (pts[k] - corner)
    xi_star, theta = project_to_hull(pts, xi)
    scale = max(1.0, float(np.abs(pts).max()), float(np.abs(xi).max()))
    assert theta.min() >= -1e-10
    assert abs(theta.sum() - 1.0) <= 1e-10
    assert np.linalg.norm(theta @ pts - xi_star) <= 1e-9 * scale
    assert ((pts - xi_star) @ (xi - xi_star)).max() <= 1e-9 * scale * scale
    best, _ = project_to_hull_brute_force(pts, xi)
    assert np.linalg.norm(xi - xi_star) <= np.linalg.norm(xi - best) + 1e-12 * scale


def test_user_triangulation_rejects_flat_simplices():
    # A degenerate simplex anywhere in the list is named, whether it is
    # exactly flat or flat up to a condition number above 1e12.
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [1.0, 1e-13]])
    with pytest.raises(DegenerateGeometryError, match="degenerate simplex"):
        triangulation_from_simplices(pts, [(0, 1, 2), (0, 1, 3)])
    with pytest.raises(DegenerateGeometryError, match="nearly affinely dependent"):
        triangulation_from_simplices(pts, [(0, 1, 2), (0, 3, 4)])
    with pytest.raises(ValueError, match="n\\+1 = 3 vertices"):
        triangulation_from_simplices(pts, [(0, 1, 2), (0, 1)])
