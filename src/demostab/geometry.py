"""n-dimensional Delaunay triangulation and simplex queries.

The triangulation comes from Qhull (``scipy.spatial.Delaunay``): the vertex
indices of each simplex are sorted and the simplices are listed in
lexicographic order.  When n+2 or more points are cospherical the Delaunay
triangulation is not unique; the policy is Qhull's choice, after sorting (on
the cocircular unit square that is {(0, 1, 3), (0, 2, 3)}).  The barycentric
maps of all simplices are built once per triangulation, so locating a point is
one vectorised evaluation.  Hull projection is one non-negative least-squares
solve (Lawson-Hanson) that picks the face, an exact solve on that face, and
the variational-inequality certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import nnls
from scipy.spatial import Delaunay, QhullError

from .errors import DegenerateGeometryError

# Barycentric coordinates down to -LOCATE_TOL still count as inside.
LOCATE_TOL = 1e-9
# Weight of the sum-to-one row in the projection's NNLS, per unit of
# coordinate scale.
SUM_WEIGHT = 1e3


@dataclass(frozen=True)
class Simplex:
    """An n-simplex referenced by vertex indices into a shared point list."""

    vertex_indices: tuple[int, ...]


@dataclass(frozen=True)
class Triangulation:
    """A simplex tiling of the convex hull of a point set.

    ``W`` (P, n+1, n) and ``c`` (P, n+1) hold the barycentric maps
    theta_j(x) = W[j] x + c[j] of the P simplices, built once here.
    """

    points: np.ndarray
    simplices: tuple[Simplex, ...]
    kind: str = "delaunay"
    W: np.ndarray = field(init=False, repr=False, compare=False)
    c: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        if any(len(s.vertex_indices) != n + 1 for s in self.simplices):
            raise ValueError(f"every simplex needs n+1 = {n + 1} vertices in R^{n}")
        V = self.points[[list(s.vertex_indices) for s in self.simplices]]  # (P, n+1, n)
        # theta = A^{-1} (1, x) with A = [1 ... 1; v_0 ... v_n], for every simplex at once.
        A = np.concatenate([np.ones((len(V), 1, n + 1)), np.swapaxes(V, 1, 2)], axis=1)
        try:
            Ainv = np.linalg.inv(A)
        except np.linalg.LinAlgError as exc:
            j = np.argmin(np.abs(np.linalg.det(A)))
            raise DegenerateGeometryError(f"degenerate simplex: {V[j].tolist()}") from exc
        scale = np.maximum(1.0, np.abs(V).max(axis=(1, 2)))
        bad = np.flatnonzero(np.linalg.cond(V[:, 1:] - V[:, :1]) > 1e12 * scale)
        if bad.size:
            raise DegenerateGeometryError(
                f"nearly affinely dependent vertices: {V[bad[0]].tolist()}")
        object.__setattr__(self, "W", np.ascontiguousarray(Ainv[:, :, 1:]))
        object.__setattr__(self, "c", np.ascontiguousarray(Ainv[:, :, 0]))

    @property
    def n(self) -> int:
        return self.points.shape[1]

    def worst_coordinates(self, xi: np.ndarray) -> np.ndarray:
        """Smallest barycentric coordinate of xi in each simplex, shape (P,)."""
        return (self.W @ np.asarray(xi, dtype=float) + self.c).min(axis=1)


def triangulation_from_simplices(
    points: np.ndarray, simplices: Sequence[Sequence[int]], kind: str = "user"
) -> Triangulation:
    """Wrap user-supplied simplex index sets (degenerate simplices are rejected)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = tuple(Simplex(tuple(sorted(int(i) for i in idx))) for idx in simplices)
    return Triangulation(points=points, simplices=out, kind=kind)


def delaunay(points: np.ndarray) -> Triangulation:
    """Delaunay triangulation of a point set, by Qhull.

    Every returned simplex has an empty open circumsphere.  Vertex indices are
    sorted within each simplex and the simplices are sorted lexicographically.
    When n+2 or more points are cospherical the triangulation is not unique;
    Qhull's choice is kept, and two calls on the same points agree.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    M, n = points.shape
    if M < n + 1:
        raise DegenerateGeometryError(f"need at least n+1 = {n + 1} points, got {M}")
    if np.linalg.matrix_rank(points[1:] - points[0]) < n:
        raise DegenerateGeometryError("all points lie on a common hyperplane")
    try:
        qhull = Delaunay(points)
    except QhullError as exc:
        raise DegenerateGeometryError(f"Qhull could not triangulate the points: {exc}") from exc
    if qhull.coplanar.size:
        unused = sorted(set(qhull.coplanar[:, 0].tolist()))
        raise DegenerateGeometryError(f"points {unused} coincide with other points")
    simplices = sorted(tuple(sorted(int(i) for i in s)) for s in qhull.simplices)
    return Triangulation(points=points, simplices=tuple(Simplex(s) for s in simplices))


def locate(tri: Triangulation, xi: np.ndarray) -> Optional[int]:
    """Index of the first simplex containing xi, or None outside the hull.

    Boundary ties resolve to the lowest simplex index.
    """
    inside = np.flatnonzero(tri.worst_coordinates(xi) >= -LOCATE_TOL)
    return int(inside[0]) if inside.size else None


def _solve_face(points: np.ndarray, xi: np.ndarray, face: np.ndarray):
    """Closest point to xi on the affine hull of points[face], and its weights."""
    base = points[face[0]]
    D = (points[face[1:]] - base).T
    lam, *_ = np.linalg.lstsq(D, xi - base, rcond=None)
    return base + D @ lam, np.concatenate([[1.0 - lam.sum()], lam])


def project_to_hull(points: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean projection of xi onto the convex hull of a point set.

    One NNLS solve over the convex weights, with a heavily weighted row of ones
    for sum(theta) = 1, gives a first face (the support of its weights).  The
    penalised sum row can leave that face off by a vertex whose weight or
    multiplier is tiny, so the face is then made exact by Wolfe's active-set
    steps: the face is solved exactly by least squares; a vertex whose weight
    comes out below -1e-10 leaves the face, and a vertex that breaks the
    variational inequality (xi - xi*)^T (y - xi*) <= tol enters it.  Returns
    (xi*, theta) with theta >= 0 over all points and sum(theta) = 1.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    xi = np.asarray(xi, dtype=float)
    M = points.shape[0]
    scale = max(1.0, float(np.abs(points).max()), float(np.abs(xi).max()))
    w = SUM_WEIGHT * scale
    weights, _ = nnls(np.vstack([points.T, np.full(M, w)]), np.append(xi, w))
    # Feasible weights supported on the face; Wolfe's steps keep them so.
    current = weights / weights.sum()
    in_face = current > 0.0
    for _ in range(4 * M + 4):
        face = np.flatnonzero(in_face)
        xi_star, theta_face = _solve_face(points, xi, face)
        theta = np.zeros(M)
        theta[face] = theta_face
        if np.any(theta_face < -1e-10):
            # Walk from the feasible weights toward theta until the first
            # weight reaches zero; that vertex leaves the face.
            neg = face[theta_face < 0.0]
            ratios = current[neg] / (current[neg] - theta[neg])
            k = int(np.argmin(ratios))
            current = np.maximum(current + ratios[k] * (theta - current), 0.0)
            in_face[neg[k]] = False
            continue
        if float(np.linalg.norm(xi - xi_star)) <= 1e-12 * scale:
            return xi.copy(), theta
        gaps = (points - xi_star) @ (xi - xi_star)
        j = int(np.argmax(gaps))
        if gaps[j] <= 1e-9 * scale * scale:
            return xi_star, theta
        if in_face[j]:
            break
        current = np.maximum(theta, 0.0)
        in_face[j] = True
    raise RuntimeError(f"projection of {xi} did not converge to a certified face")
