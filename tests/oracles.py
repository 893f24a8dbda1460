"""Independent oracles used to freeze expected values in the tests.

Everything here is deliberately written from scratch (closed forms, brute
force, direct enumeration) so that it shares no code path with the package
implementations it checks.
"""

from __future__ import annotations

import json
import math
from itertools import combinations

import numpy as np

from demostab.errors import DegenerateGeometryError
from demostab.sim import interval_index, time_grid

# ---------------------------------------------------------------------------
# Double-integrator LQR fixture: A = [[0,1],[0,0]], B = [0,1]^T, K = [1,2].
# The closed-loop matrix [[0,1],[-1,-2]] has the double eigenvalue -1 and
# nilpotent part N = A_cl + I, so e^{A_cl t} = e^{-t} (I + N t) exactly.
# ---------------------------------------------------------------------------

DOUBLE_INT_K = np.array([1.0, 2.0])
DOUBLE_INT_ACL = np.array([[0.0, 1.0], [-1.0, -2.0]])


def double_int_flow(t: float) -> np.ndarray:
    """Closed-form e^{A_cl t} for the K = [1, 2] double integrator."""
    N = DOUBLE_INT_ACL + np.eye(2)
    return math.exp(-t) * (np.eye(2) + N * t)


def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value via the 2x2 eigenvalue closed form when possible."""
    M = np.asarray(M, dtype=float)
    if M.shape == (2, 2):
        G = M.T @ M
        tr, det = G[0, 0] + G[1, 1], G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
        lam_max = 0.5 * (tr + math.sqrt(max(tr * tr - 4.0 * det, 0.0)))
        return math.sqrt(lam_max)
    return float(np.linalg.svd(M, compute_uv=False)[0])


def matrix_exp_series(A: np.ndarray, t: float, terms: int = 60) -> np.ndarray:
    """Scaling-free Taylor series of e^{At} (adequate for the small stable
    matrices used in these tests)."""
    A = np.asarray(A, dtype=float)
    out = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, terms):
        term = term @ A * (t / k)
        out = out + term
    return out


# ---------------------------------------------------------------------------
# Planar geometry: brute-force circumcircles, all-triangulations enumeration.
# ---------------------------------------------------------------------------


def circumcircle_2d(a, b, c):
    """Circumcenter/radius of a planar triangle from the perpendicular
    bisector equations."""
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-14:
        return None
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay)
          + (cx**2 + cy**2) * (ay - by)) / d
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx)
          + (cx**2 + cy**2) * (bx - ax)) / d
    center = np.array([ux, uy])
    return center, float(np.linalg.norm(center - np.asarray(a, dtype=float)))


def empty_circumsphere_violations(points: np.ndarray, simplices) -> int:
    """Count input points strictly inside any simplex circumsphere.

    The circumcenter is recomputed here from the pairwise equidistance
    conditions, then every non-vertex point is tested by plain distances.
    """
    points = np.asarray(points, dtype=float)
    bad = 0
    for idx in simplices:
        V = points[list(idx)]
        D = V[1:] - V[0]
        rhs = 0.5 * (np.sum(V[1:] ** 2, axis=1) - np.sum(V[0] ** 2))
        center = np.linalg.solve(D, rhs)
        radius = np.linalg.norm(center - V[0])
        for i in range(len(points)):
            if i in idx:
                continue
            if np.linalg.norm(points[i] - center) < radius - 1e-9 * max(1.0, radius):
                bad += 1
    return bad


# ---------------------------------------------------------------------------
# n-D geometry by brute force: circumspheres, empty-circumsphere Delaunay
# enumeration and hull projection over every face.
# ---------------------------------------------------------------------------


def circumsphere(vertices: np.ndarray) -> tuple[np.ndarray, float]:
    """Circumcenter and circumradius of n+1 affinely independent points in R^n.

    The center solves the linear system of equidistance conditions
    2 (v_i - v_0)^T c = |v_i|^2 - |v_0|^2.
    """
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    n = V.shape[1]
    if V.shape[0] != n + 1:
        raise ValueError(f"need n+1 = {n + 1} vertices in R^{n}, got {V.shape[0]}")
    D = V[1:] - V[0]
    rhs = 0.5 * (np.sum(V[1:] ** 2, axis=1) - np.sum(V[0] ** 2))
    scale = max(1.0, float(np.abs(V).max()))
    if np.linalg.matrix_rank(D) < n or np.linalg.cond(D) > 1e12 * scale:
        raise DegenerateGeometryError(f"affinely dependent vertices: {V}")
    center = np.linalg.solve(D, rhs)
    return center, float(np.linalg.norm(center - V[0]))


def delaunay_brute_force(points: np.ndarray, margin: float = 1e-6):
    """Sorted Delaunay simplices of a point set in general position, or None.

    Every (n+1)-subset is kept when no other point lies inside its
    circumsphere.  In general position that enumeration is the triangulation;
    when some point lies within ``margin`` (relative) of a candidate sphere, or
    a subset is nearly flat, the set is too close to a tie and None is
    returned.
    """
    points = np.asarray(points, dtype=float)
    M, n = points.shape
    out = []
    for combo in combinations(range(M), n + 1):
        try:
            center, radius = circumsphere(points[list(combo)])
        except DegenerateGeometryError:
            return None
        others = np.delete(points, combo, axis=0)
        d = np.linalg.norm(others - center, axis=1)
        if np.any(np.abs(d - radius) <= margin * max(1.0, radius)):
            return None
        if not np.any(d < radius):
            out.append(combo)
    return out


def project_to_hull_brute_force(points: np.ndarray, xi: np.ndarray):
    """Closest point to xi over every face of up to n+1 points (Caratheodory).

    Returns (point, theta) with theta the convex weights over all points.
    """
    points = np.asarray(points, dtype=float)
    xi = np.asarray(xi, dtype=float)
    M, n = points.shape
    best, best_dist = None, np.inf
    for size in range(1, min(M, n + 1) + 1):
        for combo in combinations(range(M), size):
            base = points[combo[0]]
            D = (points[list(combo[1:])] - base).T
            lam = np.linalg.lstsq(D, xi - base, rcond=None)[0] if size > 1 else np.zeros(0)
            if lam.sum() > 1.0 + 1e-10 or np.any(lam < -1e-10):
                continue
            y = base + D @ lam
            dist = float(np.linalg.norm(xi - y))
            if dist < best_dist:
                theta = np.zeros(M)
                theta[list(combo)] = np.concatenate([[1.0 - lam.sum()], lam])
                best, best_dist = (y, theta), dist
    return best


def triangle_area(a, b, c) -> float:
    return 0.5 * abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def convex_hull_2d(points: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain; returns hull vertices in counterclockwise order."""
    pts = sorted(map(tuple, np.asarray(points, dtype=float)))
    if len(pts) <= 2:
        return np.asarray(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 1e-12:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 1e-12:
            upper.pop()
        upper.append(p)
    return np.asarray(lower[:-1] + upper[:-1])


def hull_area_2d(points: np.ndarray) -> float:
    hull = convex_hull_2d(points)
    x, y = hull[:, 0], hull[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _point_in_triangle(p, tri, tol=1e-12) -> bool:
    a, b, c = tri
    total = triangle_area(a, b, c)
    s = triangle_area(p, b, c) + triangle_area(a, p, c) + triangle_area(a, b, p)
    return abs(s - total) <= 1e-9 * max(1.0, total) and total > tol


def _segments_properly_cross(p1, p2, q1, q2) -> bool:
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if v > 1e-12:
            return 1
        if v < -1e-12:
            return -1
        return 0

    o1, o2 = orient(p1, p2, q1), orient(p1, p2, q2)
    o3, o4 = orient(q1, q2, p1), orient(q1, q2, p2)
    return o1 * o2 < 0 and o3 * o4 < 0


def triangles_overlap_2d(t1, t2) -> bool:
    """Strict interior overlap of two planar triangles."""
    t1 = [tuple(v) for v in t1]
    t2 = [tuple(v) for v in t2]
    for i in range(3):
        for j in range(3):
            if _segments_properly_cross(t1[i], t1[(i + 1) % 3], t2[j], t2[(j + 1) % 3]):
                return True
    c1 = tuple(np.mean(t1, axis=0))
    c2 = tuple(np.mean(t2, axis=0))
    return _point_in_triangle(c1, t2) or _point_in_triangle(c2, t1)


def enumerate_triangulations_2d(points: np.ndarray) -> list[list[tuple[int, int, int]]]:
    """All tilings of the convex hull by triangles with vertices in the set.

    Backtracking over non-degenerate triangles with pairwise-disjoint
    interiors; a selection is a triangulation when its areas sum to the hull
    area (disjointness makes areas additive).  Unused interior points are
    allowed, matching the loose notion of a triangulation of a point set.
    """
    points = np.asarray(points, dtype=float)
    M = len(points)
    target = hull_area_2d(points)
    tris = []
    for combo in combinations(range(M), 3):
        if triangle_area(*points[list(combo)]) > 1e-12:
            tris.append(combo)

    results: list[list[tuple[int, int, int]]] = []

    def extend(start: int, chosen: list, area: float):
        if abs(area - target) <= 1e-9 * max(1.0, target):
            results.append(sorted(chosen))
            return
        if area > target + 1e-9:
            return
        for k in range(start, len(tris)):
            cand = tris[k]
            cand_v = points[list(cand)]
            if any(triangles_overlap_2d(cand_v, points[list(c)]) for c in chosen):
                continue
            extend(k + 1, chosen + [cand], area + triangle_area(*cand_v))

    extend(0, [], 0.0)
    # Deduplicate (the recursion can reach the same set along one order only,
    # but be safe).
    uniq = {tuple(map(tuple, r)) for r in results}
    return [list(map(tuple, r)) for r in sorted(uniq)]


def pl_interp_2d(points, values, triangulation, x):
    """Evaluate a piecewise-linear interpolant by direct barycentric solves."""
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    for tri in triangulation:
        V = points[list(tri)]
        A = np.vstack([np.ones(3), V.T])
        theta = np.linalg.solve(A, np.concatenate([[1.0], x]))
        if np.all(theta >= -1e-9):
            return float(theta @ values[list(tri)])
    return None


def max_interp_error_2d(points, values, triangulation, psi, grid_pts) -> float:
    """Max |interpolant - psi| over the grid points that the tiling covers.

    Vectorized per triangle: barycentric coordinates of all grid points at
    once, then the interpolant on the points the triangle contains.
    """
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    grid_pts = np.asarray(grid_pts, dtype=float)
    psi_vals = np.array([psi(x) for x in grid_pts])
    worst = 0.0
    for tri in triangulation:
        V = points[list(tri)]
        A = np.vstack([np.ones(3), V.T])
        Ainv = np.linalg.inv(A)
        theta = Ainv[:, :1] + Ainv[:, 1:] @ grid_pts.T  # (3, G)
        inside = np.all(theta >= -1e-9, axis=0)
        if not np.any(inside):
            continue
        interp = values[list(tri)] @ theta[:, inside]
        worst = max(worst, float(np.max(np.abs(interp - psi_vals[inside]))))
    return worst


# ---------------------------------------------------------------------------
# Routh-Hurwitz stability table for monic polynomials of degree <= 4.
# ---------------------------------------------------------------------------


def routh_stable(coeffs) -> bool:
    """Strict Hurwitz test from the Routh array (degree <= 4, monic or not)."""
    c = [float(v) for v in coeffs]
    if c[0] < 0:
        c = [-v for v in c]
    deg = len(c) - 1
    if deg == 0:
        return True
    if any(v <= 0 for v in c):
        return False  # necessary condition: all coefficients positive
    if deg <= 2:
        return True
    if deg == 3:
        a3, a2, a1, a0 = c
        return a2 * a1 > a3 * a0
    if deg == 4:
        a4, a3, a2, a1, a0 = c
        b1 = (a3 * a2 - a4 * a1) / a3
        if b1 <= 0:
            return False
        c1 = (b1 * a1 - a3 * a0) / b1
        return c1 > 0
    raise ValueError("Routh table implemented for degree <= 4 only")


def charpoly(M: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients via Faddeev-LeVerrier."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    k = M.shape[0]
    coeffs = np.empty(k + 1)
    coeffs[0] = 1.0
    N = np.zeros_like(M)
    for i in range(1, k + 1):
        N = M @ N + coeffs[i - 1] * np.eye(k)
        coeffs[i] = -np.trace(M @ N) / i
    return coeffs


# ---------------------------------------------------------------------------
# Lie derivatives: by finite differences, and the closed-form stacks
# [L_f^k h, k = 0..n; L_g L_f^k h, k = 0..n-1] of the presets, written apart
# from the f and g rows that PlantModel.terms stacks in front of them.
# ---------------------------------------------------------------------------


def ball_beam_lie(x, b, g):
    """The ball-beam Lie stack (9 rows), one column per state of a batch (4, k)."""
    x0, x1, phi, om = x
    # om * om: on one state (n,) om ** 2 is a NumPy scalar power, which calls
    # pow and can round differently from the square a batch row takes.
    s, c, om2 = np.sin(phi), np.cos(phi), om * om
    a = x0 * om2 - g * s
    out = np.empty((9,) + x.shape[1:])
    out[0] = x0
    out[1] = x1
    out[2] = b * a
    out[3] = b * (x1 * om2 - g * om * c)
    out[4] = b * b * om2 * a + b * g * om2 * s
    out[5:7] = 0.0
    out[7] = 2.0 * b * x0 * om
    out[8] = 2.0 * b * x1 * om - b * g * c
    return out


def chain_lie(x):
    """The n-chain Lie stack: L_f^k h = x_{k+1}, L_f^n h = 0, L_g L_f^{n-1} h = 1."""
    n = x.shape[0]
    out = np.zeros((2 * n + 1,) + x.shape[1:])
    out[:n] = x
    out[2 * n] = 1.0
    return out


def directional_derivative(func, field, x, eps=1e-6):
    """Central difference of func along the vector field at x."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(field(x), dtype=float)
    return (func(x + eps * v) - func(x - eps * v)) / (2.0 * eps)


# ---------------------------------------------------------------------------
# Expert recording one start at a time.
# ---------------------------------------------------------------------------


def record_one(plant, expert, x0, T: float, dt: float):
    """One closed-loop expert run from x0: one rk4 call, a scalar input per stage.

    This is expert recording as it ran before all starts were batched: the
    plant's vector fields see one state (n,) and the input is cast to float.
    """
    from demostab.sim import Trajectory, rk4

    def rhs(t, x):
        u = float(expert(x))
        return plant.rhs(x, u), u

    times = time_grid(0.0, T, dt)
    states, inputs = rk4(rhs, np.asarray(x0, dtype=float), times, domain=plant)
    return Trajectory(times=times, states=states, inputs=inputs)


# ---------------------------------------------------------------------------
# The embedding transform of one recording, sample by sample.
# ---------------------------------------------------------------------------


def embedding_terms(plant, w, x, xi):
    """(z, r, s) of the embedding at one state, term by term from plant.terms' Lie rows.

    z_k = L_f^{k-1} h + xi_k (k < n), z_n = L_f^{n-1} h - w . xi,
    r = L_g L_f^{n-1} h + sum_j w_j L_g L_f^{j-1} h and
    s = -L_f^n h + sum_{j <= n-2} w_j xi_{j+1} - w_{n-1} (w . xi).
    """
    n = plant.n
    lie = plant.terms(x)[2 * n:]
    lf, lg = lie[:n + 1], lie[n + 1:]
    z = np.empty(n)
    for j in range(n - 1):
        z[j] = lf[j] + xi[j]
    z[n - 1] = lf[n - 1] - sum(w[j] * xi[j] for j in range(n - 1))
    r = lg[n - 1] + sum(w[j] * lg[j] for j in range(n - 1))
    s = (-lf[n] + sum(w[j] * xi[j + 1] for j in range(n - 2))
         - w[n - 2] * sum(w[j] * xi[j] for j in range(n - 1)))
    return z, r, s


def aux_dot(plant, w, x, xi, u):
    """dxi/dt = A_xi xi - [L_g L_f^{k-1} h(x)]_k u at one state, A_xi the companion of w."""
    n = plant.n
    lg = plant.terms(x)[3 * n + 1:]
    out = np.empty(n - 1)
    for j in range(n - 2):
        out[j] = xi[j + 1] - lg[j] * u
    out[n - 2] = -sum(w[j] * xi[j] for j in range(n - 1)) - lg[n - 2] * u
    return out


def _interval_starts(times, T: float) -> list[int]:
    """Grid indices whose interval_index differs from the previous point's."""
    p = [interval_index(t, T)[0] for t in times.tolist()]
    return [k for k in range(len(p)) if k == 0 or p[k] != p[k - 1]]


def embedded_rk4(plant, w, ctrl, x0, xi0, duration: float, dt: float):
    """The embedded closed loop on time_grid(0, duration, dt), stage by stage.

    Every stage evaluates the extended rhs term by term: z, r and s from
    embedding_terms, v from the controller under its interval's anchor,
    u = (s + v) / r, then (plant.rhs(x, u), aux_dot(x, xi, u)).  Each
    interval start (_interval_starts) anchors the controller at the chain
    state committed there, and every stage up to the next start reads it
    at tau = t - t_start.  Classical RK4; returns the grid states
    (G, 2n-1) and the inputs v (G,) and u (G,) of each point's first stage.
    """
    n, T = plant.n, ctrl.T
    times = time_grid(0.0, duration, dt)
    starts = set(_interval_starts(times, T))

    def rhs(t, y):
        x, xi = y[:n], y[n:]
        z, r, s = embedding_terms(plant, w, x, xi)
        v = float(ctrl.eval_in_interval(anchor, min(t - start, T), z)[0])
        u = (s + v) / r
        return np.concatenate([plant.rhs(x, u), aux_dot(plant, w, x, xi, u)]), v, u

    y = np.concatenate([x0, xi0]).astype(float)
    grid = times.tolist()
    states, vs, us = [], [], []
    for k, t in enumerate(grid):
        if k in starts:
            anchor, start = ctrl.begin_interval(embedding_terms(plant, w, y[:n], y[n:])[0]), t
        k1, v, u = rhs(t, y)
        states.append(y)
        vs.append(v)
        us.append(u)
        if k == len(grid) - 1:
            break
        h = grid[k + 1] - t
        k2 = rhs(t + h / 2, y + h / 2 * k1)[0]
        k3 = rhs(t + h / 2, y + h / 2 * k2)[0]
        k4 = rhs(t + h, y + h * k3)[0]
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return np.array(states), np.array(vs), np.array(us)


def transform_demo_per_sample(plant, w, times, states, inputs, xi0):
    """(z, xi, v) of one recorded (x, u) run in the chain coordinates of the embedding.

    Every quantity comes from the Lie rows of plant.terms at one state at a time.
    The auxiliary dynamics (aux_dot) are integrated by classical RK4 on the
    recording grid, with x and u interpolated linearly at every stage; then
    z, r and s come from embedding_terms and v = r u - s.
    """
    n = plant.n
    w = np.asarray(w, dtype=float)

    def recorded(t):
        i = min(max(int(np.searchsorted(times, t, side="right")) - 1, 0), len(times) - 2)
        a = (t - times[i]) / (times[i + 1] - times[i])
        return ((1.0 - a) * states[i] + a * states[i + 1],
                (1.0 - a) * inputs[i] + a * inputs[i + 1])

    def xi_dot(t, xi):
        x, u = recorded(t)
        return aux_dot(plant, w, x, xi, u)

    xis = [np.asarray(xi0, dtype=float)]
    for k in range(len(times) - 1):
        t, h, xi = times[k], times[k + 1] - times[k], xis[-1]
        k1 = xi_dot(t, xi)
        k2 = xi_dot(t + h / 2, xi + h / 2 * k1)
        k3 = xi_dot(t + h / 2, xi + h / 2 * k2)
        k4 = xi_dot(t + h, xi + h * k3)
        xis.append(xi + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
    z = np.empty((len(times), n))
    v = np.empty(len(times))
    for k, (x, xi, u) in enumerate(zip(states, xis, inputs)):
        z[k], r, s = embedding_terms(plant, w, x, xi)
        v[k] = r * u - s
    return z, np.array(xis), v


# ---------------------------------------------------------------------------
# The output writers as they were before chunked formatting: every array as
# nested Python lists through the stdlib JSON encoder, and one repr per cell.
# ---------------------------------------------------------------------------


def json_text(payload) -> str:
    """``json.dumps(payload, indent=1, sort_keys=True)`` with each ndarray as ``tolist()``."""
    def plain(x):
        if isinstance(x, np.ndarray):
            return x.tolist()
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [plain(v) for v in x]
        return x

    return json.dumps(plain(payload), indent=1, sort_keys=True)


def csv_text(header, columns) -> str:
    """A header line, then one row per sample with ``repr(float(x))`` per cell."""
    lines = [",".join(header)]
    for k in range(len(columns[0])):
        lines.append(",".join(repr(float(col[k])) for col in columns))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Learned chain loops stepped stage by stage, and the per-simplex interval
# maps, for comparison with the tabulated interval propagators.
# ---------------------------------------------------------------------------


def chain_rk4(ctrl, z0, duration: float, dt: float):
    """(times, states, inputs) of the learned chain loop, one rk4 call per interval.

    Each interval start (_interval_starts) anchors the controller at the
    state committed there, and rk4 steps the grid up to the next start,
    evaluating the controller at every stage with tau = t - t_start; the
    next interval re-reads the input at the start it shares.
    """
    from demostab.sim import rk4

    z = np.asarray(z0, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    A, B, T = ctrl.A, ctrl.B, ctrl.T
    times = time_grid(0.0, duration, dt)

    def rhs(t, zz):
        v = ctrl.eval_in_interval(anchor, min(t - start, T), zz)
        return A @ zz + B @ v, v

    starts = _interval_starts(times, T)
    states, inputs = np.empty((len(times),) + z.shape), None
    for lo, hi in zip(starts, starts[1:] + [len(times) - 1]):
        anchor, start = ctrl.begin_interval(z), float(times[lo])
        block, u = rk4(rhs, z, times[lo:hi + 1])
        if inputs is None:
            inputs = np.empty((len(times),) + u.shape[1:])
        states[lo:hi + 1], inputs[lo:hi + 1], z = block, u, block[-1]
    return times, states, inputs


def monodromy_integral_loop(basis, A, B, T=None) -> np.ndarray:
    """Psi(T) = e^{AT} + int_0^T e^{A(T-tau)} B V(tau) Z(0)^{-1} dtau for a nilpotent A, node
    by node.

    The integrand is formed at each grid node up to T, and at T itself from
    basis._interp when T is off the grid.  Composite Simpson runs over step
    pairs from the first node while the two steps agree to 1e-12 relative;
    trapezoids take every step after that.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    T = basis.T if T is None else float(T)
    Z0_inv = np.linalg.inv(basis.Zs[0])
    times = basis.times
    k_last = max(int(np.searchsorted(times, T + 1e-12)) - 1, 0)
    nodes = list(times[: k_last + 1])
    Vs = [basis.Vs[k] for k in range(k_last + 1)]
    if T - nodes[-1] > 1e-12:
        nodes.append(T)
        Vs.append(basis._interp(T)[1])
    terms = A.shape[0] + 1  # the whole series of a nilpotent n x n matrix
    F = [matrix_exp_series(A, T - tau, terms) @ B @ V @ Z0_inv for tau, V in zip(nodes, Vs)]
    integral = np.zeros((A.shape[0], A.shape[0]))
    k = 0
    while k + 2 <= len(nodes) - 1:
        h1 = nodes[k + 1] - nodes[k]
        h2 = nodes[k + 2] - nodes[k + 1]
        if abs(h1 - h2) > 1e-12 * max(h1, h2):
            break
        integral = integral + (h1 / 3.0) * (F[k] + 4.0 * F[k + 1] + F[k + 2])
        k += 2
    while k + 1 <= len(nodes) - 1:
        h = nodes[k + 1] - nodes[k]
        integral = integral + 0.5 * h * (F[k] + F[k + 1])
        k += 1
    return matrix_exp_series(A, T, terms) + integral


def per_simplex_monodromy(ctrl, T=None) -> list[np.ndarray]:
    """Interval maps Psi_j(T) = Z_j(T) Z_j(0)^{-1}, one per simplex."""
    return [basis.monodromy(T) for basis in ctrl.bases]


# ---------------------------------------------------------------------------
# Queries no pipeline stage makes: the state an affine combination predicts,
# barycentric coordinates, the multi controller's index set for an interval,
# the piecewise-linear interpolant and the embedding's drift term s(x, xi).
# ---------------------------------------------------------------------------


def reconstruct(basis, tau: float, zeta):
    """Predicted closed-loop state z(tau) = z_base(tau) + Z(tau) zeta of an AffineBasis.

    Z and z_base are interpolated linearly between the basis's grid samples;
    zeta may be (n,) or a batch (n, k).
    """
    times = basis.times
    k = min(max(int(np.searchsorted(times, tau, side="right")) - 1, 0), len(times) - 2)
    w = (tau - times[k]) / (times[k + 1] - times[k])
    Z = (1.0 - w) * basis.Zs[k] + w * basis.Zs[k + 1]
    zb = (1.0 - w) * basis.z_base[k] + w * basis.z_base[k + 1]
    zeta = np.asarray(zeta, dtype=float)
    return (zb if zeta.ndim == 1 else zb[:, None]) + Z @ zeta


def barycentric(vertices, xi) -> np.ndarray:
    """Affine coordinates theta with sum(theta) = 1 and sum theta_i v_i = xi.

    Coordinates are negative for xi outside the simplex: the affine extension.
    """
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    n = V.shape[1]
    if V.shape[0] != n + 1:
        raise ValueError(f"need n+1 = {n + 1} vertices in R^{n}, got {V.shape[0]}")
    A = np.vstack([np.ones(n + 1), V.T])
    try:
        return np.linalg.solve(A, np.concatenate([[1.0], np.asarray(xi, dtype=float)]))
    except np.linalg.LinAlgError as exc:
        raise DegenerateGeometryError(f"degenerate simplex: {V}") from exc


def select_index_set(ctrl, z_pT):
    """Index set and affine coefficients a MultiController uses for an interval from z_pT.

    Inside the hull the coefficients are the barycentric coordinates of the
    containing simplex (all >= 0); outside, z_pT is an affine combination of
    the vertices of the projection's simplex, so coefficients may be negative.
    """
    z_pT = np.asarray(z_pT, dtype=float)
    idx = ctrl.tri.simplices[ctrl._select_simplex(z_pT)].vertex_indices
    return idx, barycentric(ctrl.tri.points[list(idx)], z_pT)


def pl_interpolate(points, values, tri, x):
    """Piecewise-linear interpolant of values at points on a Triangulation, evaluated at x."""
    from demostab.geometry import locate

    points = np.atleast_2d(np.asarray(points, dtype=float))
    j = locate(tri, x)
    if j is None:
        raise ValueError(f"{np.asarray(x)} is outside the convex hull")
    idx = list(tri.simplices[j].vertex_indices)
    return barycentric(points[idx], x) @ np.asarray(values, dtype=float)[idx]


def stage_map(cfg) -> np.ndarray:
    """The embedding's stage as one dense linear map of p = (plant.terms(x), xi).

    Rows stack z (:n), r (n), s (n+1), drift (n+2:3n+1) and gain (3n+1:), so
    stage_map(cfg) @ p gives all the terms of EmbeddingConfig's docstring in
    one product: the reference the written-out cfg.stage is checked against.
    """
    n, w, A = cfg.n, np.array(cfg.w), cfg.A_xi
    # Columns: f in 0..n-1, g in n..2n-1, lf in 2n..3n, lg in 3n+1..4n,
    # xi in 4n+1..5n-1.
    lf, lg, xi = 2 * n, 3 * n + 1, slice(4 * n + 1, 5 * n)
    M = np.zeros((5 * n, 5 * n))
    M[:n, lf:lf + n] = np.eye(n)                      # z
    M[:n, xi] = np.vstack([np.eye(n - 1), -w])
    M[n, lg:lg + n] = np.append(w, 1.0)               # r
    M[n + 1, lf + n] = -1.0                           # s
    M[n + 1, xi] = A.T @ w
    M[n + 2:2 * n + 2, :n] = np.eye(n)                # drift: f
    M[2 * n + 2:3 * n + 1, xi] = A                    # drift: A_xi xi
    M[3 * n + 1:4 * n + 1, n:2 * n] = np.eye(n)       # gain: g
    M[4 * n + 1:, lg:lg + n - 1] = -np.eye(n - 1)     # gain: -lg[:n-1]
    return M


def s_of_x_xi(cfg, x, xi):
    """Drift term s(x, xi) of an EmbeddingConfig, chosen so that dz_n/dt = -s + r u.

    Read off cfg.stage, the formula the dynamic feedback divides by, so that
    v = -s cancels it exactly; stage_map checks that formula independently.
    """
    from demostab.embed import _stage

    return _stage(cfg, x, xi)[2]


# ---------------------------------------------------------------------------
# Small helpers the pipeline does not need: a plain ODE solve through the RK4
# driver, the demo CSV reader, simplex volumes, and the tracking law at one
# state.
# ---------------------------------------------------------------------------


def integrate(rhs, x0, t0: float, t1: float, dt: float):
    """Trajectory of dx/dt = rhs(t, x) through the RK4 driver; inputs are all zero.

    The driver's divergence guard applies: DivergenceError carries the time.
    """
    from demostab.sim import Trajectory, rk4

    times = time_grid(t0, t1, dt)
    states, inputs = rk4(lambda t, x: (rhs(t, x), 0.0), x0, times)
    return Trajectory(times=times, states=states, inputs=inputs)


def load_demo_csv(path):
    """A demonstration CSV (header t, z1..zn, v or v1..vm) read back as (t, z, v)."""
    lines = open(path).read().strip().splitlines()
    n = sum(1 for c in lines[0].split(",") if c.startswith("z"))
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return rows[:, 0], rows[:, 1:1 + n], rows[:, 1 + n:]


def vertices_of(tri, j: int) -> np.ndarray:
    """Vertex coordinates of simplex j of a triangulation, one row per vertex."""
    return tri.points[list(tri.simplices[j].vertex_indices)]


def simplex_volume(vertices: np.ndarray) -> float:
    """n-volume |det[v_i - v_0]| / n! of a simplex."""
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    return abs(float(np.linalg.det(V[1:] - V[0]))) / math.factorial(V.shape[1])


def setpoint(z_fixed, m: int = 1):
    """Constant reference with zero feedforward (plain stabilization target)."""
    from demostab.systems import Reference

    z_fixed = np.asarray(z_fixed, dtype=float)
    return Reference(z_of_t=lambda t: np.tile(z_fixed, np.shape(t) + (1,)),
                     v_of_t=lambda t: np.zeros(np.shape(t) + (m,)),
                     n=len(z_fixed), m=m, description="setpoint")


def track(ctrl, ref, t: float, z):
    """Tracking input u = v_ref(t) + kappa_hat(t, z - z_ref(t)) at one state."""
    z = np.asarray(z, dtype=float)
    v = np.atleast_1d(np.asarray(ctrl(t, z - ref.z_of_t(t)), dtype=float))
    u = ref.v_of_t(t) + v
    return float(u[0]) if ref.m == 1 else u
