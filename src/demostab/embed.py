"""Integrator-chain embedding for plants without relative degree n.

The plant is augmented with auxiliary states xi in R^{n-1} so that the
extended system carries a chain of n integrators in the coordinates

    z_k = L_f^{k-1} h(x) + xi_k,              k = 1..n-1,
    z_n = L_f^{n-1} h(x) - sum_j w_j xi_j,

driven through the dynamic feedback u = (s(x, xi) + v) / r(x).  With the
auxiliary dynamics below, differentiating z_n gives dz_n/dt = -s + r u = v,
which fixes

    r(x)     = L_g L_f^{n-1} h + sum_j w_j L_g L_f^{j-1} h,
    s(x, xi) = -L_f^n h + sum_{j<=n-2} w_j xi_{j+1}
               - w_{n-1} sum_i w_i xi_i.

Demonstrations of the original plant are transformed by integrating the
auxiliary dynamics along the recorded (x, u) and re-reading the inputs as
v = r u - s; the chain learner then applies unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, SingularEmbeddingError
from .demos import Demonstration, DemonstrationSet
from .plant import PlantModel, brunovsky_pair
from .learner import interval_grid
from .sim import HalfGrid, Trajectory, rk4

# |r(x)| at or below this is a singular embedding.
R_TOL = 1e-6


def companion_from_coeffs(w: Sequence[float]) -> np.ndarray:
    """Companion matrix with ones on the superdiagonal and last row -w."""
    w = np.asarray(w, dtype=float)
    k = len(w)
    A = np.diag(np.ones(k - 1), 1) if k > 1 else np.zeros((1, 1))
    A[-1, :] = -w
    return A


def hurwitz(M: np.ndarray) -> bool:
    """True iff every eigenvalue real part is below -1e-9."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return bool(np.all(np.linalg.eigvals(M).real < -1e-9))


@dataclass(frozen=True)
class EmbeddingConfig:
    """Plant plus the w-coefficients of the auxiliary companion dynamics.

    Construction enforces that the companion matrix built from w is Hurwitz
    (the unforced auxiliary dynamics must decay on their own) and keeps that
    matrix, read-only, as A_xi.  Every term of the embedding at a state is
    linear in p = (plant.terms(x), xi) = (f, g, lf, lg, xi), where
    lf = [L_f^k h]_{k=0..n} and lg = [L_g L_f^k h]_{k=0..n-1}:

        z = lf[:n] + [I; -w] xi,   r = lg[n-1] + w . lg[:n-1],
        s = -lf[n] + (A_xi^T w) . xi,

    and the extended state y = (x, xi) moves as dy/dt = drift + gain u with
    drift = [f; A_xi xi] and gain = [g; -lg[:n-1]].  The rows of stage_map,
    built here, stack z, r, s, drift and gain, so one product stage_map @ p
    gives all of them.
    """

    plant: PlantModel
    w: tuple[float, ...]
    A_xi: np.ndarray = field(init=False, repr=False, compare=False)
    stage_map: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(float(v) for v in self.w))
        n = self.plant.n
        if len(self.w) != n - 1:
            raise ValueError(f"need n-1 = {n - 1} coefficients w, got {len(self.w)}")
        A = companion_from_coeffs(self.w)
        if not hurwitz(A):
            raise ValueError(f"companion matrix of w={self.w} is not Hurwitz")
        w = np.array(self.w)
        # Columns: f in 0..n-1, g in n..2n-1, lf in 2n..3n, lg in 3n+1..4n,
        # xi in 4n+1..5n-1.  Rows: z, r, s, drift, gain.
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
        for name, value in (("A_xi", A), ("stage_map", M)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.plant.n


# The functions below take x shaped (n,) with xi (n-1,), or a batch of states
# as columns, x (n, k) with xi (n-1, k).


def _stage(cfg: EmbeddingConfig, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Rows z (:n), r (n), s (n+1), drift (n+2:3n+1), gain (3n+1:) at (x, xi)."""
    return cfg.stage_map @ np.concatenate([cfg.plant.terms(np.asarray(x, dtype=float)), xi])


def _feedback(r, s, v, x, time=None) -> float:
    if abs(r) <= R_TOL:
        at = "" if time is None else f" at t={time:.6f}"
        raise SingularEmbeddingError(f"r(x) = {r:.3e} at x={np.asarray(x)}{at}", time=time)
    return float((s + v) / r)


def phi_z(cfg: EmbeddingConfig, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Chain coordinates of the extended state (one column per state of a batch)."""
    cfg.plant.require_in_domain(x)
    return _stage(cfg, x, xi)[:cfg.n]


def r_of_x(cfg: EmbeddingConfig, x: np.ndarray):
    """Input coefficient r(x) of the embedded chain's top equation, for x shaped (n, ...)."""
    x, n = np.asarray(x, dtype=float), cfg.n
    return np.tensordot(cfg.stage_map[n, 3 * n + 1:4 * n + 1],
                        cfg.plant.terms(x)[3 * n + 1:], axes=1)


def s_of_x_xi(cfg: EmbeddingConfig, x: np.ndarray, xi: np.ndarray):
    """Drift term s(x, xi), chosen so that dz_n/dt = -s + r u."""
    return _stage(cfg, x, xi)[cfg.n + 1]


def aux_rhs(cfg: EmbeddingConfig, x: np.ndarray, xi: np.ndarray, u) -> np.ndarray:
    """Auxiliary dynamics dxi/dt = A_xi xi - [L_g L_f^{k-1} h(x)]_k u."""
    out, n = _stage(cfg, x, xi), cfg.n
    return out[2 * n + 2:3 * n + 1] + out[4 * n + 1:] * u


def dynamic_feedback(cfg: EmbeddingConfig, x: np.ndarray, xi: np.ndarray, v: float) -> float:
    """Physical input u = (s(x, xi) + v) / r(x) realizing the chain input v."""
    out, n = _stage(cfg, x, xi), cfg.n
    return _feedback(out[n], out[n + 1], float(v), x)


@dataclass(frozen=True)
class EmbeddedDemonstration:
    """Transformed demonstration (z, xi, v) on the recording grid."""

    times: np.ndarray
    z: np.ndarray
    xi: np.ndarray
    v: np.ndarray


def transform_demos(
    cfg: EmbeddingConfig,
    raw: Sequence[Trajectory],
    xi0: Optional[np.ndarray] = None,
) -> list[EmbeddedDemonstration]:
    """Transform recorded (x, u) demonstrations into chain coordinates.

    The auxiliary dynamics are integrated from xi0 (zero by default) driven
    by the recorded signals, interpolated linearly between samples; then
    z = Phi_z(x, xi) and v = r(x) u - s(x, xi) per sample.  A pre-flight scan
    raises if r(x) comes within tolerance of zero at a grid sample of a
    demonstration; it checks the samples only, so r changing sign between
    two samples passes unseen.  The recordings must share one grid, and the
    k of them are integrated together: the forcing -L(x) u of the auxiliary
    dynamics is tabulated once at the RK4 stage times (grid points and step
    midpoints), and one rk4 call moves xi shaped (n-1, k), one recording per
    column.  r, the forcing table, z and v read plant.terms one recording at
    a time, which keeps its 4n+1 rows of temporaries at one recording's size.
    """
    n, k = cfg.n, len(raw)
    xi0 = np.zeros(n - 1) if xi0 is None else np.asarray(xi0, dtype=float)
    if xi0.shape != (n - 1,):
        raise ValueError(f"xi0 must have shape ({n - 1},)")
    grid = raw[0].times
    if not all(np.array_equal(traj.times, grid) for traj in raw):
        raise ValueError("the recordings do not share one time grid")
    states = np.stack([traj.states for traj in raw], axis=2)  # (N, n, k)
    u = np.stack([traj.inputs for traj in raw], axis=1)  # (N, k)
    r_vals = np.column_stack([r_of_x(cfg, states[:, :, i].T) for i in range(k)])
    for i, r in enumerate(r_vals.T):
        j = int(np.abs(r).argmin())
        if abs(r[j]) <= R_TOL:
            raise SingularEmbeddingError(
                f"r(x) = {r[j]:.3e} along demonstration {i} at t={grid[j]:.6f}",
                time=float(grid[j]),
            )

    half = HalfGrid(grid)
    x_half = half.interpolate(states)
    forcing = np.empty((len(half.times), n - 1, k))
    for i in range(k):  # one recording's Lie table at a time
        forcing[:, :, i] = cfg.plant.terms(x_half[:, :, i].T)[3 * n + 1:4 * n].T
    forcing *= -half.interpolate(u)[:, None, :]
    A = cfg.A_xi

    def xi_rhs(t, xi, _):
        return A @ xi + forcing[half.index(t)], 0.0

    _, xi, _ = rk4(xi_rhs, np.repeat(xi0[:, None], k, axis=1), grid[0], grid[-1], grid[1] - grid[0])
    del x_half, forcing  # k recordings' stage tables: not held through the pass below

    out = []
    for i in range(k):
        x = states[:, :, i].T
        cfg.plant.require_in_domain(x)
        terms = _stage(cfg, x, xi[:, :, i].T)
        out.append(EmbeddedDemonstration(times=grid.copy(), z=terms[:n].T.copy(), xi=xi[:, :, i],
                                         v=r_vals[:, i] * u[:, i] - terms[n + 1]))
    return out


def embedded_to_demo_set(embedded: Sequence[EmbeddedDemonstration]) -> DemonstrationSet:
    """Forget the xi component: the (z, v) parts form a chain demonstration set."""
    demos = tuple(Demonstration(times=e.times, z=e.z, v=e.v) for e in embedded)
    pair = brunovsky_pair(demos[0].z.shape[1])
    return DemonstrationSet(demos=demos, A=pair.A, B=pair.B)


def invert_phi_z(
    cfg: EmbeddingConfig,
    z_target: np.ndarray,
    xi: np.ndarray,
    x_guess: Optional[np.ndarray] = None,
    tol: float = 1e-12,
    max_iter: int = 60,
) -> np.ndarray:
    """Solve Phi_z(x, xi) = z_target for x by damped Newton iteration."""
    n = cfg.n
    x = np.zeros(n) if x_guess is None else np.asarray(x_guess, dtype=float).copy()
    z_target = np.asarray(z_target, dtype=float)

    def G(xv):
        return phi_z(cfg, xv, xi) - z_target

    g = G(x)
    for _ in range(max_iter):
        if np.linalg.norm(g) < tol:
            return x
        J = np.empty((n, n))
        eps = 1e-7
        for j in range(n):
            dx = np.zeros(n)
            dx[j] = eps * (1.0 + abs(x[j]))
            J[:, j] = (G(x + dx) - G(x - dx)) / (2.0 * dx[j])
        try:
            step = np.linalg.solve(J, -g)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("Jacobian singular while inverting the coordinate change") from exc
        lam = 1.0
        while lam > 1e-6:
            x_new = x + lam * step
            g_new = G(x_new)
            if np.linalg.norm(g_new) < np.linalg.norm(g):
                x, g = x_new, g_new
                break
            lam *= 0.5
        else:
            raise RuntimeError("numeric inversion of the coordinate change stalled")
    if np.linalg.norm(g) < 1e-9:
        return x
    raise RuntimeError("numeric inversion of the coordinate change did not converge")


def a_w_numeric(cfg: EmbeddingConfig, eps: float = 1e-5) -> np.ndarray:
    """Jacobian correction A_w of the unforced xi-subsystem at the origin.

    Central-difference Jacobian with respect to xi, at (z, xi) = (0, 0), of
    the transformed xi-drift; the practical surrogate for input-to-state
    stability of the auxiliary subsystem is that A_xi + A_w is Hurwitz.  This
    is a local linearization check, not a proof of the ISS condition.
    """
    n = cfg.n

    def drift(xi):
        x = invert_phi_z(cfg, np.zeros(n), xi)
        return aux_rhs(cfg, x, xi, dynamic_feedback(cfg, x, xi, 0.0))

    J = np.empty((n - 1, n - 1))
    for j in range(n - 1):
        dxi = np.zeros(n - 1)
        dxi[j] = eps
        J[:, j] = (drift(dxi) - drift(-dxi)) / (2.0 * eps)
    return J - cfg.A_xi


@dataclass(frozen=True)
class EmbeddedTrajectory:
    """Closed-loop solution of the extended system with both input records."""

    times: np.ndarray
    x: np.ndarray
    xi: np.ndarray
    v: np.ndarray
    u: np.ndarray


def simulate_embedded_closed_loop(
    cfg: EmbeddingConfig,
    ctrl,
    x0: np.ndarray,
    xi0: Optional[np.ndarray] = None,
    duration: float = 10.0,
    dt: float = 1e-3,
) -> EmbeddedTrajectory:
    """Simulate the plant + auxiliary dynamics under the learned chain input.

    At each RK4 stage the chain state is read off as z = Phi_z(x, xi), the
    learned controller supplies v, and the dynamic feedback turns it into the
    physical input u = (s + v) / r.  A stage is one domain test, one
    plant.terms call and one stage_map product; the committed grid states
    are tested by their first stage, so rk4 runs without its grid-point
    domain guard.  The controller is anchored at interval starts from the
    committed chain state there, evaluated the same way, and read through
    interval_groups(anchor): a closed-loop basis reads its K/c table at slot
    round(2 tau / dt), or value(tau, z) on a grid that ends in a shortened
    step, and an open-loop one V zeta + v_base.  v (with the table's offset
    c), r and s are read as Python floats and passed to _feedback.  dt must
    be the demonstration dt (interval_grid).  A stage outside the domain
    (DomainError) or with |r| <= R_TOL (SingularEmbeddingError) fails with
    its absolute time.
    """
    if ctrl.m != 1:
        raise ValueError("the embedding pipeline drives a single-input plant")
    plant = cfg.plant
    n = plant.n
    terms, inside, M = plant.terms, plant.domain_check, cfg.stage_map
    xi0 = np.zeros(n - 1) if xi0 is None else np.asarray(xi0, dtype=float)
    T = ctrl.T
    # Whether the bases' K/c tables hold every stage time of this grid.
    tables = not interval_grid(ctrl, duration, dt)[2]

    def stage(t, y):
        x = y[:n]
        if not inside(x):
            raise DomainError(f"state {x} is outside the domain of {plant.name} at t={t:.6f}",
                              time=t)
        return M @ np.concatenate([terms(x), y[n:]])

    def begin(t, y):
        (basis, _, zeta), = ctrl.interval_groups(ctrl.begin_interval(stage(t, y)[:n]))
        if not tables or zeta is not None:
            return t, basis, zeta, None
        _, K, c = basis.gains
        return t, basis, zeta, (K, c[:, 0].tolist())

    def rhs(tau, y, anchor):
        start, basis, zeta, table = anchor
        t = start + tau
        out = stage(t, y)
        z, tau = out[:n], min(tau, T)
        if table is not None:
            K, c = table
            j = round(2.0 * tau / dt)
            v = (K[j] @ z).item(0) + c[j]
        elif zeta is None:
            v = basis.value(tau, z).item(0)
        else:
            v = basis.value_from_zeta(tau, zeta).item(0)
        r, s = out[n:n + 2].tolist()
        u = _feedback(r, s, v, y[:n], t)
        return out[n + 2:3 * n + 1] + out[3 * n + 1:] * u, (v, u)

    times, states, inputs = rk4(rhs, np.concatenate([x0, xi0]), 0.0, duration, dt, period=T,
                                begin=begin)
    return EmbeddedTrajectory(times=times, x=states[:, :n], xi=states[:, n:],
                              v=inputs[:, 0], u=inputs[:, 1])
