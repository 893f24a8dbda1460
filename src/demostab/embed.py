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

Each EmbeddingConfig writes these formulas out once, for its n and w, as
one stage function of the rows of plant.terms and of xi; every quantity of
the embedding is read off it, on Python floats for one state and on NumPy
rows for a batch, with the same bits either way.  Demonstrations of the
original plant are transformed by integrating the auxiliary dynamics along
the recorded (x, u) and re-reading the inputs as v = r u - s; the chain
learner then applies unchanged.  The learned chain input drives the
extended system one interval at a time, one rk4 call per interval on
floats, anchored as the chain simulator anchors it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, SingularEmbeddingError
from .demos import DemonstrationSet
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


def _stage_source(n: int, w: tuple[float, ...]) -> str:
    """Source of the stage function of an embedding with n states and coefficients w."""
    f, g = [f"f{i}" for i in range(n)], [f"g{i}" for i in range(n)]
    lf, lg = [f"lf{k}" for k in range(n + 1)], [f"lg{k}" for k in range(n)]
    xi = [f"xi{j}" for j in range(n - 1)]

    def dot(coeffs, rows):  # left to right, one product per coefficient
        return " + ".join(f"{c!r} * {row}" for c, row in zip(coeffs, rows))

    shifted = f" + ({dot(w[:n - 2], xi[1:])})" if n > 2 else ""
    return "\n".join([
        "def stage(p, xi):",
        f"    {', '.join(f + g + lf + lg)} = p",
        f"    {', '.join(xi)}, = xi",
        f"    wxi = {dot(w, xi)}",
        f"    return ([{', '.join(f'{a} + {b}' for a, b in zip(lf, xi))}, {lf[n - 1]} - wxi],",
        f"            {lg[n - 1]} + ({dot(w, lg)}),",
        f"            -{lf[n]}{shifted} - {w[n - 2]!r} * wxi,",
        f"            [{', '.join(f + xi[1:])}, -wxi],",
        f"            [{', '.join(g + [f'-{row}' for row in lg[:n - 1]])}])",
    ])


@dataclass(frozen=True)
class EmbeddingConfig:
    """Plant plus the w-coefficients of the auxiliary companion dynamics.

    Construction enforces that the companion matrix built from w is Hurwitz
    (the unforced auxiliary dynamics must decay on their own) and keeps that
    matrix, read-only, as A_xi.  Every term of the embedding at a state is
    read off the rows of p = plant.terms(x) = (f, g, lf, lg), where
    lf = [L_f^k h]_{k=0..n} and lg = [L_g L_f^k h]_{k=0..n-1}, and of xi:

        z_k = lf_k + xi_k (k < n-1),   z_{n-1} = lf_{n-1} - w . xi,
        r = lg_{n-1} + w . lg[:n-1],
        s = -lf_n + w[:n-2] . xi[1:] - w_{n-2} (w . xi),

    and the extended state y = (x, xi) moves as dy/dt = drift + gain u with
    drift = [f; A_xi xi] = [f; xi[1:]; -w . xi] and gain = [g; -lg[:n-1]].
    Construction writes these formulas out once for this n and w, with w as
    constants, into one function stage(p, xi) -> (z, r, s, drift, gain),
    whose z, drift and gain are lists of rows.  Every dot product is summed
    left to right and w . xi is formed once.  Its rows are Python floats for
    one state (p and xi as lists) or NumPy rows for a batch (p (4n+1, k),
    xi (n-1, k)); both take the same operations in the same order, so a
    state gets the bits of its batch column, and no product goes through
    BLAS.
    """

    plant: PlantModel
    w: tuple[float, ...]
    A_xi: np.ndarray = field(init=False, repr=False, compare=False)
    stage: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(float(v) for v in self.w))
        n = self.plant.n
        if len(self.w) != n - 1:
            raise ValueError(f"need n-1 = {n - 1} coefficients w, got {len(self.w)}")
        A = companion_from_coeffs(self.w)
        if not hurwitz(A):
            raise ValueError(f"companion matrix of w={self.w} is not Hurwitz")
        A.flags.writeable = False
        namespace: dict = {}
        exec(_stage_source(n, self.w), namespace)
        object.__setattr__(self, "A_xi", A)
        object.__setattr__(self, "stage", namespace["stage"])

    @property
    def n(self) -> int:
        return self.plant.n


# The functions below take x shaped (n,) with xi (n-1,), or a batch of states
# as columns, x (n, k) with xi (n-1, k).


def _stage(cfg: EmbeddingConfig, x: np.ndarray, xi: np.ndarray):
    """cfg.stage at (x, xi): on Python floats for one state, on NumPy rows for a batch."""
    x, xi = np.asarray(x, dtype=float), np.asarray(xi, dtype=float)
    if x.ndim == 1:
        return cfg.stage(cfg.plant.terms(x.tolist()), xi.tolist())
    return cfg.stage(cfg.plant.terms(x), xi)


def _feedback(r, s, v, x, time=None) -> float:
    if abs(r) <= R_TOL:
        at = "" if time is None else f" at t={time:.6f}"
        raise SingularEmbeddingError(f"r(x) = {r:.3e} at x={np.asarray(x)}{at}", time=time)
    return float((s + v) / r)


def phi_z(cfg: EmbeddingConfig, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Chain coordinates of the extended state (one column per state of a batch)."""
    cfg.plant.require_in_domain(x)
    return np.array(_stage(cfg, x, xi)[0])


def r_of_x(cfg: EmbeddingConfig, x: np.ndarray):
    """Input coefficient r(x) of the embedded chain's top equation, for x shaped (n,) or (n, k)."""
    x = np.asarray(x, dtype=float)
    return _stage(cfg, x, np.zeros((cfg.n - 1,) + x.shape[1:]))[1]


def aux_rhs(cfg: EmbeddingConfig, x: np.ndarray, xi: np.ndarray, u) -> np.ndarray:
    """Auxiliary dynamics dxi/dt = A_xi xi - [L_g L_f^{k-1} h(x)]_k u."""
    _, _, _, drift, gain = _stage(cfg, x, xi)
    return np.array([d + g * u for d, g in zip(drift[cfg.n:], gain[cfg.n:])])


def dynamic_feedback(cfg: EmbeddingConfig, x: np.ndarray, xi: np.ndarray, v: float) -> float:
    """Physical input u = (s(x, xi) + v) / r(x) realizing the chain input v."""
    _, r, s, _, _ = _stage(cfg, x, xi)
    return _feedback(r, s, float(v), x)


def transform_demos(cfg: EmbeddingConfig,
                    batch: Trajectory) -> tuple[DemonstrationSet, np.ndarray]:
    """Transform a recorded batch of (x, u) runs into chain coordinates.

    batch holds k recordings on one grid, states (N, n, k) and inputs
    (N, k), as record_expert returns them.  The auxiliary dynamics are
    integrated from xi = 0, which keeps the trivial recording at z = 0 as
    the set's column 0 must be, driven by the recorded signals,
    interpolated linearly between samples; then z = Phi_z(x, xi) and
    v = r(x) u - s(x, xi) per sample.  Returns the chain demonstration set,
    recording i in column i, and the auxiliary states xi shaped (N, n-1, k).
    The forcing -L(x) u of the auxiliary dynamics is tabulated once at the
    RK4 stage times (grid points and step midpoints), and one rk4 call on
    the recording grid moves xi shaped (n-1, k), one recording per column.
    Then each recording takes one pass: the domain test of its samples, one
    plant.terms call, and z, r and s from cfg.stage on the rows of those
    terms and of xi, as NumPy rows over the recording's samples, the same
    formulas a single state takes on floats; a scan raises if r comes
    within tolerance of zero at a sample (it checks the samples only, so r
    changing sign between two samples passes unseen).  The forcing table,
    r, z and v read plant.terms one recording at a time, which keeps its
    4n+1 rows of temporaries at one recording's size.
    """
    n = cfg.n
    grid, states, u = batch.times, batch.states, batch.inputs  # (N,), (N, n, k), (N, k)
    k = states.shape[2]
    half = HalfGrid(grid)
    x_half = half.interpolate(states)
    forcing = np.empty((len(half.times), n - 1, k))
    for i in range(k):  # one recording's Lie table at a time
        forcing[:, :, i] = cfg.plant.terms(x_half[:, :, i].T)[3 * n + 1:4 * n].T
    forcing *= -half.interpolate(u)[:, None, :]
    A = cfg.A_xi

    def xi_rhs(t, xi):
        return A @ xi + forcing[half.index(t)], 0.0

    xi, _ = rk4(xi_rhs, np.zeros((n - 1, k)), grid)
    del x_half, forcing  # k recordings' stage tables: not held through the pass below

    z, v = np.empty(states.shape), np.empty(u.shape)
    for i in range(k):
        x = states[:, :, i].T
        cfg.plant.require_in_domain(x)
        z_rows, r, s, _, _ = cfg.stage(cfg.plant.terms(x), xi[:, :, i].T)
        j = int(np.abs(r).argmin())
        if abs(r[j]) <= R_TOL:
            raise SingularEmbeddingError(
                f"r(x) = {r[j]:.3e} along demonstration {i} at t={grid[j]:.6f}",
                time=float(grid[j]),
            )
        for row, value in enumerate(z_rows):
            z[:, row, i] = value
        v[:, i] = r * u[:, i] - s
    pair = brunovsky_pair(n)
    return DemonstrationSet(grid=grid, z=z, v=v, A=pair.A, B=pair.B), xi


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
) -> EmbeddedTrajectory:
    """Simulate the plant + auxiliary dynamics under the learned chain input.

    x0 is one start shaped (n,) and xi0 one auxiliary state shaped (n-1,)
    (zero if not given); any other shape is a ValueError.  At each RK4 stage
    the chain state is read off as z = Phi_z(x, xi), the learned controller
    supplies v, and the dynamic feedback turns it into the physical input
    u = (s + v) / r.  rk4 steps the single state as a list of Python
    floats, and a stage stays on that list end to end: one domain test,
    plant.terms and cfg.stage on the list's slices, one read of the law and
    drift + gain u, returned as a list.  The committed grid states are
    tested by their first stage, so rk4 runs without its grid-point domain
    guard.  Each interval of interval_grid is one rk4 call; the anchor is
    read off the chain state of the interval's first stage, after rk4's
    divergence test of that point, and the later of two intervals re-reads
    their shared boundary point's input.  Both feedback modes read the law
    v = G[j] y + g[j] of the basis interval_groups(anchor) names, from
    basis.gains with y = z (closed loop) or basis.law(open_loop=True) with
    y = zeta (open loop), taken as Python floats once per basis and summed
    left to right, at slot round(2 tau / dt), dt = ctrl.dt: interval_grid
    refuses a duration that is no whole number of steps, so every stage of
    every interval is on a slot.  A stage outside the domain (DomainError)
    or with |r| <= R_TOL (SingularEmbeddingError) fails with its absolute
    time.
    """
    if ctrl.m != 1:
        raise ValueError("the embedding pipeline drives a single-input plant")
    plant = cfg.plant
    n = plant.n
    x0 = np.asarray(x0, dtype=float)
    xi0 = np.zeros(n - 1) if xi0 is None else np.asarray(xi0, dtype=float)
    for name, value, size in (("x0", x0, n), ("xi0", xi0, n - 1)):
        if value.shape != (size,):
            raise ValueError(f"{name} must be shaped ({size},), got {value.shape}")
    terms, inside, stage = plant.terms, plant.domain_check, cfg.stage
    T, dt = ctrl.T, ctrl.dt
    times, N = interval_grid(ctrl, duration)
    anchor = None  # (start, zeta as floats or None, G rows, g)
    laws = {}  # id(basis) -> (G rows, g) as Python floats

    def begin(t, z):
        """The anchor of an interval whose first stage is at t with chain state z."""
        (basis, _, zeta), = ctrl.interval_groups(ctrl.begin_interval(np.array(z)))
        if id(basis) not in laws:
            _, G, g = basis.gains if zeta is None else basis.law(open_loop=True)
            laws[id(basis)] = G[:, 0].tolist(), g[:, 0].tolist()
        return (t, None if zeta is None else np.ravel(zeta).tolist()) + laws[id(basis)]

    def rhs(t, y):
        nonlocal anchor
        x = y[:n]
        if not inside(x):
            raise DomainError(f"state {np.array(x)} is outside the domain of {plant.name} "
                              f"at t={t:.6f}", time=t)
        z, r, s, drift, gain = stage(terms(x), y[n:])
        if anchor is None:  # the interval's first stage: its start
            anchor = begin(t, z)
        start, zeta, G, g = anchor
        j = round(2.0 * min(t - start, T) / dt)
        w, Gj = z if zeta is None else zeta, G[j]
        v = Gj[0] * w[0]
        for i in range(1, n):  # G(tau) y, left to right
            v += Gj[i] * w[i]
        v += g[j]
        u = _feedback(r, s, v, x, t)
        return [a + b * u for a, b in zip(drift, gain)], (v, u)

    states = np.empty((len(times), 2 * n - 1))
    inputs = np.empty((len(times), 2))
    states[0] = np.concatenate([x0, xi0])
    for lo in range(0, len(times), N):
        hi = min(lo + N, len(times) - 1)
        anchor = None
        states[lo:hi + 1], inputs[lo:hi + 1] = rk4(rhs, states[lo], times[lo:hi + 1])
    return EmbeddedTrajectory(times=times, x=states[:, :n], xi=states[:, n:],
                              v=inputs[:, 0], u=inputs[:, 1])
