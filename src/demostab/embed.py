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
one stage function cfg.stage of the rows of plant.terms and of xi; every
quantity of the embedding is read off it, on Python floats for one state
and on NumPy rows for a batch, with the same bits either way.  From the
same expressions it writes the closed-loop field of one state: the domain
test and the plant's terms, z, r and s, the law's row applied to z or to a
frozen zeta, u = (s + v) / r and the extended derivative, in one call on
floats.  A plant with a PlantSource (the ball-beam) has its domain predicate,
helpers and term rows written into that field, so that an RK4 stage makes no
other Python call; a plant given only as callables (chain<N>, or a stand-in
built with dataclasses.replace) has the field call its domain_check and
terms, the only way to reach them.  Demonstrations of the original
plant are transformed by integrating the auxiliary dynamics along the
recorded (x, u), an affine flow in xi that affine_interval_maps moves, and
re-reading the inputs as v = r u - s; the chain learner then applies
unchanged.  The learned chain input drives the extended system one interval
at a time, one rk4 call per interval on floats, each stage one call of the
closed-loop field, anchored as the chain simulator anchors it.  The
linearization A_w of the auxiliary subsystem on z = 0 is one
central-difference Jacobian of one batched cfg.stage call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, SingularEmbeddingError
from .demos import DemonstrationSet
from .plant import FLOAT_CALLS, PlantModel, PlantSource, brunovsky_pair
from .learner import interval_grid
from .sim import Trajectory, affine_interval_maps, check_divergence, half_slots, rk4

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


def _embedding_source(n: int, w: tuple[float, ...], source: Optional[PlantSource]) -> str:
    """Source of stage and loop_field for an embedding with n states and coefficients w.

    With the plant's source, loop_field's head is the plant's domain test,
    helpers and term rows, their names prefixed with _ so that none shadows
    the embedding's own; without it, one domain_check and one terms call.
    """
    f, g = [f"f{i}" for i in range(n)], [f"g{i}" for i in range(n)]
    lf, lg = [f"lf{k}" for k in range(n + 1)], [f"lg{k}" for k in range(n)]
    xi = [f"xi{j}" for j in range(n - 1)]

    def dot(coeffs, rows):  # left to right, one product per coefficient
        return " + ".join(f"{c!r} * {row}" for c, row in zip(coeffs, rows))

    shifted = f" + ({dot(w[:n - 2], xi[1:])})" if n > 2 else ""
    z = [f"{a} + {b}" for a, b in zip(lf, xi)] + [f"{lf[n - 1]} - wxi"]
    drift, gain = f + xi[1:] + ["-wxi"], g + [f"-{row}" for row in lg[:n - 1]]
    r, s = f"{lg[n - 1]} + ({dot(w, lg)})", f"-{lf[n]}{shifted} - {w[n - 2]!r} * wxi"
    names, wxi = ", ".join(f + g + lf + lg), f"    wxi = {dot(w, xi)}"
    outside = ["        return None, None, None, None"]
    if source is None:
        head = [f"    [{', '.join(xi)}] = y[{n}:]", f"    x = y[:{n}]",
                "    if not domain_check(x):", *outside, f"    [{names}] = terms(x)"]
    else:
        state, domain, helpers, rows = source.spelled("_")
        head = [f"    [{', '.join(state + xi)}] = y", f"    if not ({domain}):", *outside,
                *(f"    {line}" for line in helpers), f"    {names} = {', '.join(rows)}"]

    def law(y):  # G_j y + g_j, left to right
        return " + ".join([f"G{i} * {row}" for i, row in enumerate(y)] + ["gj"])

    zeta = [f"zeta{i}" for i in range(n)]
    return "\n".join([
        "def stage(p, xi):",
        f"    [{', '.join(xi)}] = xi",
        f"    [{names}] = p",
        wxi,
        f"    return [{', '.join(z)}], {r}, {s}, [{', '.join(drift)}], [{', '.join(gain)}]",
        "",
        "def loop_field(y, Gj, gj, zeta, begin=None):",
        *head,
        wxi,
        f"    r = {r}",
        f"    s = {s}",
        "    if begin is not None:",
        f"        Gj, gj, zeta = begin([{', '.join(z)}])",
        f"    [{', '.join(f'G{i}' for i in range(n))}] = Gj",
        "    if zeta is None:",
        f"        v = {law([f'({row})' for row in z])}",
        "    else:",
        f"        [{', '.join(zeta)}] = zeta",
        f"        v = {law(zeta)}",
        f"    if abs(r) <= {R_TOL!r}:",
        "        return None, r, v, None",
        "    u = (s + v) / r",
        f"    return ({', '.join(f'{a} + {b} * u' for a, b in zip(drift, gain))}), r, v, u",
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
    constants, into stage(p, xi) -> (z, r, s, drift, gain), whose z, drift
    and gain are lists of rows.  Every dot product is summed left to right
    and w . xi is formed once.  Its rows are Python floats for one state (p
    and xi as lists) or NumPy rows for a batch (p (4n+1, k), xi (n-1, k));
    both take the same operations in the same order, so a state gets the
    bits of its batch column, and no product goes through BLAS.  From the
    same expressions it writes the closed-loop field of one state on
    floats, loop_field(y, Gj, gj, zeta, begin=None) -> (dy/dt, r, v, u): y
    is the extended state as a list, (Gj, gj) a row of the law
    v = Gj y' + gj, summed left to right, with y' = z if zeta is None and
    the frozen zeta otherwise, u = (s + v) / r and dy/dt = drift + gain u
    as a tuple.  With begin, the row and zeta are begin(z) instead, for the
    first stage of an interval.  The field first tests y's x against the
    domain and reads the terms of x: for a plant with a source, from the
    source's predicate, helpers and rows written into the field (names
    prefixed with _, constants as literals, every row as written: a zero
    row of g still multiplies u, so -0.0 and non-finite bits fall as
    through plant.terms); for a plant of callables, by
    one domain_check and one terms call.  Outside the domain it returns
    (None, None, None, None); with |r| <= R_TOL, dy/dt and u are None.
    """

    plant: PlantModel
    w: tuple[float, ...]
    A_xi: np.ndarray = field(init=False, repr=False, compare=False)
    stage: Callable = field(init=False, repr=False, compare=False)
    loop_field: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(float(v) for v in self.w))
        n = self.plant.n
        if len(self.w) != n - 1:
            raise ValueError(f"need n-1 = {n - 1} coefficients w, got {len(self.w)}")
        A = companion_from_coeffs(self.w)
        if not hurwitz(A):
            raise ValueError(f"companion matrix of w={self.w} is not Hurwitz")
        A.flags.writeable = False
        plant = self.plant
        namespace = (dict(FLOAT_CALLS) if plant.source is not None else
                     {"domain_check": plant.domain_check, "terms": plant.terms})
        exec(_embedding_source(n, self.w, plant.source), namespace)
        object.__setattr__(self, "A_xi", A)
        for name in ("stage", "loop_field"):
            object.__setattr__(self, name, namespace[name])

    @property
    def n(self) -> int:
        return self.plant.n


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
    Each recording's samples take the domain test (a DomainError gets the
    note "demonstration i, sample j"), and its forcing -L(x) u of the
    auxiliary dynamics is tabulated on the half_slots of the grid.  The flow
    xi' = A_xi xi + forcing is affine, so one affine_interval_maps call, one
    forcing column per recording, gives xi at every grid point; every grid
    state takes rk4's divergence test.  Then each recording takes one pass:
    one plant.terms call, and z, r and s from cfg.stage on the rows of those
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
    forcing = np.empty((2 * len(grid) - 1, n - 1, k))
    for i in range(k):  # one recording's stage states and Lie table at a time
        try:
            cfg.plant.require_in_domain(states[:, :, i].T)
        except DomainError as exc:
            exc.add_note(f"demonstration {i}, sample {exc.column}")
            raise
        forcing[:, :, i] = cfg.plant.terms(half_slots(states[:, :, i]).T)[3 * n + 1:4 * n].T
    forcing *= -half_slots(u)[:, None, :]
    # A copy, not a view that would hold the maps.
    xi = np.ascontiguousarray(affine_interval_maps(cfg.A_xi, np.eye(n - 1), None, forcing,
                                                   float(grid[1] - grid[0]))[1])
    del forcing  # k recordings' forcing table: not held through the pass below
    check_divergence(xi, grid)

    z, v = np.empty(states.shape), np.empty(u.shape)
    for i in range(k):
        z_rows, r, s, _, _ = cfg.stage(cfg.plant.terms(states[:, :, i].T), xi[:, :, i].T)
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


def a_w_numeric(cfg: EmbeddingConfig, eps: float = 1e-5) -> np.ndarray:
    """Jacobian correction A_w of the unforced xi-subsystem at the origin.

    On the manifold z = Phi_z(x, xi) = 0 under v = 0, xi moves as
    xi' = F(x, xi) = drift[n:] + gain[n:] s / r with x = x(xi), and the
    implicit-function theorem gives its Jacobian at (x, xi) = (0, 0) as
    F_xi - F_x Phi_x^{-1} Phi_xi.  One cfg.stage call on a batch of the
    2(2n-1) states (x, xi) = +-eps e_j takes the central differences of
    (Phi_z, F), and A_w is that Jacobian minus A_xi.  The practical
    surrogate for input-to-state stability of the auxiliary subsystem is
    that A_xi + A_w is Hurwitz.  This is a local linearization check, not a
    proof of the ISS condition.  |r| <= R_TOL at a state of the batch is a
    SingularEmbeddingError.
    """
    n, d = cfg.n, 2 * cfg.n - 1
    y = eps * np.hstack([np.eye(d), -np.eye(d)])  # column j: +eps e_j, column d + j: -eps e_j
    z, r, s, drift, gain = cfg.stage(cfg.plant.terms(y[:n]), y[n:])
    if np.abs(r).min() <= R_TOL:
        raise SingularEmbeddingError(f"r(x) = {r[np.abs(r).argmin()]:.3e} within {eps:g} of "
                                     f"the origin: A_w is undefined")
    G = np.vstack([z, np.array(drift[n:]) + np.array(gain[n:]) * (s / r)])
    J = (G[:, :d] - G[:, d:]) / (2.0 * eps)  # rows (Phi_z, F), columns (x, xi)
    return J[n:, n:] - J[n:, :n] @ np.linalg.solve(J[:n, :n], J[:n, n:]) - cfg.A_xi


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
    floats, and a stage stays on floats end to end: one call of
    cfg.loop_field on the list and the law's row at the stage's slot, which
    tests the domain, evaluates the plant's terms (inlined for a plant with
    a source, called otherwise; see EmbeddingConfig) and returns the
    derivative as a tuple with v and u (at the interval's first stage it
    hands z to the anchor and takes the law's first row back).  The
    committed grid states are tested by their first stage, so rk4 runs
    without its grid-point domain guard.  Each interval of interval_grid is
    one rk4 call; the anchor is read off the chain state of the interval's
    first stage, after rk4's divergence test of that point, and the later of
    two intervals re-reads their shared boundary point's input.  Both
    feedback modes read the law
    v = G[j] y + g[j] of the basis interval_groups(anchor) names, from
    basis.law(open_loop) with y = z (closed loop) or y = zeta (open loop),
    taken as Python floats once per basis per run and summed left to right
    inside loop_field, at slot round(2 tau / dt), dt = ctrl.dt: interval_grid
    refuses a duration that is no whole number of steps, so every stage of
    every interval is on a slot.  A stage outside the domain (DomainError)
    or with |r| <= R_TOL (SingularEmbeddingError) fails with its absolute
    time, in the same line whether the field inlines the terms or calls them.
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
    loop_field, T, dt = cfg.loop_field, ctrl.T, ctrl.dt
    times, N = interval_grid(ctrl, duration)
    anchor = None  # (start, zeta as floats or None, G rows, g)
    laws = {}  # id(basis) -> (G rows, g) as Python floats

    def begin(t, z):
        """Anchor the interval whose first stage is at t with chain state z, and return
        the law's first row and the frozen zeta: (G[0], g[0], zeta)."""
        nonlocal anchor
        (basis, _, zeta), = ctrl.interval_groups(ctrl.begin_interval(np.array(z)))
        if id(basis) not in laws:
            G, g = basis.law(open_loop=zeta is not None)
            laws[id(basis)] = G[:, 0].tolist(), g[:, 0].tolist()
        G, g = laws[id(basis)]
        anchor = (t, None if zeta is None else np.ravel(zeta).tolist(), G, g)
        return G[0], g[0], anchor[1]

    def rhs(t, y):
        if anchor is None:  # the interval's first stage: its start
            dy, r, v, u = loop_field(y, None, None, None, lambda z: begin(t, z))
        else:
            start, zeta, G, g = anchor
            j = round(2.0 * min(t - start, T) / dt)
            dy, r, v, u = loop_field(y, G[j], g[j], zeta)
        if dy is None:
            x = np.array(y[:n])
            if r is None:
                raise DomainError(f"state {x} is outside the domain of {plant.name} "
                                  f"at t={t:.6f}", time=t)
            raise SingularEmbeddingError(f"r(x) = {r:.3e} at x={x} at t={t:.6f}", time=t)
        return dy, (v, u)

    states = np.empty((len(times), 2 * n - 1))
    inputs = np.empty((len(times), 2))
    states[0] = np.concatenate([x0, xi0])
    for lo in range(0, len(times), N):
        hi = min(lo + N, len(times) - 1)
        anchor = None
        states[lo:hi + 1], inputs[lo:hi + 1] = rk4(rhs, states[lo], times[lo:hi + 1])
    return EmbeddedTrajectory(times=times, x=states[:, :n], xi=states[:, n:],
                              v=inputs[:, 0], u=inputs[:, 1])
