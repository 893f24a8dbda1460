"""Affine recombination of demonstrations and the learned chain controllers.

From n+1 demonstrations with affinely independent initial states, the
difference matrices

    Z(t) = [z^{i_2}(t) - z^{i_1}(t) | ... | z^{i_{n+1}}(t) - z^{i_1}(t)]
    V(t) = [v^{i_2}(t) - v^{i_1}(t) | ... | v^{i_{n+1}}(t) - v^{i_1}(t)]

turn any state into affine-combination coefficients.  Time is partitioned
into intervals of length T; within interval p the controller replays the
affine combination of demonstration inputs

    v(t) = v^{i_1}(tau) + V(tau) zeta,   tau = t - pT,

with zeta either frozen at the interval start (open-loop variant) or
recomputed from the current state as zeta = Z(tau)^{-1} (z - z^{i_1}(tau))
(closed-loop variant, the default).  When the base demonstration i_1 is the
trivial one, the base terms vanish and these reduce to v = V(tau) Z^{-1} z.

Within an interval the closed-loop law is affine in the state,

    v(t) = K(tau) z + c(tau),   K = V Z^{-1},   c = v^{i_1} - K z^{i_1},

so each basis tabulates K and c once, on the grid points and the step
midpoints where RK4 evaluates it (the law), and the learned loops read the
table instead of solving with Z(tau).

The same affinity makes an RK4 step of the learned chain loop
z' = (A + B K) z + B c at the demonstration dt an affine map.  A basis
composes those maps into an interval propagator (Pi_i, psi_i), and the chain
simulator moves a whole batch through an interval with
z(pT + t_i) = Pi_i z(pT) + psi_i.  The open-loop law, with zeta frozen, is
the free flow z' = A z forced by B V zeta + B v_base, so each column of V
and v_base is one forcing of the same construction.

Both learned-loop simulators, the chain simulator here and the embedded
loop, anchor in one loop over the intervals of interval_grid: interval p
starts at grid index pN (N = T/dt), neighbouring intervals share their
boundary point, the later one re-reading its input under its own anchor,
and a last point on a boundary starts a zero-step interval.

A learned controller is fixed by its demonstrations and the index sets
chosen from them, so the controller file records only those choices and the
SHA-256 of the demo_set.json beside it; loading it learns the controller
again from that set with learn_controller, the builder the learn stage uses,
unless this process already holds the controller of those exact bytes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .demos import DemonstrationSet, difference_matrices, read_demo_set
from .errors import AffineDependenceError
from .files import Memo, decode_json, write_json
from .plant import brunovsky_pair
from .sim import (
    Trajectory,
    affine_interval_maps,
    check_divergence,
    half_slots,
    interval_index,
    time_grid,
    whole_steps,
)

# Reject bases whose Z(t) condition number exceeds this anywhere on the grid.
COND_MAX = 1e12


@dataclass(frozen=True)
class IntervalPropagator:
    """The learned chain loop of one basis over an interval, on its grid.

    Grid state i of an interval is P[i] @ x + psi[i], where x is the state
    z(pT) at the interval start for the closed-loop law and the stack
    (z(pT), zeta) for the open-loop law.  The input applied there is
    G[i] @ y + g[i], with y the grid state (closed loop) or zeta (open loop).
    """

    P: np.ndarray  # (N+1, n, d)
    psi: np.ndarray  # (N+1, n)
    G: np.ndarray  # (N+1, m, n)
    g: np.ndarray  # (N+1, m)


@dataclass(frozen=True)
class AffineBasis:
    """Grid-sampled difference matrices for one index set of demonstrations."""

    index_set: tuple[int, ...]
    times: np.ndarray
    Zs: np.ndarray
    Vs: np.ndarray
    z_base: np.ndarray
    v_base: np.ndarray

    @property
    def n(self) -> int:
        return self.Zs.shape[1]

    @property
    def m(self) -> int:
        return self.Vs.shape[1]

    @property
    def T(self) -> float:
        return float(self.times[-1])

    def _interp(self, tau: float):
        """Entry-wise linear interpolation of Z, V and the base samples at tau."""
        T = self.times[-1]
        if tau < -1e-9 or tau > T + 1e-9:
            raise ValueError(f"tau={tau} outside [0, {T}]")
        tau = min(max(tau, 0.0), T)
        dt = self.times[1] - self.times[0]
        i = min(int(tau / dt), len(self.times) - 2)
        w = (tau - self.times[i]) / (self.times[i + 1] - self.times[i])
        w = min(max(w, 0.0), 1.0)
        if w == 0.0:
            return self.Zs[i], self.Vs[i], self.z_base[i], self.v_base[i]
        return tuple((1.0 - w) * a[i] + w * a[i + 1]
                     for a in (self.Zs, self.Vs, self.z_base, self.v_base))

    def zeta(self, tau: float, z: np.ndarray) -> np.ndarray:
        """Solve Z(tau) zeta = z - z_base(tau); z may be (n,) or a batch (n, k)."""
        Z, _, zb, _ = self._interp(tau)
        z = np.asarray(z, dtype=float)
        rhs = z - (zb if z.ndim == 1 else zb[:, None])
        try:
            return np.linalg.solve(Z, rhs)
        except np.linalg.LinAlgError as exc:
            raise AffineDependenceError(f"Z(tau) singular at tau={tau}", time=tau) from exc

    def law(self, open_loop: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """The law on the half_slots of the grid: (G, g), v = G[j] y + g[j] at slot j.

        Closed loop: G = K = V Z^{-1} and g = c = v_base - K z_base, with y
        the chain state z.  Open loop: G = V and g = v_base, with y the
        frozen zeta.  At a midpoint Z, V and the base samples are the
        averages of the two grid samples, as _interp forms them there.
        """
        V, vb = half_slots(self.Vs), half_slots(self.v_base)
        if open_loop:
            return V, vb
        Z, zb = half_slots(self.Zs), half_slots(self.z_base)
        Zt = np.swapaxes(Z, 1, 2)
        try:
            K = np.swapaxes(np.linalg.solve(Zt, np.swapaxes(V, 1, 2)), 1, 2)
        except np.linalg.LinAlgError as exc:
            tau = float(half_slots(self.times)[np.argmin(np.abs(np.linalg.det(Zt)))])
            raise AffineDependenceError(f"Z(tau) singular at tau={tau}", time=tau) from exc
        return K, vb - (K @ zb[:, :, None])[:, :, 0]

    def propagator(self, A: np.ndarray, B: np.ndarray, open_loop: bool = False
                   ) -> IntervalPropagator:
        """Interval propagator of dz/dt = A z + B v under this basis's law.

        The flows come from the slot table of law(open_loop), which is not
        kept on the basis, through one affine_interval_maps call.  Closed
        loop: feedback K and the one forcing c.  Open loop: no feedback, and
        V's n columns and v_base are n+1 forcings; the responses to V's
        columns are the columns of P that act on the frozen zeta, so
        P = [Pi | psi_1 .. psi_n] and psi is the response to v_base.
        """
        G, g = self.law(open_loop)
        K, c = G, g[:, :, None]
        if open_loop:
            K, c = None, np.concatenate([G, c], axis=2)
        Pi, psi = affine_interval_maps(A, B, K, c, float(self.times[1] - self.times[0]))
        return IntervalPropagator(P=np.concatenate([Pi, psi[:, :, :-1]], axis=2),
                                  psi=np.ascontiguousarray(psi[:, :, -1]), G=G[0::2], g=g[0::2])

    def value(self, tau: float, z: np.ndarray) -> np.ndarray:
        """Controller value v = v_base(tau) + V(tau) zeta(tau, z); z is (n,) or (n, k)."""
        return self.value_from_zeta(tau, self.zeta(tau, z))

    def value_from_zeta(self, tau: float, zeta: np.ndarray) -> np.ndarray:
        _, V, _, vb = self._interp(tau)
        zeta = np.asarray(zeta, dtype=float)
        return (vb if zeta.ndim == 1 else vb[:, None]) + V @ zeta

    def monodromy(self, T: Optional[float] = None) -> np.ndarray:
        """Interval map Psi(T) = Z(T) Z(0)^{-1}; exactly the identity at T = 0."""
        T = self.T if T is None else float(T)
        if T == 0.0:
            return np.eye(self.n)
        Z_T, _, _, _ = self._interp(T)
        return Z_T @ np.linalg.inv(self.Zs[0])


def _frobenius_bound_accepts(Zs: np.ndarray) -> bool:
    """Whether ||Z||_F ||Z^{-1}||_F <= COND_MAX / 2 at every grid point.

    The product bounds the 2-norm condition number from above; the factor
    2 absorbs the rounding of the inverse and the norms, so True implies
    that np.linalg.cond accepts every Z(t).  False (a singular Z, a NaN or
    inf bound, or a bound above COND_MAX / 2) decides nothing.
    """
    try:
        inverse = np.linalg.inv(Zs)
    except np.linalg.LinAlgError:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        bound_sq = np.einsum("gij,gij->g", Zs, Zs) * np.einsum("gij,gij->g", inverse, inverse)
    return bool(np.all(bound_sq <= (COND_MAX / 2) ** 2))


def build_basis(dset: DemonstrationSet, index_set: Optional[Sequence[int]] = None) -> AffineBasis:
    """Construct the difference matrices for an index set of n+1 demonstrations.

    Raises AffineDependenceError, naming the grid time, if Z_I(t) is rank
    deficient or ill-conditioned (condition number above 1e12) anywhere.
    One batched inverse decides most sets: the 2-norm condition number is
    at most kappa_F = ||Z||_F ||Z^{-1}||_F, so a set whose kappa_F is finite
    and at most COND_MAX / 2 at every grid point is accepted.  Otherwise the
    SVD condition number np.linalg.cond gives the verdict and the message.
    """
    if index_set is None:
        index_set = tuple(range(dset.n + 1))
    Zs, Vs, z_base, v_base = difference_matrices(dset, index_set)
    if not _frobenius_bound_accepts(Zs):
        conds = np.linalg.cond(Zs)  # inf where Z(t) is singular
        k_bad = int(conds.argmax())
        if not np.isfinite(conds[k_bad]):
            raise AffineDependenceError(
                f"demonstrations {tuple(index_set)} affinely dependent at "
                f"t={dset.grid[k_bad]:.6f} (Z(t) singular)",
                time=float(dset.grid[k_bad]),
            )
        if conds[k_bad] > COND_MAX:
            raise AffineDependenceError(
                f"Z(t) condition number {conds[k_bad]:.3e} exceeds {COND_MAX:.0e} "
                f"at t={dset.grid[k_bad]:.6f}",
                time=float(dset.grid[k_bad]),
            )
    return AffineBasis(index_set=tuple(int(i) for i in index_set), times=dset.grid.copy(),
                       Zs=Zs, Vs=Vs, z_base=z_base, v_base=v_base)


class IntervalController:
    """Call protocol and state shared by the learned controllers.

    A controller holds its bases, the chain pair (A, B) with B as a matrix,
    and the feedback_mode; n, m, T and dt are read off the first basis.  The
    law is evaluated interval by interval: begin_interval(z) turns the
    state at an interval start into an anchor value, which the simulator
    holds for the whole interval, and eval_in_interval(anchor, tau, z) is a
    pure function of its arguments.  Calling the controller evaluates the
    law at absolute time t with its interval anchored at z itself, so a
    call never depends on earlier ones.  interval_groups(anchor) splits a
    batch by the basis each column follows, with the column's frozen
    coefficients under the open-loop law.
    """

    # SHA-256 of the demo_set.json the controller was learned from; set by
    # learn_controller, written by save_controller.
    demo_set_sha256: Optional[str] = None

    def __init__(self, bases: Sequence[AffineBasis], A: np.ndarray, B: np.ndarray,
                 feedback_mode: str):
        if feedback_mode not in ("closed_loop", "open_loop"):
            raise ValueError(f"unknown feedback_mode {feedback_mode!r}")
        self.bases = tuple(bases)
        self.feedback_mode = feedback_mode
        self.A = np.asarray(A, dtype=float)
        self.B = np.asarray(B, dtype=float).reshape(len(self.A), -1)
        first = self.bases[0]
        self.n, self.m, self.T = first.n, first.m, first.T
        # The step the demonstrations, and so every basis, were sampled at.
        self.dt = float(first.times[1] - first.times[0])

    def __call__(self, t: float, z: np.ndarray):
        z = np.asarray(z, dtype=float)
        _, tau = interval_index(t, self.T)
        v = self.eval_in_interval(self.begin_interval(z), tau, z)
        if self.m == 1 and v.ndim == 1:
            return float(v[0])
        return v


class LearnedController(IntervalController):
    """Single-basis learned controller kappa_hat(t, z), by default on the Brunovsky pair.

    feedback_mode selects the closed-loop variant (zeta recomputed from the
    current state, the default) or the open-loop variant (zeta frozen per
    interval from the state at the interval start, which is the anchor).
    """

    mode = "single"

    def __init__(
        self,
        basis: AffineBasis,
        A: Optional[np.ndarray] = None,
        B: Optional[np.ndarray] = None,
        feedback_mode: str = "closed_loop",
    ):
        if A is None or B is None:
            pair = brunovsky_pair(basis.n)
            A, B = pair.A, pair.B
        super().__init__((basis,), A, B, feedback_mode)
        self.basis = basis

    def begin_interval(self, z: np.ndarray) -> Optional[np.ndarray]:
        """Anchor of an interval starting at z: zeta(0, z) for the open-loop law."""
        if self.feedback_mode == "open_loop":
            return self.basis.zeta(0.0, z)
        return None

    def eval_in_interval(self, anchor, tau: float, z: np.ndarray) -> np.ndarray:
        if self.feedback_mode == "open_loop":
            return self.basis.value_from_zeta(tau, anchor)
        return self.basis.value(tau, z)

    def interval_groups(self, anchor):
        """(basis, columns, frozen zeta or None) for the batch of an interval."""
        return [(self.basis, slice(None), anchor)]


# ---------------------------------------------------------------------------
# Chain closed-loop simulation
# ---------------------------------------------------------------------------


def simulate_chain_batch(ctrl, z0: np.ndarray, duration: float
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate dz/dt = A z + B kappa_hat(t, z) for a batch of initial states.

    z0 is (n,) or (n, k), stepped on interval_grid, at the controller's dt,
    which refuses a duration of no whole number of steps.  Returns (times,
    states, inputs) with states shaped (G, n, k) and inputs (G, m, k).
    Every grid state, z0 at t = 0 included, takes rk4's divergence test.

    Interval p runs from grid index pN (N = T / ctrl.dt) and is anchored at the
    committed state there; each is one application of the bases'
    propagators to the batch, which is RK4 up to rounding.  Neighbouring
    intervals share their boundary point, whose input the later one
    re-reads under its own anchor, and a last point on a boundary starts a
    zero-step interval.  Only the last propagator built is kept, and only
    for this call: consecutive groups that follow the same basis share it,
    so a single-basis controller builds one per call.
    """
    z = np.asarray(z0, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    times, N = interval_grid(ctrl, duration)
    states = np.empty((len(times),) + z.shape)
    inputs = np.empty((len(times), ctrl.m, z.shape[1]))
    states[0] = z
    check_divergence(states[:1], times[:1])
    table_basis = prop = None
    for lo in range(0, len(times), N):
        anchor = ctrl.begin_interval(states[lo])
        hi = min(lo + N, len(times) - 1)
        span = hi - lo
        with np.errstate(over="ignore", invalid="ignore"):
            for basis, cols, zeta in ctrl.interval_groups(anchor):
                if basis is not table_basis:
                    prop = None  # released before the next is built: one table at a time
                    prop = basis.propagator(ctrl.A, ctrl.B, open_loop=zeta is not None)
                    table_basis = basis
                x = states[lo][:, cols]
                if zeta is not None:
                    x = np.vstack([x, zeta])
                states[lo + 1:hi + 1, :, cols] = (prop.P[1:span + 1] @ x
                                                  + prop.psi[1:span + 1, :, None])
                y = states[lo:hi + 1][:, :, cols] if zeta is None else zeta
                inputs[lo:hi + 1, :, cols] = prop.G[:span + 1] @ y + prop.g[:span + 1, :, None]
        check_divergence(states[lo + 1:hi + 1], times[lo + 1:hi + 1])
    return times, states, inputs


def interval_grid(ctrl, duration: float) -> tuple[np.ndarray, int]:
    """(time_grid(0, duration, ctrl.dt), steps per interval N = T / ctrl.dt).

    ctrl.dt is the demonstration dt, the grid the bases' propagators and K/c
    tables hold.  Raises ValueError, as whole_steps does, unless ctrl.T and
    duration are whole multiples of it.
    """
    return time_grid(0.0, duration, ctrl.dt), whole_steps(ctrl.T, ctrl.dt)


def simulate_chain_closed_loop(ctrl, z0: np.ndarray, duration: float) -> Trajectory:
    """Single-trajectory wrapper around simulate_chain_batch."""
    times, states, inputs = simulate_chain_batch(ctrl, z0, duration)
    u = inputs[:, :, 0]
    if ctrl.m == 1:
        u = u[:, 0]
    return Trajectory(times=times, states=states[:, :, 0], inputs=u)


# ---------------------------------------------------------------------------
# Learning, and the controller file
# ---------------------------------------------------------------------------


def learn_controller(dset: DemonstrationSet, sha256: str, multi: bool = False,
                     feedback_mode: str = "closed_loop",
                     index_sets: Optional[Sequence[Sequence[int]]] = None,
                     kind: str = "delaunay") -> IntervalController:
    """The controller learned from dset, the set in a demo_set.json whose SHA-256 is sha256.

    A single-basis controller is built on index_sets[0], by default
    demonstrations 0..n.  With multi there is one basis per simplex of a
    triangulation of the starts Z(0): the index sets index_sets under the
    label kind, as a controller file records them, or by default the
    Delaunay triangulation.  Raises AffineDependenceError as build_basis does.
    """
    if multi:
        # Loaded here only: multi brings in geometry's scipy.optimize and scipy.spatial.
        from .geometry import triangulation_from_simplices
        from .multi import MultiController

        tri = (None if index_sets is None
               else triangulation_from_simplices(dset.z0_points(), index_sets, kind=kind))
        ctrl = MultiController(dset, tri=tri, feedback_mode=feedback_mode)
    else:
        basis = build_basis(dset, None if index_sets is None else index_sets[0])
        ctrl = LearnedController(basis, A=dset.A, B=dset.B, feedback_mode=feedback_mode)
    ctrl.demo_set_sha256 = sha256
    return ctrl


def save_controller(ctrl: IntervalController, path: str | Path) -> str:
    """Write how ctrl was learned, which holds no float array and no path; the SHA-256 hex
    digest of the file's bytes.

    The keys are mode, feedback_mode, T, dt, n, m, the index set I (single)
    or the simplices and their kind (multi), and demo_set_sha256, the digest
    of the demo_set.json ctrl was learned from, which belongs beside path.
    ctrl is not held.
    """
    if ctrl.demo_set_sha256 is None:
        raise ValueError("the controller was not learned from a demo_set.json "
                         "(build it with learn_controller)")
    record = {"mode": ctrl.mode, "feedback_mode": ctrl.feedback_mode, "T": ctrl.T,
              "dt": ctrl.dt, "n": ctrl.n, "m": ctrl.m, "demo_set_sha256": ctrl.demo_set_sha256}
    if ctrl.mode == "multi":
        record["kind"] = ctrl.tri.kind
        record["simplices"] = [list(s.vertex_indices) for s in ctrl.tri.simplices]
    else:
        record["I"] = list(ctrl.basis.index_set)
    return write_json(path, record)


# The controller this process loaded or saved last, under the SHA-256 of its controller.json
# bytes; the learn stage puts the controller it saved here.
CONTROLLER_MEMO = Memo()


def load_controller(path: str | Path) -> IntervalController:
    """The controller a save_controller file records, learned again from the demo_set.json
    beside it.

    Raises ValueError, as read_demo_set does, if that file's SHA-256 is not
    the recorded one, and if an index set (I, or a simplex) is not a list of
    integers in 0..M-1 for the set's M demonstrations.  Both files are read
    and checked every time.  After the checks, the controller is learned
    again only if CONTROLLER_MEMO holds none under the SHA-256 of the
    controller file's bytes, which name the set's digest; the controller
    returned is then held there, its arrays read-only.
    """
    path = Path(path)
    data = path.read_bytes()
    record = decode_json(data.decode())
    if record["mode"] not in ("single", "multi"):
        raise ValueError(f"unknown controller mode {record['mode']!r}")
    dset, sha256 = read_demo_set(path.with_name("demo_set.json"), record["demo_set_sha256"])
    multi = record["mode"] == "multi"
    index_sets = record["simplices"] if multi else [record["I"]]
    for index_set in index_sets:
        # type() and not isinstance(): a JSON true is no index
        if not (isinstance(index_set, list)
                and all(type(i) is int and 0 <= i < dset.M for i in index_set)):
            raise ValueError(f"index set {index_set!r} is not a list of integers "
                             f"in 0..{dset.M - 1}")
    digest = hashlib.sha256(data).hexdigest()
    ctrl = CONTROLLER_MEMO.get(digest)
    if ctrl is None:
        ctrl = CONTROLLER_MEMO.hold(digest, learn_controller(
            dset, sha256, multi, record["feedback_mode"], index_sets,
            record["kind"] if multi else "delaunay"))
    return ctrl
