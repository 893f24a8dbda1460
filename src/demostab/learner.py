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
midpoints where RK4 evaluates it, and a step at the demonstration dt costs a
lookup and a matrix-vector product instead of a linear solve.

The same affinity makes an RK4 step of the learned chain loop
z' = (A + B K) z + B c at the demonstration dt an affine map.  A basis
composes those maps into an interval propagator (Pi_i, psi_i), and the chain
simulator moves a whole batch through an interval with
z(pT + t_i) = Pi_i z(pT) + psi_i.  The open-loop law, with zeta frozen, is
affine in (z, zeta) and gets the same construction on the stacked state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .demos import DemonstrationSet, difference_matrices
from .errors import AffineDependenceError
from .files import read_json, write_json
from .plant import brunovsky_pair
from .sim import (
    HalfGrid,
    Trajectory,
    affine_interval_maps,
    check_divergence,
    interval_index,
    rk4,
    time_grid,
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
        return (
            (1.0 - w) * self.Zs[i] + w * self.Zs[i + 1],
            (1.0 - w) * self.Vs[i] + w * self.Vs[i + 1],
            (1.0 - w) * self.z_base[i] + w * self.z_base[i + 1],
            (1.0 - w) * self.v_base[i] + w * self.v_base[i + 1],
        )

    def zeta(self, tau: float, z: np.ndarray) -> np.ndarray:
        """Solve Z(tau) zeta = z - z_base(tau); z may be (n,) or a batch (n, k)."""
        Z, _, zb, _ = self._interp(tau)
        z = np.asarray(z, dtype=float)
        rhs = z - (zb if z.ndim == 1 else zb[:, None])
        try:
            return np.linalg.solve(Z, rhs)
        except np.linalg.LinAlgError as exc:
            raise AffineDependenceError(f"Z(tau) singular at tau={tau}", time=tau) from exc

    def _gain_table(self) -> tuple[HalfGrid, np.ndarray, np.ndarray]:
        """K = V Z^{-1} and c = v_base - K z_base on the grid points and step midpoints.

        At a midpoint Z, V and the base samples are the averages of the two
        grid samples, as _interp forms them there.
        """
        half = HalfGrid(self.times)
        Z, V, zb, vb = map(half.interpolate, (self.Zs, self.Vs, self.z_base, self.v_base))
        Zt = np.swapaxes(Z, 1, 2)
        try:
            K = np.swapaxes(np.linalg.solve(Zt, np.swapaxes(V, 1, 2)), 1, 2)
        except np.linalg.LinAlgError as exc:
            tau = float(half.times[np.argmin(np.abs(np.linalg.det(Zt)))])
            raise AffineDependenceError(f"Z(tau) singular at tau={tau}", time=tau) from exc
        c = vb - (K @ zb[:, :, None])[:, :, 0]
        return half, K, c

    # The table value() and the embedded closed loop read, built on first use.
    gains = cached_property(_gain_table)

    def propagator(self, A: np.ndarray, B: np.ndarray, open_loop: bool = False
                   ) -> IntervalPropagator:
        """Interval propagator of dz/dt = A z + B v under this basis's law.

        The stage flows come from the K/c table (closed loop) or from V and
        v_base on the same slots (open loop, zeta frozen as an extra state
        with zero derivative).  Neither table is kept on the basis.
        """
        n, m = self.n, self.m
        if open_loop:
            # y = (z, zeta): dy/dt = [[A, 0], [0, 0]] y + [B; 0] ([0, V] y + v_base).
            half = HalfGrid(self.times)
            K = np.concatenate([np.zeros((len(half.times), m, n)), half.interpolate(self.Vs)],
                               axis=2)
            c = half.interpolate(self.v_base)
            A = np.block([[A, np.zeros((n, n))], [np.zeros((n, 2 * n))]])
            B = np.vstack([B, np.zeros((n, m))])
            G, g = self.Vs, self.v_base
        else:
            _, K, c = self._gain_table()
            G, g = K[0::2], c[0::2]
        Pi, psi = affine_interval_maps(A, B, K, c, float(self.times[1] - self.times[0]))
        return IntervalPropagator(P=np.ascontiguousarray(Pi[:, :n]),
                                  psi=np.ascontiguousarray(psi[:, :n]), G=G, g=g)

    def value(self, tau: float, z: np.ndarray) -> np.ndarray:
        """Controller value v = v_base(tau) + V(tau) zeta(tau, z); z is (n,) or (n, k).

        At a grid point or step midpoint (within 1e-9 dt) this is K(tau) z +
        c(tau) from the table; any other tau interpolates and solves.
        """
        z = np.asarray(z, dtype=float)
        half, K, c = self.gains
        j = half.index(tau)
        if j is None:
            return self.value_from_zeta(tau, self.zeta(tau, z))
        return K[j] @ z + (c[j] if z.ndim == 1 else c[j][:, None])

    def value_from_zeta(self, tau: float, zeta: np.ndarray) -> np.ndarray:
        _, V, _, vb = self._interp(tau)
        zeta = np.asarray(zeta, dtype=float)
        return (vb if zeta.ndim == 1 else vb[:, None]) + V @ zeta

    def reconstruct(self, tau: float, zeta: np.ndarray) -> np.ndarray:
        """Predicted closed-loop state z(tau) = z_base(tau) + Z(tau) zeta."""
        Z, _, zb, _ = self._interp(tau)
        zeta = np.asarray(zeta, dtype=float)
        return (zb if zeta.ndim == 1 else zb[:, None]) + Z @ zeta

    def monodromy(self, T: Optional[float] = None) -> np.ndarray:
        """Interval map Psi(T) = Z(T) Z(0)^{-1}; exactly the identity at T = 0."""
        T = self.T if T is None else float(T)
        if T == 0.0:
            return np.eye(self.n)
        Z_T, _, _, _ = self._interp(T)
        return Z_T @ np.linalg.inv(self.Zs[0])


def build_basis(dset: DemonstrationSet, index_set: Optional[Sequence[int]] = None) -> AffineBasis:
    """Construct the difference matrices for an index set of n+1 demonstrations.

    Raises AffineDependenceError, naming the grid time, if Z_I(t) is rank
    deficient or ill-conditioned (condition number above 1e12) anywhere.
    """
    if index_set is None:
        index_set = tuple(range(dset.n + 1))
    Zs, Vs, z_base, v_base = difference_matrices(dset, index_set)
    sigmas = np.linalg.svd(Zs, compute_uv=False)
    with np.errstate(divide="ignore"):
        conds = np.where(sigmas[:, -1] > 0.0, sigmas[:, 0] / sigmas[:, -1], np.inf)
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
    return AffineBasis(
        index_set=tuple(int(i) for i in index_set),
        times=dset.grid.copy(),
        Zs=Zs,
        Vs=Vs,
        z_base=z_base,
        v_base=v_base,
    )


class IntervalController:
    """Call protocol shared by the learned controllers.

    The law is evaluated interval by interval: begin_interval(z) turns the
    state at an interval start into an anchor value, which the simulator
    holds for the whole interval, and eval_in_interval(anchor, tau, z) is a
    pure function of its arguments.  Calling the controller evaluates the
    law at absolute time t with its interval anchored at z itself, so a
    call never depends on earlier ones.  interval_groups(anchor) splits a
    batch by the basis each column follows, with the column's frozen
    coefficients under the open-loop law.
    """

    @property
    def dt(self) -> float:
        """The step the demonstrations, and so every basis, were sampled at."""
        return float(self.bases[0].times[1] - self.bases[0].times[0])

    def __call__(self, t: float, z: np.ndarray):
        z = np.asarray(z, dtype=float)
        _, tau = interval_index(t, self.T)
        v = self.eval_in_interval(self.begin_interval(z), tau, z)
        if self.m == 1 and v.ndim == 1:
            return float(v[0])
        return v


class LearnedController(IntervalController):
    """Single-basis learned controller kappa_hat(t, z).

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
        if feedback_mode not in ("closed_loop", "open_loop"):
            raise ValueError(f"unknown feedback_mode {feedback_mode!r}")
        self.basis = basis
        self.T = basis.T
        self.feedback_mode = feedback_mode
        if A is None or B is None:
            pair = brunovsky_pair(basis.n)
            A, B = pair.A, pair.B
        self.A = np.asarray(A, dtype=float)
        self.B = np.asarray(B, dtype=float)
        if self.B.ndim == 1:
            self.B = self.B[:, None]

    @property
    def n(self) -> int:
        return self.basis.n

    @property
    def m(self) -> int:
        return self.basis.m

    @property
    def bases(self) -> tuple[AffineBasis, ...]:
        return (self.basis,)

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


def simulate_chain_batch(ctrl, z0: np.ndarray, duration: float, dt: float
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate dz/dt = A z + B kappa_hat(t, z) for a batch of initial states.

    z0 is (n,) or (n, k); dt must be the demonstration dt (interval_grid).
    The controller is anchored at every interval start from the committed
    state there, and RK4 stage times are resolved against the interval of
    the enclosing step, so stages at exactly (p+1)T use the interval-p
    matrices.  Returns (times, states, inputs) with states shaped (G, n, k)
    and inputs (G, m, k).  Every grid state, z0 at t = 0 included, takes
    rk4's divergence test.

    Each interval is one application of the bases' propagators to the
    batch, which is RK4 up to rounding.  A grid that ends in a shortened
    step takes that step alone through rk4, reading the law at its stage
    times under the anchor of the interval it lies in.  Only the last
    propagator built is kept, and only for this call: consecutive groups
    that follow the same basis share it, so a single-basis controller
    builds one per call.
    """
    z = np.asarray(z0, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    times, N, short = interval_grid(ctrl, duration, dt)
    S = len(times) - 1 - short  # the steps the propagators take

    states = np.empty((len(times),) + z.shape)
    inputs = np.empty((len(times), ctrl.m, z.shape[1]))
    states[0] = z
    check_divergence(states[:1], times[:1])
    start = 0
    table_basis = prop = None
    while True:
        anchor = ctrl.begin_interval(states[start])
        end = min(start + N, S)
        span = end - start
        # The last grid point takes its input from the interval it lies in,
        # re-anchored there if it starts one, as rk4 records it.
        rec = span + 1 if span < N else span
        with np.errstate(over="ignore", invalid="ignore"):
            for basis, cols, zeta in ctrl.interval_groups(anchor):
                if basis is not table_basis:
                    prop = None  # released before the next is built: one table at a time
                    prop = basis.propagator(ctrl.A, ctrl.B, open_loop=zeta is not None)
                    table_basis = basis
                x = states[start][:, cols]
                if zeta is not None:
                    x = np.vstack([x, zeta])
                states[start + 1:end + 1, :, cols] = (prop.P[1:span + 1] @ x
                                                      + prop.psi[1:span + 1, :, None])
                y = states[start:start + rec][:, :, cols] if zeta is None else zeta
                inputs[start:start + rec, :, cols] = prop.G[:rec] @ y + prop.g[:rec, :, None]
        check_divergence(states[start + 1:end + 1], times[start + 1:end + 1])
        if span < N:
            break
        start = end
    if short:
        def rhs(tau, zz, anchor):
            v = ctrl.eval_in_interval(anchor, min(tau, ctrl.T), zz)
            return ctrl.A @ zz + ctrl.B @ v, v

        # The step keeps its interval's anchor; a last point on a boundary re-anchors.
        _, states[S:], inputs[S:] = rk4(
            rhs, states[S], times[S], times[-1], dt, period=ctrl.T,
            begin=lambda t, zz: anchor if t == times[S] else ctrl.begin_interval(zz))
    return times, states, inputs


def interval_grid(ctrl, duration: float, dt: float) -> tuple[np.ndarray, int, bool]:
    """(time_grid(0, duration, dt), steps per interval, whether it ends in a shortened step).

    Raises ValueError unless ctrl.T is a whole multiple of dt and dt is the
    demonstration dt: the bases' propagators and K/c tables hold that grid only.
    """
    ratio = ctrl.T / dt
    N = round(ratio)
    if N < 1 or abs(ratio - N) > 1e-9:
        raise ValueError(f"interval length {ctrl.T} is not a whole multiple of dt={dt}")
    if abs(ctrl.dt - dt) > 1e-9 * dt:
        raise ValueError(f"dt={dt} is not the demonstration dt={ctrl.dt} "
                         "the controller was learned at")
    times = time_grid(0.0, duration, dt)
    return times, N, bool(abs(times[-1] - times[-2] - dt) > 1e-9 * dt)


def simulate_chain_closed_loop(ctrl, z0: np.ndarray, duration: float, dt: float) -> Trajectory:
    """Single-trajectory wrapper around simulate_chain_batch."""
    times, states, inputs = simulate_chain_batch(ctrl, z0, duration, dt)
    u = inputs[:, :, 0]
    if ctrl.m == 1:
        u = u[:, 0]
    return Trajectory(times=times, states=states[:, :, 0], inputs=u)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def controller_to_dict(ctrl: LearnedController) -> dict:
    b = ctrl.basis
    return {
        "mode": "single",
        "feedback_mode": ctrl.feedback_mode,
        "T": b.T,
        "n": b.n,
        "m": b.m,
        "I": list(b.index_set),
        "grid": b.times,
        "Zs": b.Zs,
        "Vs": b.Vs,
        "z_base": b.z_base,
        "v_base": b.v_base,
        "A": ctrl.A,
        "B": ctrl.B,
    }


def controller_from_dict(data: dict) -> LearnedController:
    if data["mode"] != "single":
        raise ValueError(f"not a single-basis controller file: mode={data['mode']!r}")
    basis = AffineBasis(
        index_set=tuple(data["I"]),
        times=np.array(data["grid"], dtype=float),
        Zs=np.array(data["Zs"], dtype=float),
        Vs=np.array(data["Vs"], dtype=float),
        z_base=np.array(data["z_base"], dtype=float),
        v_base=np.array(data["v_base"], dtype=float),
    )
    return LearnedController(
        basis,
        A=np.array(data["A"], dtype=float),
        B=np.array(data["B"], dtype=float),
        feedback_mode=data["feedback_mode"],
    )


def save_controller(ctrl, path: str | Path) -> None:
    if ctrl.mode == "multi":
        from .multi import multi_controller_to_dict

        payload = multi_controller_to_dict(ctrl)
    else:
        payload = controller_to_dict(ctrl)
    write_json(path, payload)


def load_controller(path: str | Path):
    data = read_json(path)
    if data["mode"] == "multi":
        from .multi import multi_controller_from_dict

        return multi_controller_from_dict(data)
    return controller_from_dict(data)
