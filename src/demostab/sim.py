"""Fixed-step RK4 integration and closed-loop simulation.

Every stage-by-stage integration runs through one driver, rk4, which owns
the grid, the per-interval anchoring of learned controllers and the
grid-point divergence and domain guard.  The learned chain loops move whole
intervals through affine_interval_maps, RK4 steps composed in closed form.
Grids are deterministic, so outputs reproduce bit for bit: the step dt is
fixed and the final step shortened, if need be, to land on the end time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DivergenceError, DomainError
from .plant import PlantModel

# Abort integration once the state norm passes this bound.
DIVERGENCE_NORM = 1e6
MAX_STEPS = int(1e8)
# Tolerance used when assigning a time to its interval index p = floor(t / T).
_P_TOL = 1e-9
# Steps whose RK4 stage matrices affine_interval_maps holds at once.
_MAP_CHUNK = 256


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution pair (x, u) on a time grid.

    times, states and inputs have the same leading length; states is
    (N, n) and inputs is (N,) for scalar-input systems or (N, m) otherwise.
    A batch of k runs on one grid has states (N, n, k) and inputs (N, k).
    The grid is uniform with step dt except possibly for a shortened final
    interval.
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.states) or len(self.times) != len(self.inputs):
            raise ValueError("times, states and inputs must have equal length")
        if len(self.times) < 2:
            raise ValueError("a trajectory needs at least two samples")


def time_grid(t0: float, t1: float, dt: float) -> np.ndarray:
    """Grid t0 + k*dt, with the last point snapped exactly to t1."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t1 <= t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    span = t1 - t0
    n_full = int(np.floor(span / dt + 1e-9))
    if n_full > MAX_STEPS:
        raise ValueError(f"{n_full} steps exceed the {MAX_STEPS:.0e} step budget")
    times = t0 + dt * np.arange(n_full + 1)
    if t1 - times[-1] > 1e-9 * max(1.0, abs(t1)):
        times = np.append(times, t1)
    else:
        times[-1] = t1
    return times


class HalfGrid:
    """The RK4 stage times of a grid: its points and step midpoints, interleaved.

    times[2k] is the grid point t_k and times[2k+1] the midpoint t_k + h_k/2,
    formed as rk4 forms its middle stages.  index(t) maps a stage time back to
    its slot, so values tabulated on the slots can stand in for evaluations
    at the stages.
    """

    def __init__(self, grid: np.ndarray):
        grid = np.asarray(grid, dtype=float)
        self.times = np.empty(2 * len(grid) - 1)
        self.times[0::2] = grid
        self.times[1::2] = grid[:-1] + 0.5 * (grid[1:] - grid[:-1])
        dt = float(grid[1] - grid[0])
        self._t0, self._half, self._tol = float(grid[0]), 0.5 * dt, 1e-9 * dt
        self._last = len(self.times) - 1

    def interpolate(self, samples: np.ndarray) -> np.ndarray:
        """Grid samples (first axis) linearly interpolated onto the slots.

        A midpoint gets the average of its step's two end samples.
        """
        samples = np.asarray(samples, dtype=float)
        out = np.empty((len(self.times),) + samples.shape[1:])
        out[0::2] = samples
        out[1::2] = 0.5 * samples[:-1] + 0.5 * samples[1:]
        return out

    def index(self, t: float) -> Optional[int]:
        """The slot j with |times[j] - t| <= 1e-9 dt, or None if t is not a stage time."""
        last, at = self._last, self.times.item
        j = round((t - self._t0) / self._half)
        if 0 <= j <= last and abs(t - at(j)) <= self._tol:
            return j
        # A shortened final step moves its two slots off the uniform half grid.
        for j in (last - 1, last):
            if abs(t - at(j)) <= self._tol:
                return j
        return None


def affine_interval_maps(A: np.ndarray, B: np.ndarray, K: np.ndarray, c: np.ndarray,
                         h: float) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative RK4 maps of dy/ds = (A + B K(s)) y + B c(s) on a uniform grid.

    K (2N+1, m, d) and c (2N+1, m) hold the gains on the HalfGrid slots of
    a grid with step h.  An RK4 step of this affine flow is an affine map
    y -> Phi_i y + phi_i: the four stages run on the homogeneous identity,
    where [[A + B K, B c], [0, 0]] acts on [[L, l], [0, 1]], a chunk of steps
    at a time.  A doubling scan then composes the steps in log2(N) batched
    products.  Returns Pi (N+1, d, d) and psi (N+1, d) with
    y(t_i) = Pi_i y(t_0) + psi_i, Pi_0 = I and psi_0 = 0.
    """
    d, N = A.shape[0], (len(K) - 1) // 2
    eye = np.eye(d + 1)
    C = np.empty((N + 1, d + 1, d + 1))
    C[0] = eye
    for lo in range(0, N, _MAP_CHUNK):
        hi = min(lo + _MAP_CHUNK, N)
        F = np.zeros((2 * (hi - lo) + 1, d + 1, d + 1))
        F[:, :d, :d] = B @ K[2 * lo:2 * hi + 1] + A
        F[:, :d, d] = c[2 * lo:2 * hi + 1] @ B.T
        k1, F1, F2 = F[0:-1:2], F[1::2], F[2::2]
        k2 = F1 @ (eye + (0.5 * h) * k1)
        k3 = F1 @ (eye + (0.5 * h) * k2)
        k4 = F2 @ (eye + h * k3)
        C[lo + 1:hi + 1] = eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # After the pass with shift s, C[i] holds the product of steps i-1 down to
    # max(i - 2s, 0); the right-hand side is formed before it is stored.
    shift = 1
    while shift < N:
        C[shift + 1:] = C[shift + 1:] @ C[1:N + 1 - shift]
        shift *= 2
    return C[:, :d, :d], C[:, :d, d]


def _largest_column(y: np.ndarray) -> int:
    """The column of a batch y (d, k) with the largest or a non-finite squared norm."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("i...,i...->...", y, y)
    return int(np.argmax(np.nan_to_num(sq, nan=np.inf)))


def check_divergence(states: np.ndarray, times: np.ndarray) -> None:
    """rk4's divergence test on a block of batched grid states (G, d, k).

    Raises DivergenceError at the first time whose batch is non-finite or has
    a norm above DIVERGENCE_NORM, naming the column as rk4 does.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("gij,gij->g", states, states)
    bad = np.flatnonzero(~(sq <= DIVERGENCE_NORM**2))
    if bad.size:
        t = float(times[bad[0]])
        raise DivergenceError(f"state diverged at t={t:.6f}", time=t,
                              column=_largest_column(states[bad[0]]))


def interval_index(t: float | np.ndarray, T: float):
    """Split t >= 0 into the interval index p and the offset tau in [0, T].

    Right-continuous at interval boundaries: at exactly t = pT the new
    interval's formula applies.  A float t gives (int, float); an array of
    times gives arrays of p and tau, each entry the float call's: the same
    formula on NumPy's floor, maximum and minimum.
    """
    batch = isinstance(t, np.ndarray)
    floor, maximum, minimum = ((np.floor, np.maximum, np.minimum) if batch
                               else (math.floor, max, min))
    p = maximum(floor(t / T + _P_TOL), 0)
    tau = minimum(maximum(t - p * T, 0.0), T)
    return (p.astype(int), tau) if batch else (p, tau)


def rk4(rhs, y0, t0, t1, dt, period=None, begin=None, domain: Optional[PlantModel] = None):
    """Classical RK4 on time_grid(t0, t1, dt); returns (times, states, inputs).

    rhs(s, y, anchor) returns (dy/dt, u): the derivative and the input it
    applied.  inputs[k] is the input of the first stage at t_k (one extra
    call supplies it at the last grid point).  Without a period the stage
    time s is absolute, t_k + c h.  With a period T, which must be a whole
    multiple of dt, time splits into intervals [pT, (p+1)T): s is the offset
    tau_k + c h from the start of the step's interval, so a step ending at
    (p+1)T stays in interval p, and at each interval's first grid point
    begin(t_k, y_k) turns the committed state into the anchor that rhs
    receives for the whole interval.  The grid is split into (p, tau) by
    one array call of interval_index.

    Every grid state, y0 at t0 included, must be finite with norm at most
    DIVERGENCE_NORM and, if a plant is given as domain, its first plant.n
    entries must lie in the plant's domain (tested in that order);
    otherwise DivergenceError carries the time of the offending grid point.
    A state y shaped (d, k) is a batch of k columns: the norm test is on the
    whole batch, the domain test on every column, and the error names a
    column.
    """
    times = time_grid(t0, t1, dt)
    if period is not None:
        ratio = period / dt
        if round(ratio) < 1 or abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(f"interval length {period} is not a whole multiple of dt={dt}")
    grid = times.tolist()
    last = len(grid) - 1
    if period is None:
        offsets, starts = grid, ()
    else:
        # Stage offsets from the interval start, and the grid indices that start an interval.
        p, tau = interval_index(times, period)
        offsets, starts = tau.tolist(), set(np.flatnonzero(np.diff(p, prepend=-1)).tolist())
    y = np.asarray(y0, dtype=float)
    states = np.empty((len(grid),) + y.shape)
    inputs = anchor = None
    for k, t in enumerate(grid):
        # A non-finite entry makes the squared norm NaN or inf, failing the test too.
        if not float(np.vdot(y, y)) <= DIVERGENCE_NORM**2:
            raise DivergenceError(f"state diverged at t={t:.6f}", time=t,
                                  column=None if y.ndim == 1 else _largest_column(y))
        states[k] = y
        if domain is not None:
            try:
                domain.require_in_domain(y[: domain.n])
            except DomainError as exc:
                raise DivergenceError(f"{exc} at t={t:.6f}", time=t, column=exc.column) from exc
        if k in starts:
            anchor = begin(t, y)
        s = offsets[k]
        k1, u = rhs(s, y, anchor)
        if inputs is None:
            inputs = np.empty((len(times),) + np.shape(u))
        inputs[k] = u
        if k == last:
            break
        h = grid[k + 1] - t
        half = 0.5 * h
        k2, _ = rhs(s + half, y + half * k1, anchor)
        k3, _ = rhs(s + half, y + half * k2, anchor)
        k4, _ = rhs(s + h, y + h * k3, anchor)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return times, states, inputs


def simulate_closed_loop(
    plant: PlantModel,
    controller: Callable[[float, np.ndarray], float],
    x0: np.ndarray,
    duration: float,
    dt: float,
) -> Trajectory:
    """Simulate dx/dt = f(x) + g(x) u under u = controller(t, x).

    The controller is evaluated at every RK4 stage, i.e. the loop is closed
    continuously up to the integration error.  inputs[k] is the input at t_k.
    x0 shaped (n, k) runs k starts as one batch, one input per column.
    """
    def rhs(t, x, _):
        u = controller(t, x)
        return plant.rhs(x, u), u

    times, states, inputs = rk4(rhs, x0, 0.0, duration, dt, domain=plant)
    return Trajectory(times=times, states=states, inputs=inputs)
