"""Fixed-step RK4 integration and closed-loop simulation.

Two engines integrate on a grid, both classical RK4.  A nonlinear flow
(expert recording, the embedded loop) runs stage by stage through rk4,
which steps the grid it is given and owns the grid-point divergence and
domain guard; it steps a single state on Python floats, through a step
written out once for its size, and a batch on NumPy arrays, with the same
step expressions on both.  An affine flow (the
auxiliary states of an embedding, the learned chain loops under either law)
goes through affine_interval_maps, RK4 steps composed in closed form from
coefficients tabulated on the half_slots of the grid.
The learned loops anchor their controllers per interval themselves, one rk4
call or one propagator application per interval.
Grids are deterministic, so outputs reproduce bit for bit: every span a
grid covers is a whole number of steps dt (whole_steps), so every step is dt.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DivergenceError, DomainError
from .plant import PlantModel

# Abort integration once the state norm passes this bound.
DIVERGENCE_NORM = 1e6
_NORM_SQ = DIVERGENCE_NORM * DIVERGENCE_NORM
# The step budget of whole_steps.  For a span written as k*dt in decimals,
# span / dt lies within two ulps of k; up to k = 2^22 two ulps are below the
# 1e-9 it allows; above 2^23 one ulp is not, so on-grid spans would be refused.
MAX_STEPS = 2**22
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
    The grid is uniform with step dt, as time_grid builds it.
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.states) or len(self.times) != len(self.inputs):
            raise ValueError("times, states and inputs must have equal length")
        if len(self.times) < 2:
            raise ValueError("a trajectory needs at least two samples")


def whole_steps(span: float, dt: float) -> int:
    """The N in [1, MAX_STEPS] with span/dt within 1e-9 of N; a ValueError if there is none."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    ratio = span / dt
    if not ratio <= MAX_STEPS + 0.5:  # also catches inf and nan before round()
        raise ValueError(f"{span} / dt = {ratio:.3g} steps exceed the {MAX_STEPS} step budget")
    N = round(ratio)
    if N < 1 or abs(ratio - N) > 1e-9:
        raise ValueError(f"{span} is not a whole multiple of dt={dt}")
    return N


def time_grid(t0: float, t1: float, dt: float) -> np.ndarray:
    """Grid t0 + k*dt, k = 0..whole_steps(t1 - t0, dt), with the last point snapped to t1."""
    times = t0 + dt * np.arange(whole_steps(t1 - t0, dt) + 1)
    times[-1] = t1
    return times


def half_slots(samples: np.ndarray) -> np.ndarray:
    """Grid samples (first axis) on the RK4 stage slots of their uniform grid.

    Slot 2k holds sample k, at grid point t_k, and slot 2k+1 the average of
    samples k and k+1, the linear interpolation at the step midpoint where
    RK4 evaluates its middle stages.
    """
    out = np.empty((2 * len(samples) - 1,) + samples.shape[1:])
    out[0::2] = samples
    out[1::2] = 0.5 * samples[:-1] + 0.5 * samples[1:]
    return out


def _compose(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The affine map [L | l] after [Q_L | Q_l], d rows each: [L Q_L | L Q_l + l].

    The top d rows of [[L, l], [0, I]] @ [[Q_L, Q_l], [0, I]]; its last k rows [0 | I] go unformed.
    """
    d = P.shape[-2]
    Y = P[..., :d] @ Q
    Y[..., d:] += P[..., d:]
    return Y


def affine_interval_maps(A: np.ndarray, B: np.ndarray, K: Optional[np.ndarray], c: np.ndarray,
                         h: float) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative RK4 maps of dy/ds = (A + B K(s)) y + B c(s) on a uniform grid.

    K (2N+1, m, d), or None for no feedback, and c (2N+1, m, k), k forcing
    columns, are tabulated on the half_slots of a grid with step h.  An RK4
    step of this affine flow is an affine map y -> Phi_i y + phi_i, one
    column of phi_i per forcing, held as the d rows [Phi_i | phi_i]: the four
    stages compose [A + B K | B c] with the state's map, a chunk of steps at
    a time.  A doubling scan then composes the steps in log2(N) batched
    products.  Memory and work grow linearly in k.  Returns Pi (N+1, d, d)
    and psi (N+1, d, k) with y(t_i) = Pi_i y(t_0) + psi_i[:, j] under
    forcing j, Pi_0 = I and psi_0 = 0.
    """
    (d, m), k, N = B.shape, c.shape[2], (len(c) - 1) // 2
    eye = np.eye(d, d + k)
    C = np.empty((N + 1, d, d + k))
    C[0] = eye
    for lo in range(0, N, _MAP_CHUNK):
        hi = min(lo + _MAP_CHUNK, N)
        F = np.empty((2 * (hi - lo) + 1, d, d + k))
        F[:, :, :d] = A if K is None else B @ K[2 * lo:2 * hi + 1] + A
        # B c as one 2-D product, a row per slot and forcing: column j gets the bits of k = 1.
        Bc = np.swapaxes(c[2 * lo:2 * hi + 1], 1, 2).reshape(-1, m) @ B.T
        F[:, :, d:] = np.swapaxes(Bc.reshape(len(F), k, d), 1, 2)
        k1, F1, F2 = F[0:-1:2], F[1::2], F[2::2]
        k2 = _compose(F1, eye + (0.5 * h) * k1)
        k3 = _compose(F1, eye + (0.5 * h) * k2)
        k4 = _compose(F2, eye + h * k3)
        C[lo + 1:hi + 1] = eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # After the pass with shift s, C[i] holds the product of steps i-1 down to
    # max(i - 2s, 0); the right-hand side is formed before it is stored.
    shift = 1
    while shift < N:
        C[shift + 1:] = _compose(C[shift + 1:], C[1:N + 1 - shift])
        shift *= 2
    return C[:, :, :d], C[:, :, d:]


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
    bad = np.flatnonzero(~(sq <= _NORM_SQ))
    if bad.size:
        t = float(times[bad[0]])
        raise DivergenceError(f"state diverged at t={t:.6f}", time=t,
                              column=_largest_column(states[bad[0]]))


def interval_index(t: float, T: float) -> tuple[int, float]:
    """Split t >= 0 into the interval index p and the offset tau in [0, T].

    Right-continuous at interval boundaries: at exactly t = pT the new
    interval's formula applies.
    """
    p = max(math.floor(t / T + _P_TOL), 0)
    return p, min(max(t - p * T, 0.0), T)


def _squared_norm(y: list) -> float:
    """Sum of squares of a state's entries as Python floats, left to right.

    Products, never pow: a float's ** raises OverflowError where * gives inf.
    """
    acc = 0.0
    for a in y:
        acc += a * a
    return acc


@functools.cache
def _float_step(d: int) -> Callable:
    """step(rhs, t, h, y, k1): one RK4 step of d floats, the batch path's expressions written
    out entry by entry; an rhs derivative (k1 is the first) not d long is a ValueError."""
    a = [f"a{i}" for i in range(d)]
    b1, b2, b3, b4 = ([f"b{c}_{i}" for i in range(d)] for c in range(1, 5))

    def stage(c: str, b: list) -> str:
        return ", ".join(f"{ai} + {c} * {bi}" for ai, bi in zip(a, b))

    update = [f"{a[i]} + h6 * ({b1[i]} + 2.0 * {b2[i]} + 2.0 * {b3[i]} + {b4[i]})"
              for i in range(d)]
    namespace = {"rows": lambda k: k.tolist() if isinstance(k, np.ndarray) else k}
    exec("\n".join([
        "def step(rhs, t, h, y, k1):",
        "    half, h6 = 0.5 * h, h / 6.0",
        f"    [{', '.join(a)}] = y",
        f"    [{', '.join(b1)}] = rows(k1)",
        f"    [{', '.join(b2)}] = rows(rhs(t + half, [{stage('half', b1)}])[0])",
        f"    [{', '.join(b3)}] = rows(rhs(t + half, [{stage('half', b2)}])[0])",
        f"    [{', '.join(b4)}] = rows(rhs(t + h, [{stage('h', b3)}])[0])",
        f"    return [{', '.join(update)}]",
    ]), namespace)
    return namespace["step"]


def rk4(rhs, y0, times: np.ndarray, domain: Optional[PlantModel] = None):
    """Classical RK4 over the grid times for a nonlinear flow; returns (states, inputs).

    rhs(t, y) returns (dy/dt, u): the derivative and the input it applied
    at the absolute stage time t = t_k + c h.  inputs[k] is the input of
    the first stage at t_k (one extra call supplies it at the last grid
    point, so a one-point grid costs one call).

    A single state y0 shaped (d,) is stepped on Python floats, entry by
    entry, which spares the NumPy dispatch of d-sized arrays: each step is
    one call of a function written out for d (_float_step), with no loop
    over the entries.  rhs receives each stage state as a list of floats,
    and may return a list or tuple of floats or an ndarray; a derivative
    that is not d long is a ValueError.  A batch y0 shaped (d, k), k columns, is
    stepped on NumPy arrays, and rhs receives each stage state as a (d, k)
    array.  Both paths write the same step expressions, so a state gets the
    bits it would get as a column of a (d, 1) batch under an rhs that acts
    column by column.

    Every grid state, y0 at times[0] included, must be finite with norm at
    most DIVERGENCE_NORM and, if a plant is given as domain, its first
    plant.n entries must lie in the plant's domain (tested in that order);
    otherwise DivergenceError carries the time of the offending grid point.
    A single state's squared norm is summed left to right on floats; a
    batch's norm test is on the whole batch, the domain test on every
    column, and the error names a column.  The steps run with NumPy's
    overflow and invalid-value warnings off: a step that overflows leaves
    a non-finite state, which the next norm test refuses.
    """
    grid = times.tolist()
    last = len(grid) - 1
    y0 = np.asarray(y0, dtype=float)
    single = y0.ndim == 1
    y = y0.tolist() if single else y0
    step = _float_step(len(y)) if single else None
    states = np.empty((len(grid),) + y0.shape)
    inputs = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k, t in enumerate(grid):
            # A non-finite entry makes the squared norm NaN or inf, failing the test too.
            sq = _squared_norm(y) if single else float(np.vdot(y, y))
            if not sq <= _NORM_SQ:
                raise DivergenceError(f"state diverged at t={t:.6f}", time=t,
                                      column=None if single else _largest_column(y))
            states[k] = y
            if domain is not None:
                try:
                    domain.require_in_domain(y[: domain.n])
                except DomainError as exc:
                    raise DivergenceError(f"{exc} at t={t:.6f}", time=t,
                                          column=exc.column) from exc
            k1, u = rhs(t, y)
            if inputs is None:
                inputs = np.empty((len(times),) + np.shape(u))
            inputs[k] = u
            if k == last:
                break
            h = grid[k + 1] - t
            if single:  # the batch path's expressions, written out entry by entry
                y = step(rhs, t, h, y, k1)
            else:
                half, h6 = 0.5 * h, h / 6.0
                k2, _ = rhs(t + half, y + half * k1)
                k3, _ = rhs(t + half, y + half * k2)
                k4, _ = rhs(t + h, y + h * k3)
                y = y + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return states, inputs


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
    One start x0 (n,) reaches the controller as a list of floats, as rk4
    steps it; x0 shaped (n, k) runs k starts as one batch, one input per
    column.
    """
    def rhs(t, x):
        u = controller(t, x)
        return plant.rhs(x, u), u

    times = time_grid(0.0, duration, dt)
    states, inputs = rk4(rhs, x0, times, domain=plant)
    return Trajectory(times=times, states=states, inputs=inputs)
