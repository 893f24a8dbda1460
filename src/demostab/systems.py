"""Benchmark presets: flat quadrotor and ball-and-beam, plus reference tracking.

The quadrotor is modeled directly in flat coordinates, where the position and
its derivatives z = (p, dp, ddp) form three decoupled triple integrators per
axis and the learned control acts on the jerk; the thrust/attitude back-map is
abstracted to b = 1 at desk scale.  The ball-and-beam is the classical
non-feedback-linearizable four-state model and goes through the
integrator-chain embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .demos import DemonstrationSet
from .embed import EmbeddingConfig
from .learner import simulate_chain_batch
from .plant import PlantModel, last_unit_field, lqr_gain
from .sim import time_grid

# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Reference:
    """Smooth reference in chain coordinates with its feedforward input.

    z_of_t returns the stacked reference state (successive derivatives of the
    tracked output); v_of_t returns the next derivative, which feeds forward
    into the tracking law.  Both take a scalar time, giving an (n,) or (m,)
    array, or an array of G times, giving one row per time.
    """

    z_of_t: Callable[[float], np.ndarray]
    v_of_t: Callable[[float], np.ndarray]
    n: int
    m: int
    description: str = "reference"


def figure_eight(f: float) -> Reference:
    """Figure-of-eight position reference for the flat quadrotor.

    p(t) = (sin(4 pi f t), sin(2 pi f t), 0.1 sin(2 pi f t) + 0.7), stacked
    with its first and second derivatives into a 9-state reference; the
    feedforward is the jerk.
    """
    if f <= 0:
        raise ValueError(f"frequency must be positive, got {f}")
    a = 4.0 * math.pi * f
    b = 2.0 * math.pi * f

    def z_of_t(t):
        t = np.asarray(t, dtype=float)
        sa, sb, ca, cb = np.sin(a * t), np.sin(b * t), np.cos(a * t), np.cos(b * t)
        return np.stack([sa, sb, 0.1 * sb + 0.7,
                         a * ca, b * cb, 0.1 * b * cb,
                         -a * a * sa, -b * b * sb, -0.1 * b * b * sb], axis=-1)

    def v_of_t(t):
        t = np.asarray(t, dtype=float)
        ca, cb = np.cos(a * t), np.cos(b * t)
        return np.stack([-a ** 3 * ca, -b ** 3 * cb, -0.1 * b ** 3 * cb], axis=-1)

    return Reference(z_of_t=z_of_t, v_of_t=v_of_t, n=9, m=3,
                     description=f"figure eight at {f} Hz")


def figure_eight_axis(f: float, axis: int = 0) -> Reference:
    """Single-axis slice of the figure-of-eight (a 3-state chain reference)."""
    ref = figure_eight(f)

    def z_of_t(t):
        return ref.z_of_t(t)[..., [axis, 3 + axis, 6 + axis]]

    def v_of_t(t):
        return ref.v_of_t(t)[..., [axis]]

    return Reference(z_of_t=z_of_t, v_of_t=v_of_t, n=3, m=1,
                     description=f"figure eight axis {axis} at {f} Hz")


@dataclass(frozen=True)
class TrackingResult:
    times: np.ndarray
    z: np.ndarray
    z_ref: np.ndarray
    error_norm: np.ndarray
    v: np.ndarray
    u: np.ndarray


def simulate_tracking(ctrl, ref: Reference, z0: np.ndarray, duration: float) -> TrackingResult:
    """Closed-loop trajectory under the tracking law.

    Because the reference satisfies the same chain dynamics with input v_ref,
    the tracking error obeys the plain stabilization loop; the error system is
    integrated with interval anchoring and the reference added back, and the
    input is u = v_ref(t) + kappa_hat(t, z - z_ref(t)) (the flat model's
    decoupling term b is 1).  The reference is evaluated once on the whole
    grid.
    """
    e0 = np.asarray(z0, dtype=float) - ref.z_of_t(0.0)
    times, e_states, e_inputs = simulate_chain_batch(ctrl, e0, duration)
    e_states, e_inputs = e_states[:, :, 0], e_inputs[:, :, 0]
    z_ref = ref.z_of_t(times)
    return TrackingResult(
        times=times,
        z=e_states + z_ref,
        z_ref=z_ref,
        error_norm=np.linalg.norm(e_states, axis=1),
        v=e_inputs,
        u=ref.v_of_t(times) + e_inputs,
    )


# ---------------------------------------------------------------------------
# Flat quadrotor (9 states, 3 jerk inputs)
# ---------------------------------------------------------------------------


def flat_quad_pair() -> tuple[np.ndarray, np.ndarray]:
    """Chain matrices of the stacked (p, dp, ddp) flat model."""
    shift = np.diag(np.ones(2), 1)
    A = np.kron(shift, np.eye(3))
    B = np.kron(np.array([[0.0], [0.0], [1.0]]), np.eye(3))
    return A, B


def flat_quad_demo_set(T: float, dt: float, Q: np.ndarray, R: float) -> DemonstrationSet:
    """Expert demonstrations from the nine unit-vector starts plus the trivial one.

    The synthetic quadrotor expert is the LQR jerk gain (3 x 9) for the state
    weight Q (9 x 9) and the input weight R times the 3 x 3 identity.  The
    flat model is linear, so the closed loop is propagated exactly with the
    matrix exponential E of one grid step: the degree-18 Taylor sum of
    X = A_cl dt / 2^s, with s the smallest power that makes ||X||_1 < 1,
    squared s times (Higham, Functions of Matrices, 2008, ch. 10).  The
    first omitted term is below 1/19! < 1e-17 relative.
    """
    A, B = flat_quad_pair()
    K = lqr_gain(A, B, Q, R * np.eye(3))
    A_cl = A - B @ K
    grid = time_grid(0.0, T, dt)
    s = max(0, math.frexp(np.abs(A_cl * dt).sum(axis=0).max())[1])  # ||A_cl dt||_1 < 2^s
    X = A_cl * (dt / 2.0 ** s)
    term = E = np.eye(9)
    for k in range(1, 19):
        term = term @ X / k
        E = E + term
    for _ in range(s):
        E = E @ E
    starts = np.hstack([np.zeros((9, 1)), np.eye(9)])  # trivial first
    states = np.empty((len(grid), 9, 10))
    states[0] = starts
    for k in range(1, len(grid)):
        states[k] = E @ states[k - 1]
    return DemonstrationSet(grid=grid, z=states, v=-np.einsum("ij,gjk->gik", K, states),
                            A=A, B=B)


# ---------------------------------------------------------------------------
# Ball and beam (4 states, 1 input, embedded)
# ---------------------------------------------------------------------------

BALL_BEAM_B = 0.7143
BALL_BEAM_G = 9.81
BALL_BEAM_W = (1.0, 3.0, 3.0)


def ball_beam_plant(b_bar: float = BALL_BEAM_B, g_bar: float = BALL_BEAM_G) -> PlantModel:
    """Ball on a rotating beam: x = (r, dr, phi, omega), u = beam torque rate.

    ddr = b (r omega^2 - g sin phi), dphi = omega, domega = u, output h = r.
    The output has relative degree 3 < n away from the axis (L_g L_f^2 h =
    2 b r omega), so the plant is not feedback linearizable and is handled by
    the embedding pipeline.
    """
    if not (0 < b_bar < math.inf and 0 < g_bar < math.inf):
        raise ValueError("b_bar and g_bar must be positive and finite")
    b, g = float(b_bar), float(g_bar)

    def f(x):
        dx = np.zeros(x.shape)
        dx[0] = x[1]
        dx[1] = b * (x[0] * (x[3] * x[3]) - g * np.sin(x[2]))  # omega^2 as terms forms it
        dx[2] = x[3]
        return dx

    # terms and domain_check write each formula once over the state rows:
    # Python floats for one state, given as a list or an (n,) array, which
    # spares the NumPy dispatch, or NumPy rows for a batch, with sin, cos,
    # isfinite and the constant rows of the same kind, so that a state gets
    # the bits of its batch column.  omega^2
    # is om * om, the product NumPy forms for a row's om ** 2; a float's
    # om ** 2 calls pow, which can round one ulp off and raises OverflowError
    # past 1e154.

    def rows(x0, x1, phi, om, sin, cos, zero, one):
        s, c, om2 = sin(phi), cos(phi), om * om
        a = x0 * om2 - g * s
        ddr = b * a                                       # f_2 = L_f^2 h
        return [x1, ddr, om, zero,                        # f
                zero, zero, zero, one,                    # g = e_4
                x0, x1, ddr, b * (x1 * om2 - g * om * c),  # L_f^k h, k = 0..4
                b * b * om2 * a + b * g * om2 * s,
                zero, zero, 2.0 * b * x0 * om,            # L_g L_f^k h, k = 0..3 (k < 2: 0)
                2.0 * b * x1 * om - b * g * c]

    def terms(x):
        if isinstance(x, np.ndarray):
            if x.ndim == 1:
                return np.array(terms(x.tolist()))
            shape = x.shape[1:]
            return np.array(rows(*x, np.sin, np.cos, np.zeros(shape), np.ones(shape)))
        x0, x1, phi, om = x
        if math.isfinite(phi):  # math.sin and math.cos raise on an infinite angle
            return rows(x0, x1, phi, om, math.sin, math.cos, 0.0, 1.0)
        return terms(np.array(x)[:, None])[:, 0].tolist()

    def inside(x0, x1, phi, om, isfinite):
        return isfinite(x0) & isfinite(x1) & isfinite(om) & (abs(phi) < math.pi / 2)

    def domain_check(x):
        if isinstance(x, np.ndarray):
            if x.ndim > 1:
                return inside(*x, np.isfinite)
            x = x.tolist()
        return inside(*x, math.isfinite)

    return PlantModel(
        n=4,
        f=f,
        g=last_unit_field,
        terms=terms,
        domain_check=domain_check,
        relative_degree=None,
        name="ball_beam",
    )


def ball_beam_preset(
    b_bar: float = BALL_BEAM_B,
    g_bar: float = BALL_BEAM_G,
    w: Sequence[float] = BALL_BEAM_W,
) -> tuple[PlantModel, EmbeddingConfig]:
    """Ball-and-beam plant together with its integrator-chain embedding."""
    plant = ball_beam_plant(b_bar, g_bar)
    return plant, EmbeddingConfig(plant=plant, w=tuple(w))


def ball_beam_expert(plant: PlantModel, Q: np.ndarray,
                     R: float) -> Callable[[np.ndarray], np.ndarray]:
    """Synthetic smooth expert u = expert(x) = -K x: LQR on the origin linearization.

    K is the LQR gain for the state weight Q (4 x 4) and the input weight R;
    x is a state (4,) or a batch (4, k).
    """
    bg = -plant.terms(np.zeros(4))[16]  # L_g L_f^3 h(0) = -b*g
    A_lin = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, -bg, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    B_lin = np.array([[0.0], [0.0], [0.0], [1.0]])
    K = lqr_gain(A_lin, B_lin, Q, np.atleast_2d(float(R)))[0]
    return lambda x: -K @ np.asarray(x, dtype=float)
