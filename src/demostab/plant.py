"""Plant models with the Lie-derivative data needed for feedback linearization.

A plant is a single-input control-affine system  dx/dt = f(x) + g(x) u  with a
scalar output h.  Instead of differentiating symbolically, each preset carries
one hand-coded closed-form evaluator that stacks f, g and the iterated Lie
derivatives L_f^k h and L_g L_f^k h; these are all the quantities the
coordinate change, the decoupling feedback and the embedding need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_continuous_are

from .errors import DomainError, SingularDecouplingError

# Below this magnitude the decoupling term b(z) is treated as zero.
DECOUPLING_TOL = 1e-9


@dataclass(frozen=True)
class BrunovskyPair:
    """Shift matrix A and last-unit-vector input matrix B of an integrator chain."""

    A: np.ndarray
    B: np.ndarray

    @property
    def n(self) -> int:
        return self.A.shape[0]


def brunovsky_pair(n: int) -> BrunovskyPair:
    """Return the (A, B) pair of a chain of n integrators.

    A has ones on the superdiagonal and zeros elsewhere; B is the last unit
    vector, shaped (n, 1).
    """
    if n < 1:
        raise ValueError(f"chain length must be >= 1, got {n}")
    A = np.diag(np.ones(n - 1), k=1)
    B = np.zeros((n, 1))
    B[-1, 0] = 1.0
    return BrunovskyPair(A=A, B=B)


@dataclass(frozen=True)
class PlantModel:
    """Single-input plant with one closed-form evaluator of its stacked terms.

    Every field and evaluator takes the state on the first axis: x shaped
    (n,), or a batch x shaped (n, k) with one state per column.  The vector
    fields give (n,) or (n, k), domain_check a bool or one per column.
    terms and domain_check also take one state as a list of Python floats,
    which is how rk4 steps a single state, and give a list of floats or a
    bool, without NumPy's dispatch.  An evaluator gives the same bits for
    one state, as an array or a list, as for that state taken as a column
    of a batch, and never raises on non-finite input.

    Attributes:
        n: state dimension.
        f: drift vector field.
        g: input vector field.
        terms: the stack [f; g; L_f^k h, k = 0..n; L_g L_f^k h, k = 0..n-1],
            shaped (4n + 1,) or (4n + 1, k), or a list of 4n + 1 floats: f
            in rows :n, g in n:2n, the output h = L_f^0 h (with h(0) = 0) in
            row 2n, L_f^k h in row 2n + k and L_g L_f^k h in row 3n + 1 + k.
            Its f and g rows equal f(x) and g(x) bit for bit; f and g stay
            separate because the plant's own rhs needs nothing else.
        domain_check: predicate for membership in the open set U.
        relative_degree: n for feedback-linearizable presets, None otherwise.
    """

    n: int
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    terms: Callable[[np.ndarray], np.ndarray]
    domain_check: Callable[[np.ndarray], bool] = field(default=lambda x: True)
    relative_degree: Optional[int] = None
    name: str = "plant"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"state dimension must be >= 1, got {self.n}")

    def require_in_domain(self, x: np.ndarray) -> None:
        """Raise DomainError unless x, shaped (n,) or (n, k), lies in the domain."""
        x = np.asarray(x, dtype=float)
        inside = self.domain_check(x)
        if x.ndim == 1:
            if not inside:
                raise DomainError(f"state {x} is outside the domain of {self.name}")
        elif not np.all(inside):
            column = int(np.argmin(np.broadcast_to(inside, x.shape[1:])))
            raise DomainError(f"state {x[:, column]} is outside the domain of {self.name}",
                              column=column)

    def rhs(self, x: np.ndarray, u) -> np.ndarray:
        """Evaluate dx/dt = f(x) + g(x) u; a batch x (n, k) takes u shaped (k,)."""
        x = np.asarray(x, dtype=float)
        return self.f(x) + self.g(x) * u


def last_unit_field(x: np.ndarray) -> np.ndarray:
    """Input field g(x) = e_n: the input drives the last state, one column per state."""
    e = np.zeros(x.shape)
    e[-1] = 1.0
    return e


def feedback_linearize(plant: PlantModel, x: np.ndarray) -> np.ndarray:
    """Map a state, or a batch (n, k), to linearizing coordinates z_k = L_f^{k-1} h(x)."""
    x = np.asarray(x, dtype=float)
    plant.require_in_domain(x)
    n = plant.n
    return plant.terms(x)[2 * n:3 * n]


def linearizing_input(plant: PlantModel, x: np.ndarray, v: float) -> float:
    """Physical input realizing the chain input v at state x.

    Computes u = (v - L_f^n h(x)) / (L_g L_f^{n-1} h(x)), the feedback that
    renders the output dynamics a chain of n integrators driven by v; a
    batch x (n, k) takes v shaped (k,).
    """
    x = np.asarray(x, dtype=float)
    plant.require_in_domain(x)
    return _decouple(plant, x, plant.terms(x), v)


def _decouple(plant: PlantModel, x: np.ndarray, terms: np.ndarray, v):
    """(v - L_f^n h) / L_g L_f^{n-1} h from the stacked terms at x."""
    n = plant.n
    a, b = terms[3 * n], terms[4 * n]
    if np.any(np.abs(b) < DECOUPLING_TOL):
        bad = x if x.ndim == 1 else x[:, np.argmin(np.abs(b))]
        raise SingularDecouplingError(f"decoupling term |b| = {np.min(np.abs(b)):.3e} below "
                                      f"tolerance at x={bad} for {plant.name}")
    return (v - a) / b


def lqr_gain(A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Infinite-horizon LQR gain K, shaped (m, n), for dx/dt = Ax + Bu."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    if not np.allclose(Q, Q.T) or np.any(np.linalg.eigvalsh(Q) <= 0):
        raise ValueError("Q must be symmetric positive definite")
    if np.any(np.linalg.eigvalsh(R) <= 0):
        raise ValueError("R must be positive definite")
    try:
        P = solve_continuous_are(A, B, Q, R)
    except Exception as exc:  # scipy raises LinAlgError subclasses
        raise ArithmeticError(f"Riccati solve failed: {exc}") from exc
    return np.linalg.solve(R, B.T @ P)


def expert_lqr(plant: PlantModel, Q: np.ndarray,
               R: float | np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Synthetic smooth expert: LQR in the linearizing coordinates.

    The gain K solves the algebraic Riccati equation for the Brunovsky pair of
    the plant's chain.  The expert is u = expert(x): the chain input -K z(x),
    passed through the linearizing input, a smooth stabilizing state feedback
    of x shaped (n,) or of a batch (n, k).  A call tests the domain once and
    reads z, L_f^n h and L_g L_f^{n-1} h from one terms evaluation; it equals
    linearizing_input(plant, x, -K @ feedback_linearize(plant, x)) bit for bit.
    """
    n = plant.n
    pair = brunovsky_pair(n)
    K = lqr_gain(pair.A, pair.B, Q, np.atleast_2d(np.asarray(R, dtype=float)))[0]

    def expert(x):
        x = np.asarray(x, dtype=float)
        plant.require_in_domain(x)
        terms = plant.terms(x)
        return _decouple(plant, x, terms, -K @ terms[2 * n:3 * n])

    return expert


def chain_preset(n: int) -> PlantModel:
    """Chain of n integrators: already in normal form, h(x) = x_1, U = R^n."""
    if n < 1:
        raise ValueError(f"chain length must be >= 1, got {n}")

    def f(x):
        dx = np.zeros(x.shape)
        dx[:-1] = x[1:]
        return dx

    def terms(x):
        # f = (x_2, .., x_n, 0) and g = e_n; L_f^k h = x_{k+1} for k < n and
        # L_f^n h = 0; of the L_g L_f^k h only L_g L_f^{n-1} h = 1 is nonzero.
        if isinstance(x, list):
            return terms(np.array(x)).tolist()
        out = np.zeros((4 * n + 1,) + x.shape[1:])
        out[:n - 1] = x[1:]
        out[2 * n - 1] = 1.0
        out[2 * n:3 * n] = x
        out[4 * n] = 1.0
        return out

    return PlantModel(
        n=n,
        f=f,
        g=last_unit_field,
        terms=terms,
        domain_check=lambda x: np.isfinite(x).all(axis=0),
        relative_degree=n,
        name=f"chain{n}",
    )
