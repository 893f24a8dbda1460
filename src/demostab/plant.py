"""Plant models with the Lie-derivative data needed for feedback linearization.

A plant is a single-input control-affine system  dx/dt = f(x) + g(x) u  with a
scalar output h.  Instead of differentiating symbolically, each preset carries
one closed-form evaluator that stacks f, g and the iterated Lie derivatives
L_f^k h and L_g L_f^k h; these are all the quantities the coordinate change,
the decoupling feedback and the embedding need.  A preset either gives that
evaluator and its domain test as callables, or states them once as
expression source (PlantSource), from which both are generated and which
the embedding writes into its closed-loop field.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, RiccatiError, SingularDecouplingError

# Below this magnitude the decoupling term b(z) is treated as zero.
DECOUPLING_TOL = 1e-9
# Largest Riccati residual that lqr_gain accepts: the largest entry of
# A^T P + P A - P B R^-1 B^T P + Q over the largest entry of Q (entrywise, so
# that weights near the float range do not overflow the norm).  With unit
# weights the chains of 1 to 16 integrators stay below 1e-3; from 17
# integrators on the residual is 3e-2 or more, for scipy's Schur solver too.
RICCATI_TOL = 1e-2


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


# What a PlantSource expression may call besides abs: on one state's Python
# floats, and on the NumPy rows of a batch.
FLOAT_CALLS = {"sin": math.sin, "cos": math.cos, "isfinite": math.isfinite}
ROW_CALLS = {"sin": np.sin, "cos": np.cos, "isfinite": np.isfinite}


@dataclass(frozen=True)
class PlantSource:
    """A plant's stacked terms and domain predicate, stated once as Python expressions.

    The expressions read the state entries by the names in state, the named
    constants, and the helpers, each assigned once in order, and call only
    abs and the names of FLOAT_CALLS: the same text evaluates one state on
    Python floats and a batch on NumPy rows.  terms holds the 4n + 1 rows of
    PlantModel.terms in order; a constant row is a float literal such as 0.0.
    domain is the predicate of the open set U, joined with &.  Inside U the
    helpers and rows must not raise on floats: the embedding's closed-loop
    field evaluates them there with no NumPy fallback.
    """

    state: tuple[str, ...]
    constants: tuple[tuple[str, float], ...]
    helpers: tuple[tuple[str, str], ...]
    terms: tuple[str, ...]
    domain: str

    def __post_init__(self):
        if len(self.terms) != 4 * len(self.state) + 1:
            raise ValueError(f"need 4n + 1 = {4 * len(self.state) + 1} term rows, "
                             f"got {len(self.terms)}")

    def spelled(self, prefix: str = "") -> tuple[list[str], str, list[str], list[str]]:
        """(state names, domain, helper lines, term rows) as text to write into a function.

        Each constant is written as its value, in parentheses, and each state
        and helper name takes the prefix, so that the lines can share a
        function with names of another origin.  Nothing else is rewritten.
        """
        words = {name: f"({value!r})" for name, value in self.constants}
        words.update((name, prefix + name) for name in self.state + tuple(dict(self.helpers)))

        def spell(expr: str) -> str:
            return re.sub(r"\b[A-Za-z_]\w*", lambda m: words.get(m[0], m[0]), expr)

        return ([prefix + name for name in self.state], spell(self.domain),
                [f"{prefix}{name} = {spell(expr)}" for name, expr in self.helpers],
                [spell(row) for row in self.terms])


def _source_evaluators(source: PlantSource) -> tuple[Callable, Callable]:
    """terms and domain_check of a plant, generated from its source (see PlantModel)."""
    state, domain, helpers, rows = source.spelled()
    unpack = f"    [{', '.join(state)}] = x"
    text = "\n".join(["def terms(x):", unpack, *(f"    {line}" for line in helpers),
                      f"    return [{', '.join(rows)}]", "",
                      "def inside(x):", unpack, f"    return {domain}"])
    on_floats, on_rows = dict(FLOAT_CALLS), dict(ROW_CALLS)
    exec(text, on_floats)
    exec(text, on_rows)

    def terms(x):
        if isinstance(x, np.ndarray):
            if x.ndim == 1:
                return np.array(terms(x.tolist()))
            out = np.empty((len(rows),) + x.shape[1:])
            for i, row in enumerate(on_rows["terms"](x)):  # a constant row fills its row
                out[i] = row
            return out
        try:
            return on_floats["terms"](x)
        except (ArithmeticError, ValueError):  # raised where NumPy gives inf or nan: sin(inf)
            return terms(np.array(x, dtype=float)[:, None])[:, 0].tolist()

    def domain_check(x):
        if isinstance(x, np.ndarray):
            if x.ndim > 1:
                return on_rows["inside"](x)
            x = x.tolist()
        return on_floats["inside"](x)

    terms.source = domain_check.source = source
    return terms, domain_check


def _everywhere(x) -> bool:
    return True


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

    A plant gives terms and domain_check either as callables, or as a
    source from which both are generated: one function of Python floats and
    one of NumPy rows from the same text, the float one falling back to the
    rows of a one-column batch where a float call raises (math.sin of an
    infinite angle).  A plant with a source holds only the evaluators
    generated from it, so they cannot disagree with the source the embedding
    writes into its closed-loop field; dataclasses.replace(plant,
    source=None) keeps them as plain callables.

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
        domain_check: predicate for membership in the open set U (all of
            R^n if neither it nor a source is given).
        relative_degree: n for feedback-linearizable presets, None otherwise.
        source: the expression source of terms and domain_check, or None.
    """

    n: int
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    terms: Optional[Callable[[np.ndarray], np.ndarray]] = None
    domain_check: Optional[Callable[[np.ndarray], bool]] = None
    relative_degree: Optional[int] = None
    name: str = "plant"
    source: Optional[PlantSource] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"state dimension must be >= 1, got {self.n}")
        if self.source is None:
            if self.terms is None:
                raise ValueError(f"{self.name} needs terms or a source")
            if self.domain_check is None:
                object.__setattr__(self, "domain_check", _everywhere)
            return
        if len(self.source.state) != self.n:
            raise ValueError(f"the source of {self.name} names {len(self.source.state)} "
                             f"state entries, not n = {self.n}")
        given = (self.terms, self.domain_check)
        if given == (None, None):
            given = _source_evaluators(self.source)
        elif not all(getattr(fn, "source", None) is self.source for fn in given):
            raise ValueError(f"terms and domain_check of {self.name} are generated from its "
                             f"source; give source=None with callables of their own")
        object.__setattr__(self, "terms", given[0])
        object.__setattr__(self, "domain_check", given[1])

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


def lqr_gain(A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Infinite-horizon LQR gain K = R^-1 B^T P, shaped (m, n), for dx/dt = Ax + Bu.

    P solves the algebraic Riccati equation A^T P + P A - P G P + Q = 0, G =
    B R^-1 B^T.  States that A, G and Q do not link, directly or through
    other states, form Riccati equations of their own, and each is solved
    alone (the flat quadrotor's three axes), so P keeps their zeros exactly.
    Raises ValueError for weights that are not positive definite, and
    RiccatiError unless every solve succeeds, P is finite and its residual
    is at most RICCATI_TOL (see there).
    """
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
    n = A.shape[0]
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite P or residual
        G = B @ np.linalg.solve(R, B.T)
        linked = (A != 0) | (A.T != 0) | (G != 0) | (Q != 0) | np.eye(n, dtype=bool)
        for _ in range(n.bit_length()):  # paths of up to n links
            linked = linked @ linked
        P = np.zeros((n, n))
        for block in sorted({tuple(np.flatnonzero(row)) for row in linked}):
            ix = np.ix_(block, block)
            P[ix] = _stable_subspace_solution(A[ix], G[ix], Q[ix])
        P = 0.5 * (P + P.T)
        residual = np.abs(A.T @ P + P @ A - P @ G @ P + Q).max() / np.abs(Q).max()
    if not (np.all(np.isfinite(P)) and residual <= RICCATI_TOL):
        raise RiccatiError(f"the Riccati solution has residual {residual:.3g} times max |Q|, "
                           f"above {RICCATI_TOL:g}")
    return np.linalg.solve(R, B.T @ P)


def _stable_subspace_solution(A: np.ndarray, G: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """P = U2 U1^-1 (Laub 1979), unsymmetrised, for the eigenvectors [U1; U2] of the n
    eigenvalues of the Hamiltonian [[A, -G], [-Q, -A^T]] in the open left half-plane."""
    n = A.shape[0]
    try:
        eigvals, V = np.linalg.eig(np.block([[A, -G], [-Q, -A.T]]))
        stable = eigvals.real < 0.0
        if np.count_nonzero(stable) != n:
            raise RiccatiError(f"no stabilizing Riccati solution: {np.count_nonzero(stable)} "
                               f"of the {2 * n} Hamiltonian eigenvalues are stable, not {n}")
        return np.linalg.solve(V[:n, stable].T, V[n:, stable].T).T.real
    except np.linalg.LinAlgError as exc:
        raise RiccatiError(f"no stabilizing Riccati solution: {exc}") from exc


def expert_lqr(plant: PlantModel, Q: np.ndarray,
               R: float | np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Synthetic smooth expert: LQR in the linearizing coordinates.

    The gain K solves the algebraic Riccati equation for the Brunovsky pair of
    the plant's chain.  The expert is u = expert(x): the chain input -K z(x),
    passed through the linearizing input, a smooth stabilizing state feedback
    of x shaped (n,) or of a batch (n, k).  A call tests the domain once and
    reads z = L_f^{0..n-1} h, L_f^n h and L_g L_f^{n-1} h from one terms
    evaluation: u = (-K z - L_f^n h) / L_g L_f^{n-1} h, a
    SingularDecouplingError where |L_g L_f^{n-1} h| < DECOUPLING_TOL.
    """
    n = plant.n
    pair = brunovsky_pair(n)
    K = lqr_gain(pair.A, pair.B, Q, np.atleast_2d(np.asarray(R, dtype=float)))[0]

    def expert(x):
        x = np.asarray(x, dtype=float)
        plant.require_in_domain(x)
        terms = plant.terms(x)
        a, b = terms[3 * n], terms[4 * n]
        if np.any(np.abs(b) < DECOUPLING_TOL):
            bad = x if x.ndim == 1 else x[:, np.argmin(np.abs(b))]
            raise SingularDecouplingError(f"decoupling term |b| = {np.min(np.abs(b)):.3e} below "
                                          f"tolerance at x={bad} for {plant.name}")
        return (-K @ terms[2 * n:3 * n] - a) / b

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
