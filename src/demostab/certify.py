"""Monodromy matrices and the sampled-state contraction certificate.

The interval map of the learned closed loop is Psi(T) = Z(T) Z(0)^{-1}; the
same matrix is also e^{AT} + int_0^T e^{A(T-tau)} B V(tau) Z(0)^{-1} dtau,
and computing it both ways cross-validates the demonstration data.  The
certificate is the norm test ||Psi_j(T)||_2 < 1 over all simplices: it implies
the sampled sequence z(pT) contracts geometrically for any switching between
simplices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .demos import DemonstrationSet
from .learner import AffineBasis, build_basis, simulate_chain_batch
from .sim import whole_steps

# contraction_check: relative slack on the certified bound ||Psi||^p ||z(0)||, and the
# largest per-interval defect ||z((p+1)T) - Psi z(pT)|| it accepts.
CONTRACTION_SLACK = 1e-3
STEP_TOL = 1e-4


def expm_nilpotent(A: np.ndarray, t) -> np.ndarray:
    """Matrix exponential of a nilpotent matrix as its finite power series.

    t is one time, giving e^{At}, or an array of times, giving one e^{At}
    per time, stacked along the leading axes.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    t = np.asarray(t, dtype=float)[..., None, None]
    out = term = np.broadcast_to(np.eye(n), t.shape[:-2] + (n, n)).copy()
    for k in range(1, n + 1):
        term = term @ A * (t / k)
        if not term.any():
            break
        out = out + term
    if term.any() and (term @ A).any():
        raise ValueError("matrix is not nilpotent")
    return out


def _quadrature_weights(nodes: np.ndarray) -> np.ndarray:
    """Weights of composite Simpson over the leading run of equal step pairs, trapezoids after.

    Step pairs are taken from the first node on; the first pair whose two
    steps differ by more than 1e-12 relative, and every step after it, is
    integrated by trapezoids, as is a last single step.
    """
    h = np.diff(nodes)
    pairs = h[:len(h) // 2 * 2].reshape(-1, 2)
    even = np.abs(pairs[:, 0] - pairs[:, 1]) <= 1e-12 * pairs.max(axis=1)
    s = 2 * (len(even) if even.all() else int(even.argmin()))  # nodes 0..s take Simpson
    w = np.zeros(len(nodes))
    third = h[0:s:2] / 3.0
    w[0:s:2] += third
    w[1:s:2] += 4.0 * third
    w[2:s + 1:2] += third
    half = h[s:] / 2.0
    w[s:-1] += half
    w[s + 1:] += half
    return w


def monodromy_from_integral(basis: AffineBasis, A: np.ndarray, B: np.ndarray,
                            T: Optional[float] = None) -> np.ndarray:
    """Psi(T) via the variation-of-constants integral on the demonstration grid.

    e^{At} for the chain matrix is the exact finite nilpotent series.  The
    integrand e^{A(T-tau)} B V(tau) Z(0)^{-1} is formed at every grid node
    up to T, and at T itself (from interpolated V) when T is off the grid,
    as one batched product.  Composite Simpson over the uniform grid (falling
    back to trapezoids on a leftover or uneven step) keeps the cross-check
    error quadrature-dominated at O(dt^4) rather than the O(dt^2) a plain
    trapezoid would give; large-amplitude demonstrations stay within the
    1e-3 agreement budget.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float).reshape(len(A), -1)
    T = basis.T if T is None else float(T)
    if T < 0 or T > basis.T + 1e-9:
        raise ValueError(f"T={T} outside the demonstration horizon [0, {basis.T}]")
    k_last = max(int(np.searchsorted(basis.times, T + 1e-12)) - 1, 0)
    nodes, Vs = basis.times[:k_last + 1], basis.Vs[:k_last + 1]
    if T - nodes[-1] > 1e-12:
        nodes = np.append(nodes, T)
        Vs = np.concatenate([Vs, basis._interp(T)[1][None]])
    F = expm_nilpotent(A, T - nodes) @ (B @ Vs @ np.linalg.inv(basis.Zs[0]))
    return expm_nilpotent(A, T) + np.tensordot(_quadrature_weights(nodes), F, axes=1)


@dataclass(frozen=True)
class SimplexCertificate:
    indices: tuple[int, ...]
    Psi: np.ndarray
    norm: float
    spectral_radius: float


@dataclass(frozen=True)
class MonodromyCertificate:
    """Norm test over all interval maps; verdict passes iff max norm < 1."""

    T: float
    per_simplex: tuple[SimplexCertificate, ...]
    verdict: bool
    margin: float

    @property
    def max_norm(self) -> float:
        return 1.0 - self.margin

    def to_dict(self) -> dict:
        return {
            "T": self.T,
            "per_simplex": [
                {
                    "indices": list(s.indices),
                    "norm": s.norm,
                    "spectral_radius": s.spectral_radius,
                }
                for s in self.per_simplex
            ],
            "verdict": "pass" if self.verdict else "fail",
            "margin": self.margin,
        }


def _bases_of(obj) -> list[AffineBasis]:
    """The bases of a basis, a demonstration set, or a controller (its ``bases``)."""
    if isinstance(obj, AffineBasis):
        return [obj]
    if isinstance(obj, DemonstrationSet):
        return [build_basis(obj)]
    if hasattr(obj, "bases"):
        return list(obj.bases)
    raise TypeError(f"cannot extract demonstration bases from {type(obj).__name__}")


def certificate(obj) -> MonodromyCertificate:
    """Evaluate the monodromy norm certificate for a basis, controller or set at its own T."""
    bases = _bases_of(obj)
    per = []
    for b in bases:
        Psi = b.monodromy()
        per.append(
            SimplexCertificate(
                indices=b.index_set,
                Psi=Psi,
                norm=float(np.linalg.norm(Psi, 2)),
                spectral_radius=float(np.max(np.abs(np.linalg.eigvals(Psi)))),
            )
        )
    max_norm = max(s.norm for s in per)
    return MonodromyCertificate(
        T=bases[0].T, per_simplex=tuple(per), verdict=bool(max_norm < 1.0), margin=1.0 - max_norm
    )


def find_T_tilde(obj, candidates: Sequence[float]) -> Optional[float]:
    """Smallest candidate horizon whose certificate passes, or None.

    Candidates must lie within the demonstration length; they are scanned in
    increasing order and the first one with max_j ||Psi_j(T)|| < 1 wins.
    """
    bases = _bases_of(obj)
    horizon = bases[0].T
    for T in sorted(float(t) for t in candidates):
        if T < 0 or T > horizon + 1e-9:
            raise ValueError(f"candidate T={T} outside the demonstration length {horizon}")
        if max(np.linalg.norm(b.monodromy(T), 2) for b in bases) < 1.0:
            return T
    return None


@dataclass(frozen=True)
class ContractionReport:
    """Simulated sampled norms ||z(pT)|| against the geometric bound."""

    max_norm: float
    sampled_norms: np.ndarray  # (p_max + 1, k)
    bounds: np.ndarray  # (p_max + 1, k)
    bound_ok: bool
    step_defect: float  # max ||z((p+1)T) - Psi z(pT)||, single-simplex only
    step_ok: bool

    @property
    def passed(self) -> bool:
        return self.bound_ok and self.step_ok


def contraction_check(
    ctrl,
    z0: np.ndarray,
    p_max: int = 10,
    dt: Optional[float] = None,
) -> ContractionReport:
    """Simulate p_max intervals and compare z(pT) with the certified decay.

    z0 is one initial state (n,) or a batch (n, k), simulated at the
    controller's dt; a dt other than None or ctrl.dt is a ValueError.  A
    violation is flagged in the report, not raised.  The per-interval defect
    against Psi z(pT) is only checked for single-simplex controllers, where
    Psi is unique.
    """
    if dt is not None and abs(dt - ctrl.dt) > 1e-9 * ctrl.dt:
        raise ValueError(f"dt={dt} is not the demonstration dt={ctrl.dt} "
                         "the controller was learned at")
    cert = certificate(ctrl)
    z0 = np.asarray(z0, dtype=float)
    Z0 = z0[:, None] if z0.ndim == 1 else z0
    _, states, _ = simulate_chain_batch(ctrl, Z0, p_max * ctrl.T)
    idx = np.arange(p_max + 1) * whole_steps(ctrl.T, ctrl.dt)
    samples = states[idx]  # (p_max + 1, n, k)
    norms = np.linalg.norm(samples, axis=1)
    powers = cert.max_norm ** np.arange(p_max + 1)
    bounds = np.outer(powers, norms[0]) * (1.0 + CONTRACTION_SLACK)
    bound_ok = bool(np.all(norms <= bounds + 1e-12))

    step_defect = 0.0
    step_ok = True
    if len(cert.per_simplex) == 1:
        Psi = cert.per_simplex[0].Psi
        pred = np.einsum("ij,pjk->pik", Psi, samples[:-1])
        step_defect = float(np.linalg.norm(samples[1:] - pred, axis=1).max())
        step_ok = bool(step_defect <= STEP_TOL)
    return ContractionReport(
        max_norm=cert.max_norm,
        sampled_norms=norms,
        bounds=bounds,
        bound_ok=bound_ok,
        step_defect=step_defect,
        step_ok=step_ok,
    )
