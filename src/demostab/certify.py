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
from .learner import AffineBasis, build_basis, interval_grid, simulate_chain_batch

# contraction_check: relative slack on the certified bound ||Psi||^p ||z(0)||, and the
# largest per-interval defect ||z((p+1)T) - Psi z(pT)|| it accepts.
CONTRACTION_SLACK = 1e-3
STEP_TOL = 1e-4


def expm_nilpotent(A: np.ndarray, t: float) -> np.ndarray:
    """Matrix exponential of a nilpotent matrix as its finite power series."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, n + 1):
        term = term @ A * (t / k)
        if not term.any():
            break
        out = out + term
    if term.any() and (term @ A).any():
        raise ValueError("matrix is not nilpotent")
    return out


def monodromy_from_integral(
    basis: AffineBasis,
    A: np.ndarray,
    B: np.ndarray,
    T: Optional[float] = None,
) -> np.ndarray:
    """Psi(T) via the variation-of-constants integral on the demonstration grid.

    e^{At} for the chain matrix is the exact finite nilpotent series.  The
    integral of e^{A(T-tau)} B V(tau) Z(0)^{-1} uses composite Simpson over
    the uniform grid (falling back to a trapezoid on a leftover interval), so
    the cross-check error is quadrature-dominated at O(dt^4) rather than the
    O(dt^2) a plain trapezoid would give; large-amplitude demonstrations stay
    within the 1e-3 agreement budget.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    T = basis.T if T is None else float(T)
    if T < 0 or T > basis.T + 1e-9:
        raise ValueError(f"T={T} outside the demonstration horizon [0, {basis.T}]")
    Z0_inv = np.linalg.inv(basis.Zs[0])

    times = basis.times
    k_last = int(np.searchsorted(times, T + 1e-12)) - 1
    k_last = max(k_last, 0)
    nodes = list(times[: k_last + 1])
    Vs = [basis.Vs[k] for k in range(k_last + 1)]
    if T - nodes[-1] > 1e-12:
        _, V_T, _, _ = basis._interp(T)
        nodes.append(T)
        Vs.append(V_T)

    F = [expm_nilpotent(A, T - tau) @ B @ V @ Z0_inv for tau, V in zip(nodes, Vs)]
    integral = np.zeros((A.shape[0], A.shape[0]))
    k = 0
    while k + 2 < len(nodes) + 1 and k + 2 <= len(nodes) - 1:
        h1 = nodes[k + 1] - nodes[k]
        h2 = nodes[k + 2] - nodes[k + 1]
        if abs(h1 - h2) > 1e-12 * max(h1, h2):
            break  # uneven tail: finish with trapezoids
        integral = integral + (h1 / 3.0) * (F[k] + 4.0 * F[k + 1] + F[k + 2])
        k += 2
    while k + 1 <= len(nodes) - 1:
        h = nodes[k + 1] - nodes[k]
        integral = integral + 0.5 * h * (F[k] + F[k + 1])
        k += 1
    return expm_nilpotent(A, T) + integral


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


def certificate(obj, T: Optional[float] = None) -> MonodromyCertificate:
    """Evaluate the monodromy norm certificate for a basis, controller or set."""
    bases = _bases_of(obj)
    per = []
    for b in bases:
        Psi = b.monodromy(T)
        per.append(
            SimplexCertificate(
                indices=b.index_set,
                Psi=Psi,
                norm=float(np.linalg.norm(Psi, 2)),
                spectral_radius=float(np.max(np.abs(np.linalg.eigvals(Psi)))),
            )
        )
    max_norm = max(s.norm for s in per)
    horizon = bases[0].T if T is None else float(T)
    return MonodromyCertificate(
        T=horizon, per_simplex=tuple(per), verdict=bool(max_norm < 1.0), margin=1.0 - max_norm
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
    dt: float = 1e-3,
) -> ContractionReport:
    """Simulate p_max intervals and compare z(pT) with the certified decay.

    z0 is one initial state (n,) or a batch (n, k).  A violation is flagged in
    the report, not raised.  The per-interval defect against Psi z(pT) is only
    checked for single-simplex controllers, where Psi is unique.
    """
    _, steps_per_T, _ = interval_grid(ctrl, p_max * ctrl.T, dt)
    cert = certificate(ctrl)
    z0 = np.asarray(z0, dtype=float)
    Z0 = z0[:, None] if z0.ndim == 1 else z0
    _, states, _ = simulate_chain_batch(ctrl, Z0, p_max * ctrl.T, dt)
    idx = np.arange(p_max + 1) * steps_per_T
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
