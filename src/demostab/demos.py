"""Recording expert demonstrations and transforming them to chain coordinates.

A demonstration set holds M >= n+1 sampled trajectories of the chain
dz/dt = Az + Bv on a common uniform grid over [0, T].  The first demonstration
is always the trivial one (identically zero); it anchors the difference
matrices so the learned controller vanishes exactly at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NotFeedbackLinearizableError
from .files import read_json, write_csv, write_json
from .plant import PlantModel, brunovsky_pair
from .sim import Trajectory, simulate_closed_loop, time_grid

# Scale-invariant rank test: pass iff min sigma_n(Z(t)) > RANK_TOL * max sigma_1.
RANK_TOL = 1e-8


@dataclass(frozen=True)
class Demonstration:
    """One (z, v) trajectory sampled on a uniform grid over [0, T]."""

    times: np.ndarray
    z: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "z", np.atleast_2d(np.asarray(self.z, dtype=float)))
        v = np.asarray(self.v, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        object.__setattr__(self, "v", v)
        if len(self.times) != len(self.z) or len(self.times) != len(self.v):
            raise ValueError("grid, z and v must have equal length")
        if len(self.times) < 2:
            raise ValueError("a demonstration needs at least two samples")
        if not (np.all(np.isfinite(self.z)) and np.all(np.isfinite(self.v))):
            raise ValueError("demonstration samples must be finite")

    @property
    def T(self) -> float:
        return float(self.times[-1] - self.times[0])

    @property
    def n(self) -> int:
        return self.z.shape[1]

    @property
    def m(self) -> int:
        return self.v.shape[1]

    def is_trivial(self) -> bool:
        return bool(np.all(self.z == 0.0) and np.all(self.v == 0.0))


@dataclass(frozen=True)
class DemonstrationSet:
    """M demonstrations on a common grid, plus the chain pair (A, B) they solve.

    Invariants: M >= n+1, all grids identical, and demos[0] is the trivial
    solution.  For single-input plants (A, B) is the Brunovsky pair of size n;
    the flat-quadrotor fixture uses the stacked three-chain pair with m = 3.
    """

    demos: tuple[Demonstration, ...]
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "demos", tuple(self.demos))
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 1:
            B = B[:, None]
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        if not self.demos:
            raise ValueError("empty demonstration set")
        n = self.demos[0].n
        if len(self.demos) < n + 1:
            raise ValueError(f"need at least n+1 = {n + 1} demonstrations, got {len(self.demos)}")
        grid = self.demos[0].times
        for i, d in enumerate(self.demos):
            if d.n != n or d.m != self.demos[0].m:
                raise ValueError(f"demonstration {i} has inconsistent dimensions")
            if len(d.times) != len(grid) or not np.array_equal(d.times, grid):
                raise ValueError(f"demonstration {i} is not on the common grid")
        if not self.demos[0].is_trivial():
            raise ValueError("demos[0] must be the trivial (identically zero) solution")
        if A.shape != (n, n) or B.shape[0] != n or B.shape[1] != self.demos[0].m:
            raise ValueError("chain matrices (A, B) do not match the demonstration shape")

    @property
    def n(self) -> int:
        return self.demos[0].n

    @property
    def m(self) -> int:
        return self.demos[0].m

    @property
    def M(self) -> int:
        return len(self.demos)

    @property
    def grid(self) -> np.ndarray:
        return self.demos[0].times

    @property
    def T(self) -> float:
        return self.demos[0].T

    @property
    def dt(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def z0_points(self) -> np.ndarray:
        """Initial states z^i(0), shaped (M, n); the point set triangulated for M > n+1."""
        return np.stack([d.z[0] for d in self.demos])


def record_expert(
    plant: PlantModel,
    expert: Callable[[np.ndarray], np.ndarray],
    x0s: Sequence[np.ndarray],
    T: float,
    dt: float,
) -> list[Trajectory]:
    """Record closed-loop expert trajectories u = expert(x) from each initial condition.

    The trivial solution (from x0 = 0) is always included as the first entry,
    so the result has len(x0s) + 1 trajectories.  All runs share one grid and
    are integrated as one batch, one start per column; an error that names
    the failing column gets a note naming its start.
    """
    starts = np.column_stack([np.zeros(plant.n), *x0s])
    try:
        batch = simulate_closed_loop(plant, lambda t, x: expert(x), starts, T, dt)
    except Exception as exc:
        if getattr(exc, "column", None) is not None:
            exc.add_note(f"recording from x0={starts[:, exc.column]} failed")
        raise
    return [Trajectory(times=batch.times, states=batch.states[:, :, j], inputs=batch.inputs[:, j])
            for j in range(starts.shape[1])]


def to_zv(plant: PlantModel, raw: Sequence[Trajectory]) -> DemonstrationSet:
    """Transform recorded (x, u) trajectories into chain coordinates.

    Applies z = [h, L_f h, ..., L_f^{n-1} h](x) and
    v = L_f^n h(x) + L_g L_f^{n-1} h(x) u, from one plant.terms call on a
    whole recording.  Rejects plants without relative degree n; those go
    through the embedding pipeline instead.
    """
    if plant.relative_degree != plant.n:
        raise NotFeedbackLinearizableError(
            f"{plant.name} does not have relative degree n={plant.n}; "
            "use the integrator-chain embedding"
        )
    n, demos = plant.n, []
    for i, traj in enumerate(raw):
        x = traj.states.T
        try:
            plant.require_in_domain(x)
            terms = plant.terms(x)
        except Exception as exc:
            sample = getattr(exc, "column", None)
            exc.add_note(f"demonstration {i}" + ("" if sample is None else f", sample {sample}"))
            raise
        demos.append(Demonstration(times=traj.times, z=terms[2 * n:3 * n].T,
                                   v=terms[3 * n] + terms[4 * n] * traj.inputs))
    pair = brunovsky_pair(plant.n)
    return DemonstrationSet(demos=tuple(demos), A=pair.A, B=pair.B)


@dataclass(frozen=True)
class AffineIndependenceReport:
    """Smallest singular value of Z_I(t) across the grid and where it occurs."""

    min_sigma: float
    argmin_time: float
    max_sigma: float
    max_condition: float
    passed: bool
    tolerance: float


def difference_matrices(
    dset: DemonstrationSet, index_set: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Grid-sampled Z_I, V_I and the base demonstration samples.

    Returns (Zs, Vs, z_base, v_base) with shapes (G, n, n), (G, m, n), (G, n)
    and (G, m).  Column k-1 of Z_I(t) is z^{i_k}(t) - z^{i_1}(t).
    """
    I = list(index_set)
    n = dset.n
    if len(I) != n + 1:
        raise ValueError(f"index set must have n+1 = {n + 1} entries, got {len(I)}")
    if len(set(I)) != len(I):
        raise ValueError(f"index set has repeated entries: {I}")
    base = dset.demos[I[0]]
    Zs = np.stack([dset.demos[i].z - base.z for i in I[1:]], axis=2)
    Vs = np.stack([dset.demos[i].v - base.v for i in I[1:]], axis=2)
    return Zs, Vs, base.z.copy(), base.v.copy()


def validate_affine_independence(
    dset: DemonstrationSet, index_set: Optional[Sequence[int]] = None
) -> AffineIndependenceReport:
    """Check that {z^i(t)} for i in the index set stays affinely independent.

    Report-only: computes min over the grid of sigma_n(Z_I(t)) and passes iff
    it exceeds RANK_TOL times the largest singular value seen.
    """
    if index_set is None:
        index_set = range(dset.n + 1)
    Zs, _, _, _ = difference_matrices(dset, index_set)
    sigmas = np.linalg.svd(Zs, compute_uv=False)
    min_sigma = float(sigmas[:, -1].min())
    max_sigma = float(sigmas[:, 0].max())
    k = int(sigmas[:, -1].argmin())
    with np.errstate(divide="ignore"):
        conds = np.where(sigmas[:, -1] > 0.0, sigmas[:, 0] / sigmas[:, -1], np.inf)
    tol = RANK_TOL * max_sigma
    return AffineIndependenceReport(
        min_sigma=min_sigma,
        argmin_time=float(dset.grid[k]),
        max_sigma=max_sigma,
        max_condition=float(conds.max()),
        passed=bool(min_sigma > tol),
        tolerance=tol,
    )


# ---------------------------------------------------------------------------
# Serialization.  Round trips are lossless: the writers in files.py give every
# float as its repr, the shortest string that reproduces the exact double.
# ---------------------------------------------------------------------------


def demo_set_to_dict(dset: DemonstrationSet) -> dict:
    out = {
        "n": dset.n,
        "m": dset.m,
        "M": dset.M,
        "T": dset.T,
        "dt": dset.dt,
        "demos": [
            {
                "z": d.z,
                "v": d.v[:, 0] if dset.m == 1 else d.v,
            }
            for d in dset.demos
        ],
    }
    if dset.m != 1:
        out["A"] = dset.A
        out["B"] = dset.B
    return out


def demo_set_from_dict(data: dict) -> DemonstrationSet:
    n = int(data["n"])
    grid = time_grid(0.0, float(data["T"]), float(data["dt"]))
    demos = tuple(
        Demonstration(times=grid, z=np.array(d["z"], dtype=float), v=np.array(d["v"], dtype=float))
        for d in data["demos"]
    )
    if "A" in data:
        A, B = np.array(data["A"], dtype=float), np.array(data["B"], dtype=float)
    else:
        pair = brunovsky_pair(n)
        A, B = pair.A, pair.B
    return DemonstrationSet(demos=demos, A=A, B=B)


def save_demo_set(dset: DemonstrationSet, path: str | Path) -> None:
    write_json(path, demo_set_to_dict(dset))


def load_demo_set(path: str | Path) -> DemonstrationSet:
    return demo_set_from_dict(read_json(path))


def save_demo_csv(demo: Demonstration, path: str | Path) -> None:
    """One demonstration as CSV with header t,z1..zn,v (or v1..vm)."""
    n, m = demo.n, demo.m
    vcols = ["v"] if m == 1 else [f"v{j + 1}" for j in range(m)]
    header = ["t"] + [f"z{k + 1}" for k in range(n)] + vcols
    write_csv(path, header, [demo.times, *demo.z.T, *demo.v.T])
