"""Recording expert demonstrations and transforming them to chain coordinates.

A demonstration set is one block: M >= n+1 sampled trajectories of the chain
dz/dt = Az + Bv on a common uniform grid over [0, T], demonstration i in
column i.  Column 0 is always the trivial demonstration (identically zero);
it anchors the difference matrices so the learned controller vanishes
exactly at the origin.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NotFeedbackLinearizableError
from .files import Memo, decode_json, write_csv, write_json
from .plant import PlantModel, brunovsky_pair
from .sim import Trajectory, simulate_closed_loop, time_grid

# Scale-invariant rank test: pass iff min sigma_n(Z(t)) > RANK_TOL * max sigma_1.
RANK_TOL = 1e-8


@dataclass(frozen=True)
class DemonstrationSet:
    """M demonstrations as one block on a common grid, plus the chain pair (A, B) they solve.

    grid is (G,), z is (G, n, M) and v is (G, m, M) (or (G, M) for one
    input), demonstration i in column i.  The invariants are checked once
    over the block: M >= n+1, at least two finite samples on a uniform grid
    (steps within 1e-9 dt), column 0 the trivial (identically zero)
    solution, A (n, n) and B (n, m).  For
    single-input plants (A, B) is the Brunovsky pair of size n; the
    flat-quadrotor set uses the stacked three-chain pair with m = 3.
    """

    grid: np.ndarray
    z: np.ndarray
    v: np.ndarray
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        grid, z, v, A, B = (np.asarray(a, dtype=float)
                            for a in (self.grid, self.z, self.v, self.A, self.B))
        if v.ndim == 2:
            v = v[:, None, :]
        if B.ndim == 1:
            B = B[:, None]
        for name, value in (("grid", grid), ("z", z), ("v", v), ("A", A), ("B", B)):
            object.__setattr__(self, name, value)
        if grid.ndim != 1 or z.ndim != 3 or v.ndim != 3 or z.shape[2] != v.shape[2]:
            raise ValueError(f"a demonstration block needs grid (G,), z (G, n, M) and "
                             f"v (G, m, M), got {grid.shape}, {z.shape} and {v.shape}")
        if not len(grid) == len(z) == len(v):
            raise ValueError("grid, z and v must have equal length")
        if len(grid) < 2:
            raise ValueError("a demonstration needs at least two samples")
        steps = np.diff(grid)
        uneven = np.flatnonzero(~((np.abs(steps - steps[0]) <= 1e-9 * steps[0]) & (steps > 0)))
        if uneven.size:
            k = uneven[0]
            raise ValueError(f"the grid must be uniform and increasing: step {k} from "
                             f"t={grid[k]} to t={grid[k + 1]} is {steps[k]}, not dt={steps[0]}")
        if self.M < self.n + 1:
            raise ValueError(f"need at least n+1 = {self.n + 1} demonstrations, got {self.M}")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(v))):
            raise ValueError("demonstration samples must be finite")
        if np.any(z[:, :, 0]) or np.any(v[:, :, 0]):
            raise ValueError("demonstration 0 must be the trivial (identically zero) solution")
        if A.shape != (self.n, self.n) or B.shape != (self.n, self.m):
            raise ValueError("chain matrices (A, B) do not match the demonstration shape")

    @property
    def n(self) -> int:
        return self.z.shape[1]

    @property
    def m(self) -> int:
        return self.v.shape[1]

    @property
    def M(self) -> int:
        return self.z.shape[2]

    @property
    def T(self) -> float:
        return float(self.grid[-1] - self.grid[0])

    @property
    def dt(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def z0_points(self) -> np.ndarray:
        """Initial states z^i(0), shaped (M, n); the point set triangulated for M > n+1."""
        return self.z[0].T


def record_expert(
    plant: PlantModel,
    expert: Callable[[np.ndarray], np.ndarray],
    x0s: Sequence[np.ndarray],
    T: float,
    dt: float,
) -> Trajectory:
    """Record closed-loop expert runs u = expert(x) from each initial condition.

    The runs share one grid and are integrated as one batch: states
    (N, n, k) and inputs (N, k), one start per column, with the trivial
    run (from x0 = 0) first, so k = len(x0s) + 1.  An error that names the
    failing column gets a note naming its start.

    A column's bits depend on the batch it shares: ball_beam_expert and
    expert_lqr form K x as one BLAS product over the batch, whose rounding
    differs from a one-column product.  From the README ball-beam starts
    over 2 s, each non-trivial column of the 5-column batch differs from its
    recording alone by up to 4.4e-16 in the state and 1.4e-14 in the input.
    """
    starts = np.column_stack([np.zeros(plant.n), *x0s])
    try:
        return simulate_closed_loop(plant, lambda t, x: expert(x), starts, T, dt)
    except Exception as exc:
        if getattr(exc, "column", None) is not None:
            exc.add_note(f"recording from x0={starts[:, exc.column]} failed")
        raise


def to_zv(plant: PlantModel, batch: Trajectory) -> DemonstrationSet:
    """Transform a recorded batch of (x, u) runs into chain coordinates.

    Applies z = [h, L_f h, ..., L_f^{n-1} h](x) and
    v = L_f^n h(x) + L_g L_f^{n-1} h(x) u, from one plant.terms call per
    recording, written into the block column by column so that one
    recording's table of terms is alive at a time.  Rejects plants without
    relative degree n; those go through the embedding pipeline instead.
    """
    if plant.relative_degree != plant.n:
        raise NotFeedbackLinearizableError(
            f"{plant.name} does not have relative degree n={plant.n}; "
            "use the integrator-chain embedding"
        )
    n, (N, _, k) = plant.n, batch.states.shape
    z, v = np.empty((N, n, k)), np.empty((N, k))
    for i in range(k):
        x = batch.states[:, :, i].T
        try:
            plant.require_in_domain(x)
            terms = plant.terms(x)
        except Exception as exc:
            sample = getattr(exc, "column", None)
            exc.add_note(f"demonstration {i}" + ("" if sample is None else f", sample {sample}"))
            raise
        z[:, :, i] = terms[2 * n:3 * n].T
        v[:, i] = terms[3 * n] + terms[4 * n] * batch.inputs[:, i]
    pair = brunovsky_pair(n)
    return DemonstrationSet(grid=batch.times, z=z, v=v, A=pair.A, B=pair.B)


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
    z_base, v_base = dset.z[:, :, I[0]], dset.v[:, :, I[0]]
    Zs = np.stack([dset.z[:, :, i] - z_base for i in I[1:]], axis=2)
    Vs = np.stack([dset.v[:, :, i] - v_base for i in I[1:]], axis=2)
    return Zs, Vs, z_base.copy(), v_base.copy()


def validate_affine_independence(
    dset: DemonstrationSet, index_set: Optional[Sequence[int]] = None
) -> AffineIndependenceReport:
    """Check that {z^i(t)} for i in the index set stays affinely independent.

    The index set holds n+1 distinct demonstrations, by default 0..n, or
    more, as a multi controller's set of all M does; Z_I(t), of shape
    n x (|I| - 1), must then keep rank n.  Report-only: computes min over the grid of
    sigma_n(Z_I(t)) and passes iff it exceeds RANK_TOL times the largest
    singular value seen.
    """
    I = list(range(dset.n + 1) if index_set is None else index_set)
    if len(I) <= dset.n:
        raise ValueError(f"index set must have at least n+1 = {dset.n + 1} entries, "
                         f"got {len(I)}")
    if len(set(I)) != len(I):
        raise ValueError(f"index set has repeated entries: {I}")
    Zs = dset.z[:, :, I[1:]] - dset.z[:, :, I[:1]]
    sigmas = np.linalg.svd(Zs, compute_uv=False)
    min_sigma = float(sigmas[:, -1].min())
    max_sigma = float(sigmas[:, 0].max())
    k = int(sigmas[:, -1].argmin())
    with np.errstate(divide="ignore", over="ignore"):  # a subnormal sigma_n gives inf
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
# float as its repr, the shortest string that reproduces the exact double; this
# module only names the payload and the tables' columns.
# ---------------------------------------------------------------------------


def demo_set_to_dict(dset: DemonstrationSet) -> dict:
    out = {
        "n": dset.n,
        "m": dset.m,
        "M": dset.M,
        "T": dset.T,
        "dt": dset.dt,
        "demos": [_demo_dict(dset, i) for i in range(dset.M)],
    }
    if dset.m != 1:
        out["A"] = dset.A
        out["B"] = dset.B
    return out


def _demo_dict(dset: DemonstrationSet, i: int) -> dict:
    return {"z": dset.z[:, :, i], "v": dset.v[:, 0, i] if dset.m == 1 else dset.v[:, :, i]}


def demo_set_from_dict(data: dict) -> DemonstrationSet:
    """The set of a demo_set_to_dict document; its demonstrations become the block's columns.

    Raises ValueError naming the demonstration whose z or v sample count
    differs from demonstration 0's.
    """
    demos = data["demos"]
    G = len(demos[0]["z"])
    for i, d in enumerate(demos):
        for key in ("z", "v"):
            if len(d[key]) != G:
                raise ValueError(f"{key} of demonstration {i} has {len(d[key])} samples, "
                                 f"z of demonstration 0 has {G}")
    z = np.array([d["z"] for d in demos], dtype=float)  # (M, G, n)
    v = np.array([d["v"] for d in demos], dtype=float)  # (M, G) or (M, G, m)
    if "A" in data:
        A, B = np.array(data["A"], dtype=float), np.array(data["B"], dtype=float)
    else:
        pair = brunovsky_pair(int(data["n"]))
        A, B = pair.A, pair.B
    return DemonstrationSet(grid=time_grid(0.0, float(data["T"]), float(data["dt"])),
                            z=np.moveaxis(z, 0, -1), v=np.moveaxis(v, 0, -1), A=A, B=B)


def save_demo_set(dset: DemonstrationSet, path: str | Path,
                  csv_paths: Sequence[str | Path] = ()) -> str:
    """The set as JSON at path and demonstration i as CSV at csv_paths[i], in one
    write_json call: the CSVs are its tables, cut from the JSON's text.  Returns the
    SHA-256 hex digest of the JSON file's bytes; dset is neither copied nor held."""
    doc = demo_set_to_dict(dset)
    return write_json(path, doc, [(csv_path, *_csv_table(dset, demo))
                                  for csv_path, demo in zip(csv_paths, doc["demos"])])


def load_demo_set(path: str | Path) -> DemonstrationSet:
    return read_demo_set(path)[0]


# The set this process decoded or wrote last, under the SHA-256 of its demo_set.json bytes;
# the demos stage puts the set it saved here.
SET_MEMO = Memo()


def read_demo_set(path: str | Path, sha256: Optional[str] = None
                  ) -> tuple[DemonstrationSet, str]:
    """The set in path and the SHA-256 hex digest of its bytes, which are read every time.

    Given the digest sha256 that a controller recorded, raises ValueError
    before decoding if the file's is another.  The bytes are decoded only
    if SET_MEMO does not hold a set under their digest; the set returned is
    then held there, its arrays read-only, in place of the one held before.
    """
    data = Path(path).read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if sha256 is not None and digest != sha256:
        raise ValueError(f"{path} is not the demonstration set the controller was learned "
                         "from (its SHA-256 differs); run the learn stage again")
    dset = SET_MEMO.get(digest)
    if dset is None:
        text = data.decode()
        del data  # the bytes are not held while the decoded lists are built
        dset = SET_MEMO.hold(digest, demo_set_from_dict(decode_json(text)))
    return dset, digest


def save_demo_csv(dset: DemonstrationSet, path: str | Path, i: int) -> None:
    """Demonstration i as CSV with header t,z1..zn,v (or v1..vm); save_demo_set's rows."""
    write_csv(path, *_csv_table(dset, _demo_dict(dset, i)))


def _csv_table(dset: DemonstrationSet, demo: dict) -> tuple[list[str], list[np.ndarray]]:
    """The CSV header and columns of a demonstration's _demo_dict: the grid, z and v."""
    vcols = ["v"] if dset.m == 1 else [f"v{j + 1}" for j in range(dset.m)]
    return (["t"] + [f"z{k + 1}" for k in range(dset.n)] + vcols,
            [dset.grid, demo["z"], demo["v"]])
