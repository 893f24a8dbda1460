"""Learned controller for more than n+1 demonstrations.

The initial states z^i(0) are triangulated (Delaunay by default, which gives
the best worst-case interpolation error among triangulations).  At each
interval start the simplex containing z(pT) picks the index set of n+1
demonstrations used for that whole interval; states outside the hull are
handled by projecting onto the hull and extending the projection simplex's
coordinates affinely.  learner.learn_controller builds this controller, and
the controller file records its simplices, not its demonstrations.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .demos import DemonstrationSet
from .geometry import LOCATE_TOL, Triangulation, delaunay, locate, project_to_hull
from .learner import IntervalController, build_basis


def _locate_nearest(tri: Triangulation, xi: np.ndarray) -> int:
    """Simplex containing xi, falling back to the least-violating one.

    Projected points can sit a rounding error outside every simplex; the
    simplex whose worst barycentric coordinate is largest is then the right
    owner.  Ties (within 1e-12) resolve to the lowest index.
    """
    worst = tri.worst_coordinates(xi)
    inside = np.flatnonzero(worst >= -LOCATE_TOL)
    if inside.size:
        return int(inside[0])
    return int(np.flatnonzero(worst >= worst.max() - 1e-12)[0])


class MultiController(IntervalController):
    """Piecewise (per-simplex) learned controller over a triangulation of Z(0)."""

    mode = "multi"

    def __init__(
        self,
        dset: DemonstrationSet,
        tri: Optional[Triangulation] = None,
        feedback_mode: str = "closed_loop",
    ):
        if tri is None:
            tri = delaunay(dset.z0_points())
        if tri.points.shape != (dset.M, dset.n) or not np.allclose(
            tri.points, dset.z0_points()
        ):
            raise ValueError("triangulation points must be the demonstration starts Z(0)")
        super().__init__([build_basis(dset, s.vertex_indices) for s in tri.simplices],
                         dset.A, dset.B, feedback_mode)
        self.dset = dset
        self.tri = tri

    @property
    def P(self) -> int:
        return len(self.bases)

    def _select_simplex(self, z: np.ndarray) -> int:
        j = locate(self.tri, z)
        if j is not None:
            return j
        xi_star, _ = project_to_hull(self.tri.points, z)
        return _locate_nearest(self.tri, xi_star)

    def begin_interval(self, z: np.ndarray) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Anchor (simplices, zetas) of an interval starting at z.

        One simplex index per trajectory column of z; for the open-loop law
        also the coefficients zeta(0, z) of each column, stacked as columns.
        """
        z = np.asarray(z, dtype=float)
        cols = z[:, None] if z.ndim == 1 else z
        js = np.array([self._select_simplex(cols[:, k]) for k in range(cols.shape[1])])
        zetas = None
        if self.feedback_mode == "open_loop":
            zetas = np.stack([self.bases[j].zeta(0.0, cols[:, k]) for k, j in enumerate(js)],
                             axis=1)
        return js, zetas

    def eval_in_interval(self, anchor, tau: float, z: np.ndarray) -> np.ndarray:
        js, zetas = anchor
        z = np.asarray(z, dtype=float)
        squeeze = z.ndim == 1
        cols = z[:, None] if squeeze else z
        out = np.empty((self.m, cols.shape[1]))
        for j in np.unique(js):
            sel = np.flatnonzero(js == j)
            basis = self.bases[j]
            if zetas is not None:
                out[:, sel] = basis.value_from_zeta(tau, zetas[:, sel])
            else:
                out[:, sel] = basis.value(tau, cols[:, sel])
        return out[:, 0] if squeeze else out

    def interval_groups(self, anchor):
        """(basis, columns, frozen zeta or None) per simplex chosen in the anchor."""
        js, zetas = anchor
        for j in np.unique(js):
            sel = np.flatnonzero(js == j)
            yield self.bases[j], sel, None if zetas is None else zetas[:, sel]
