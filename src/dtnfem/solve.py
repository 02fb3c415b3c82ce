"""Direct sparse solution and pointwise evaluation of the discrete fields."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import FemSystem, _p1_geometry
from .config import PhysicalConfig
from .mesh import Mesh

__all__ = ["FieldSolution", "SingularSystemError", "solve", "solve_linear",
           "evaluate_field"]

RESIDUAL_TOL = 1e-10
LOCATE_TOL = 1e-10   # smallest barycentric that still counts as inside


class SingularSystemError(RuntimeError):
    """Numerically singular system: a Jones-type resonance or a broken
    configuration.  Never silently regularized."""


def solve_linear(matrix: sp.spmatrix, rhs: np.ndarray):
    """Sparse LU with partial pivoting plus a hard post-solve residual check;
    returns (x, relative residual)."""
    if matrix.shape[0] != matrix.shape[1] or matrix.shape[0] != rhs.shape[0]:
        raise ValueError("system matrix and right-hand side sizes disagree")
    try:
        lu = spla.splu(matrix.tocsc().astype(complex))
        x = lu.solve(rhs.astype(complex))
    except RuntimeError as exc:  # SuperLU signals exact singularity this way
        raise SingularSystemError(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("solver produced non-finite values")
    rhs_norm = np.linalg.norm(rhs)
    residual = float(np.linalg.norm(matrix @ x - rhs) / max(rhs_norm, 1e-300))
    if residual > RESIDUAL_TOL:
        raise SingularSystemError(
            f"relative residual {residual:.3e} exceeds {RESIDUAL_TOL:g}; "
            "system is numerically singular")
    return x, residual


@dataclass(frozen=True)
class FieldSolution:
    """Nodal displacement over the disc and nodal pressure over the annulus."""

    u_nodal: np.ndarray        # (n_solid, 2) complex
    p_nodal: np.ndarray        # (n_fluid,) complex
    config: PhysicalConfig
    disc_mesh: Mesh
    annulus_mesh: Mesh
    residual: float

    def __post_init__(self):
        self.u_nodal.setflags(write=False)
        self.p_nodal.setflags(write=False)

    # point location state lives and dies with the solution
    @cached_property
    def _disc_locator(self) -> _Locator:
        return _Locator(self.disc_mesh)

    @cached_property
    def _annulus_locator(self) -> _Locator:
        return _Locator(self.annulus_mesh)


def solve(system: FemSystem) -> FieldSolution:
    x, residual = solve_linear(system.matrix, system.rhs)
    ns = system.dof_map.n_solid_nodes
    return FieldSolution(
        u_nodal=x[:2 * ns].reshape(ns, 2),
        p_nodal=x[2 * ns:],
        config=system.config,
        disc_mesh=system.disc_mesh,
        annulus_mesh=system.annulus_mesh,
        residual=residual,
    )


class _Locator:
    """Point location by one vectorised barycentric test of every triangle,
    from each triangle's origin node and the constant gradients of lambda_1
    and lambda_2 (``assembly._p1_geometry``)."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        g, _ = _p1_geometry(mesh)
        x0 = mesh.nodes[mesh.triangles[:, 0]]
        self._x0, self._y0 = x0[:, 0].copy(), x0[:, 1].copy()
        self._g1x, self._g1y = g[:, 1, 0].copy(), g[:, 1, 1].copy()
        self._g2x, self._g2y = g[:, 2, 0].copy(), g[:, 2, 1].copy()

    def locate(self, point):
        """Lowest-index triangle holding the point, and its barycentrics."""
        x, y = (float(c) for c in point)
        if not (np.isfinite(x) and np.isfinite(y)):
            raise ValueError(f"point {tuple(point)} is not finite")
        dx, dy = x - self._x0, y - self._y0
        lam1 = self._g1x * dx + self._g1y * dy
        lam2 = self._g2x * dx + self._g2y * dy
        lam0 = 1.0 - lam1 - lam2
        inside = ((lam0 >= -LOCATE_TOL) & (lam1 >= -LOCATE_TOL)
                  & (lam2 >= -LOCATE_TOL))
        t = int(np.argmax(inside))
        if not inside[t]:
            raise ValueError(f"point {tuple(point)} lies outside the mesh")
        lam = np.clip([lam0[t], lam1[t], lam2[t]], 0.0, None)
        return t, lam / np.sum(lam)


def evaluate_field(sol: FieldSolution, point, which: str):
    """Barycentric P1 interpolation of 'u' (2-vector) or 'p' (scalar)."""
    if which == "u":
        locator, values = sol._disc_locator, sol.u_nodal
    elif which == "p":
        locator, values = sol._annulus_locator, sol.p_nodal
    else:
        raise ValueError("which must be 'u' or 'p'")
    t, lam = locator.locate(point)
    out = np.tensordot(lam, values[locator.mesh.triangles[t]], axes=(0, 0))
    return out if which == "u" else complex(out)
