"""Direct sparse solution and pointwise evaluation of the discrete fields."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import FemSystem
from .config import PhysicalConfig
from .mesh import Mesh

__all__ = ["FieldSolution", "SingularSystemError", "solve", "solve_linear",
           "evaluate_field"]

RESIDUAL_TOL = 1e-10


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
    """Point location by neighbor walking with exhaustive fallback."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        edge_owner = {}
        self.neighbors = np.full((mesh.num_triangles, 3), -1, dtype=np.int64)
        for t, tri in enumerate(mesh.triangles):
            for a in range(3):
                key = tuple(sorted((tri[(a + 1) % 3], tri[(a + 2) % 3])))
                other = edge_owner.pop(key, None)
                if other is None:
                    edge_owner[key] = (t, a)
                else:
                    ot, oa = other
                    self.neighbors[t, a] = ot
                    self.neighbors[ot, oa] = t
        self.last = 0

    def barycentric(self, t: int, point) -> np.ndarray:
        p = self.mesh.nodes[self.mesh.triangles[t]]
        T = np.column_stack([p[1] - p[0], p[2] - p[0]])
        lam = np.linalg.solve(T, np.asarray(point, float) - p[0])
        return np.array([1.0 - lam[0] - lam[1], lam[0], lam[1]])

    def locate(self, point, tol: float = 1e-10):
        t = self.last
        for _ in range(2 * self.mesh.num_triangles):
            lam = self.barycentric(t, point)
            worst = int(np.argmin(lam))
            if lam[worst] >= -tol:
                self.last = t
                return t, np.clip(lam, 0.0, None) / np.sum(np.clip(lam, 0.0, None))
            nxt = self.neighbors[t, worst]
            if nxt < 0:
                break
            t = nxt
        # annulus walks can hit the hole; scan everything before giving up
        for t in range(self.mesh.num_triangles):
            lam = self.barycentric(t, point)
            if np.min(lam) >= -tol:
                self.last = t
                return t, np.clip(lam, 0.0, None) / np.sum(np.clip(lam, 0.0, None))
        raise ValueError(f"point {tuple(point)} lies outside the mesh")


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
